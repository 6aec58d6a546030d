"""Specialised ``%ROW`` templates — the report generator's hot path.

The interpreted row path (Section 3.2.1 as :mod:`repro.core.report`
implements it) pays, per fetched row, one ``set_system`` call for every
column name spelling (``Vi``, ``V_col``, ``V.col``) plus ``VLIST`` and
``ROW_NUM``, and then re-walks the row template — and every ``%DEFINE``
it mentions — through :class:`~repro.core.substitution.Evaluator`.
Section 4.3.1's lazy substitution fixes *when* a value string is
dereferenced, not that it be re-interpreted for each of 1 000 rows: while
one section's rows print, the only things that change are the variables
``_install_row`` writes.

:func:`specialise_row` therefore treats the row template plus the live
:class:`~repro.core.variables.VariableStore` as a program and partially
evaluates it **once per section**, after the column names are installed
and before the first row prints.  What is left is a function of the row
tuple: indexed reads, a few ``!= ""`` tests and string joins.

Fidelity rules (the interpreter is the oracle, bit for bit):

* One resolver rule, :meth:`_Specialiser._resolve`, answers every
  reference the way :meth:`VariableStore.lookup` will answer it during
  this section's row loop: a name ``_install_row`` is about to install
  (``Vi``, ``V_col``/``V.col``, ``VLIST``, ``ROW_NUM``) is a **row
  slot** when the exact system layer would return it, then any other
  exact system variable — the ``N*`` names just installed, ``ROWCOUNT``,
  a stale ``V5`` or exact-spelling ``V_qty`` left by an earlier section —
  is a **constant**, then the case-insensitive layer (row slot, then
  constant), then the ``%DEFINE``/client entry, which is **inlined**.
  An undefined name is the null string.
* Inlining follows :class:`Evaluator`: a simple value is a concatenation;
  conditional forms (a)/(c) test the test variable for "not null" and
  take a branch (only the taken branch is visited when the test is
  constant, as the interpreter would); forms (b)/(d) are null when any
  *direct* reference is null; a list joins its non-null elements with
  its evaluated separator; ``$$(x)`` is the literal ``$(x)``.  Every
  subtree that reaches no row slot folds to a string here, once.
* Two things cannot be made row-pure and raise :class:`NotRowPure`, so
  the caller keeps the interpreted loop: a reachable executable variable
  (a side effect per printed row, and ``last_error`` feeds later tests)
  and a reachable reference cycle (the interpreter must raise its
  ``CircularReferenceError`` at the row it reaches it).

Nothing is memoised across sections or requests: the plan depends on the
store, and building it costs about what interpreting two rows does (the
Appendix A row: ~10 us against ~7 us per interpreted row).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Sequence, Union

from repro.core.values import Literal, Reference, ValueString
from repro.core.variables import (
    ConditionalEntry,
    ExecEntry,
    ListEntry,
    SimpleEntry,
    VariableStore,
)
from repro.html.entities import escape_html
from repro.sql.cursor import value_to_text

__all__ = ["NotRowPure", "specialise_row"]

#: Must match :data:`repro.core.report.LIST_CONCAT_SEPARATOR`; imported
#: lazily there to avoid a cycle, asserted equal in the test-suite.
LIST_CONCAT_SEPARATOR = " "

#: A specialised subtree: text fixed for the whole section, or the
#: position of its per-row text in the row's ``vals`` list — the column
#: texts at their column indexes, ``ROW_NUM`` next, then one entry per
#: derived operation, each reading only positions before its own.
Node = Union[str, int]
Operation = Callable[[list], str]
#: The specialised template: ``(row, row_num) -> text``.
RenderRow = Callable[[Sequence[Any], int], str]

_ROW_NUM, _VLIST = -1, -2


class NotRowPure(Exception):
    """The row template must stay interpreted; ``reason`` says why
    (``"exec"`` or ``"cycle"``)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def specialise_row(template: ValueString, columns: Sequence[str],
                   store: VariableStore, *,
                   escape_values: bool = False) -> RenderRow:
    """Specialise ``template`` for one section's row loop.

    ``store`` must be in the state the row loop starts from (column
    names installed).  Raises :class:`NotRowPure` when the template
    reaches an executable variable or a reference cycle.
    """
    specialiser = _Specialiser(columns, store)
    body = specialiser.value(template)
    if isinstance(body, str):
        return lambda row, row_num: body
    picked = sorted(specialiser.picked)
    wants_row_num = specialiser.wants_row_num
    operations = specialiser.operations

    def render(row: Sequence[Any], row_num: int) -> str:
        vals = list(row)
        for index in picked:
            if type(vals[index]) is not str:
                vals[index] = value_to_text(vals[index])
        if escape_values:
            for index in picked:
                vals[index] = escape_html(vals[index])
        vals.append(str(row_num) if wants_row_num else "")
        for operation in operations:
            vals.append(operation(vals))
        return vals[body]

    return render


class _Specialiser:
    """One section's partial evaluation state."""

    def __init__(self, columns: Sequence[str], store: VariableStore):
        self.store = store
        self.column_count = len(columns)
        # What _install_row is about to write, in its order, so a later
        # column overwrites an earlier one of the same (folded) name.
        self.exact: dict[str, int] = {"ROW_NUM": _ROW_NUM}
        self.folded: dict[str, int] = {}
        for index, name in enumerate(columns):
            self.exact[f"V{index + 1}"] = index
            for key in (f"V_{name}", f"V.{name}"):
                self.exact[key] = index
                self.folded[key.lower()] = index
        self.exact["VLIST"] = _VLIST
        #: columns whose text some reachable reference needs
        self.picked: set[int] = set()
        self.wants_row_num = False
        self.operations: list[Operation] = []
        self._nodes: dict[str, Node] = {}
        self._inlining: set[str] = set()

    def reference(self, name: str) -> Node:
        """What ``$(name)`` evaluates to while this section's rows print."""
        node = self._nodes.get(name)
        if node is None:
            node = self._nodes[name] = self._resolve(name)
        return node

    def _resolve(self, name: str) -> Node:
        slot = self.exact.get(name)
        if slot is None and not self.store.has_system(name):
            slot = self.folded.get(name.lower())
        if slot is not None:
            return self._slot(slot)
        entry = self.store.lookup(name)
        if entry is None:
            return ""
        if isinstance(entry, str):
            return entry
        if isinstance(entry, ExecEntry):
            raise NotRowPure("exec")
        if name in self._inlining:
            raise NotRowPure("cycle")
        self._inlining.add(name)
        try:
            if isinstance(entry, SimpleEntry):
                return self.value(entry.value)
            if isinstance(entry, ConditionalEntry):
                return self._conditional(entry)
            return self._list(entry)
        finally:
            self._inlining.discard(name)

    def _slot(self, slot: int) -> Node:
        count = self.column_count
        if slot == _ROW_NUM:
            self.wants_row_num = True
            return count
        if slot == _VLIST:
            self.picked.update(range(count))
            return self._emit(
                lambda vals: LIST_CONCAT_SEPARATOR.join(vals[:count]))
        self.picked.add(slot)
        return slot

    def _emit(self, operation: Operation) -> int:
        self.operations.append(operation)
        return self.column_count + len(self.operations)

    def value(self, value: ValueString, *, strict: bool = False) -> Node:
        """A value string; ``strict`` is conditional forms (b)/(d).

        Every reference is visited even once the result is known to be
        null, because the interpreter evaluates them all (and would run
        an executable variable or meet a cycle among them).
        """
        items: list[Node] = []
        null = False
        for segment in value.segments:
            if isinstance(segment, Reference):
                item = self.reference(segment.name)
                null = null or (strict and item == "")
            elif isinstance(segment, Literal):
                item = segment.text
            else:
                item = f"$({segment.name})"
            if isinstance(item, str) and items and isinstance(items[-1], str):
                items[-1] += item
            else:
                items.append(item)
        if null:
            return ""
        at = [item for item in items if isinstance(item, int)]
        if not at:
            return "".join(items)  # type: ignore[arg-type]
        if len(items) == 1:
            return at[0]  # a lone reference is null exactly when null
        layout = "".join("%s" if isinstance(item, int)
                         else item.replace("%", "%%") for item in items)
        pick = itemgetter(*at)  # one position: the text, not a 1-tuple
        if not strict:
            return self._emit(lambda vals: layout % pick(vals))
        if len(at) == 1:
            return self._emit(lambda vals: layout % text
                              if (text := pick(vals)) != "" else "")
        return self._emit(lambda vals: "" if "" in (texts := pick(vals))
                          else layout % texts)

    def _conditional(self, entry: ConditionalEntry) -> Node:
        if entry.test_name is None:
            return self.value(entry.then_value, strict=True)
        test = self.reference(entry.test_name)
        if isinstance(test, str):
            branch = entry.then_value if test != "" else entry.else_value
            return "" if branch is None else self.value(branch)
        then = _reader(self.value(entry.then_value))
        otherwise = _reader("" if entry.else_value is None
                            else self.value(entry.else_value))
        return self._emit(lambda vals: then(vals) if vals[test] != ""
                          else otherwise(vals))

    def _list(self, entry: ListEntry) -> Node:
        separator = self.value(entry.separator)
        elements = [self.value(element.value)
                    if isinstance(element, SimpleEntry)
                    else self._conditional(element)
                    for element in entry.elements]
        if all(isinstance(node, str) for node in (separator, *elements)):
            return separator.join(  # type: ignore[union-attr]
                filter(None, elements))
        joiner = _reader(separator)
        readers = [_reader(node) for node in elements]
        return self._emit(lambda vals: joiner(vals).join(
            filter(None, [read(vals) for read in readers])))


def _reader(node: Node) -> Operation:
    return itemgetter(node) if isinstance(node, int) else (lambda vals: node)
