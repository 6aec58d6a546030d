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
and before the first row prints.  What is left — indexed reads, a few
``!= ""`` tests, string joins — is emitted as *source*: one straight-line
``render(row, row_num)`` (a text conversion per referenced column, one
assignment per derived value in dependency order, a ``return``), compiled
once per plan **shape** and kept in the bounded memo :data:`_FACTORIES`.

**No data in source.**  Generated source holds positions and fixed
syntax only; every piece of macro, client or database text, template
literals included, reaches the code as a ``k<j>`` factory argument.  So
equal shapes are equal code whatever the request said, the memo key
never needs invalidating, the ``exec`` is safe, and no request can mint a
program from its text (``tests/core/test_compiled_codegen.py`` holds the
grammar).  The plan itself is rebuilt per section — it depends on the
store — which on a memo hit costs about one interpreted row (the
Appendix A row: ~8 us against ~7 us); a new shape's source is assembled
and compiled, ~150 us, once per process.

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
"""

from __future__ import annotations

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

#: A specialised subtree: text fixed for the whole section, or the number
#: ``n`` of the generated local ``v<n>`` holding its per-row text — column
#: texts at their column indexes, ``ROW_NUM`` next, then one local per
#: operation, each reading only locals before its own.
Node = Union[str, int]
#: The specialised template: ``(row, row_num) -> text``.
RenderRow = Callable[[Sequence[Any], int], str]

#: Operation kinds.  An operation is ``(kind, codes)``; a code ``>= 0``
#: names the local ``v<code>``, a code ``< 0`` the constant ``k<~code>``.
_CONCAT, _STRICT, _IF, _LIST, _VLIST = range(5)

#: Compiled factories (``.source`` holds their text) by plan shape:
#: ``(column count, escape_values, constant count, body local,
#: operations)``.  Plain ``dict`` get/set under the GIL — two threads
#: compiling one shape is benign — and cleared when full: all of Appendix
#: A's traffic is two shapes, but a client's ``$(V1)$(V1)…`` can mint more.
_FACTORIES: dict[tuple, Callable[..., RenderRow]] = {}
_FACTORY_LIMIT = 256


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
    shape = (len(columns), escape_values, len(specialiser.constants), body,
             tuple(specialiser.operations))
    factory = _FACTORIES.get(shape)
    if factory is None:
        factory = _compile(shape)
    return factory(*specialiser.constants, value_to_text, escape_html)


class _Specialiser:
    """One section's partial evaluation state."""

    def __init__(self, columns: Sequence[str], store: VariableStore):
        self.store = store
        self.column_count = len(columns)
        # What _install_row is about to write, in its order, so a later
        # column overwrites an earlier one of the same (folded) name.
        self.exact: dict[str, int] = {"ROW_NUM": len(columns)}
        self.folded: dict[str, int] = {}
        for index, name in enumerate(columns):
            self.exact[f"V{index + 1}"] = index
            for key in (f"V_{name}", f"V.{name}"):
                self.exact[key] = index
                self.folded[key.lower()] = index
        self.exact["VLIST"] = -1  # no local of its own: an operation
        #: every text the generated code is handed, in ``k<j>`` order
        self.constants: list[str] = []
        self.operations: list[tuple[int, tuple[int, ...]]] = []
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
            if slot < 0:
                return self._emit(_VLIST, self._code(LIST_CONCAT_SEPARATOR))
            return slot
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

    def _emit(self, kind: int, *codes: int) -> int:
        self.operations.append((kind, codes))
        return self.column_count + len(self.operations)

    def _code(self, node: Node) -> int:
        """``node`` as an operand: its local, or a new constant's code."""
        if isinstance(node, int):
            return node
        self.constants.append(node)
        return -len(self.constants)

    def value(self, value: ValueString, *, strict: bool = False) -> Node:
        """A value string; ``strict`` is conditional forms (b)/(d).

        Every reference is visited even once the result is known to be
        null, because the interpreter evaluates them all (and would run
        an executable variable or meet a cycle among them).
        """
        codes: list[int] = []
        text = ""  # constant text since the last per-row operand
        null = False
        for segment in value.segments:
            if isinstance(segment, Reference):
                item = self.reference(segment.name)
                if isinstance(item, int):
                    if text:  # _code() inlined: this loop is the plan's cost
                        self.constants.append(text)
                        codes.append(-len(self.constants))
                        text = ""
                    codes.append(item)
                    continue
                null = null or (strict and item == "")
            elif isinstance(segment, Literal):
                item = segment.text
            else:
                item = f"$({segment.name})"
            text += item
        if null:
            return ""
        if not codes:
            return text
        if text:
            codes.append(self._code(text))
        if len(codes) == 1:
            return codes[0]  # a lone reference is null exactly when null
        return self._emit(_STRICT if strict else _CONCAT, *codes)

    def _conditional(self, entry: ConditionalEntry) -> Node:
        if entry.test_name is None:
            return self.value(entry.then_value, strict=True)
        test = self.reference(entry.test_name)
        if isinstance(test, str):
            branch = entry.then_value if test != "" else entry.else_value
            return "" if branch is None else self.value(branch)
        then = self._code(self.value(entry.then_value))
        otherwise = self._code("" if entry.else_value is None
                               else self.value(entry.else_value))
        return self._emit(_IF, test, then, otherwise)

    def _list(self, entry: ListEntry) -> Node:
        separator = self.value(entry.separator)
        elements = [self.value(element.value)
                    if isinstance(element, SimpleEntry)
                    else self._conditional(element)
                    for element in entry.elements]
        if all(isinstance(node, str) for node in (separator, *elements)):
            return separator.join(  # type: ignore[union-attr]
                filter(None, elements))
        return self._emit(_LIST, self._code(separator),
                          *[self._code(node) for node in elements])


def _compile(shape: tuple) -> Callable[..., RenderRow]:
    """Compile (and memoise) the factory for one plan shape."""
    namespace: dict[str, Any] = {}
    source = _source(shape)
    exec(compile(source, "<%ROW plan>", "exec"), namespace)  # noqa: S102
    factory = namespace["factory"]
    factory.source = source
    if len(_FACTORIES) >= _FACTORY_LIMIT:
        _FACTORIES.clear()
    _FACTORIES[shape] = factory
    return factory


def _source(shape: tuple) -> str:
    """The factory's source: locals, constants' *names*, fixed syntax."""
    column_count, escape_values, constant_count, body, operations = shape
    used = {body}
    derived = []
    for kind, codes in operations:
        used.update(codes)
        names = [f"v{code}" if code >= 0 else f"k{~code}" for code in codes]
        if kind == _VLIST:
            used.update(range(column_count))
            columns = "".join(f"v{index}, " for index in range(column_count))
            derived.append(f"{names[0]}.join(({columns}))")
        elif kind == _IF:
            test, then, otherwise = names
            derived.append(f'{then} if {test} != "" else {otherwise}')
        elif kind == _LIST:
            elements = "".join(f"{name}, " for name in names[1:])
            derived.append(f"{names[0]}.join(filter(None, ({elements})))")
        else:
            joined = 'f"' + "".join(f"{{{name}}}" for name in names) + '"'
            if kind == _STRICT:  # null when any direct reference is null
                tests = " or ".join(
                    f'{name} == ""' for name in dict.fromkeys(names)
                    if name[0] == "v")
                joined = f'"" if {tests} else {joined}'
            derived.append(joined)
    lines = []
    for index in range(column_count):
        if index in used:  # only referenced columns are converted
            lines += [f"v{index} = row[{index}]",
                      f"if type(v{index}) is not str:",
                      f"    v{index} = text(v{index})"]
            if escape_values:
                lines.append(f"v{index} = escape(v{index})")
    if column_count in used:
        lines.append(f"v{column_count} = str(row_num)")
    for number, expression in enumerate(derived, column_count + 1):
        lines.append(f"v{number} = {expression}")
    lines.append(f"return v{body}")
    parameters = "".join(f"k{index}, " for index in range(constant_count))
    return (f"def factory({parameters}text, escape):\n"
            "    def render(row, row_num):\n"
            + "".join(f"        {line}\n" for line in lines)
            + "    return render\n")
