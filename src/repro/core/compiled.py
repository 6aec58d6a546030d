"""Specialised templates — the report generator's hot path, and the
compiled half of :mod:`repro.core.program`.

Section 4.3.1's lazy substitution fixes *when* a value string is
dereferenced, not that it be re-interpreted for each of 1 000 rows (one
``set_system`` per column spelling, then a walk of the template and every
``%DEFINE`` it reaches through the :class:`Evaluator`, per row).
:func:`specialise_row` partially evaluates a ``%ROW`` template against the
live :class:`~repro.core.variables.VariableStore` once per section, after
the column names are installed; :func:`specialise_site` does the same for
any other template (``%SQL`` bodies, page text, headers), whose per-call
inputs — **holes** — are the system values and plain client input texts
it reaches.  What is left — indexed reads, ``!= ""`` tests, joins — is
emitted as straight-line source, ``render(row, row_num)``, compiled once
per plan **shape** and kept in the bounded LRU memo :data:`_FACTORIES`.

**No data in source.**  Generated source holds positions and fixed
syntax only; every macro, client or database text reaches the code as a
``k<j>`` factory argument.  So equal shapes are equal code, the memo key
never needs invalidating, the ``exec`` is safe, and no request can mint
a program from its text (``tests/core/test_compiled_codegen.py``).

**Guards.**  The specialiser consults the store only through
:func:`_consult` — the one resolver rule, :meth:`VariableStore.lookup`'s
order saying which layer answered — and records every answer.  A plan is
a function of those answers alone, so :func:`holds` lets the program
reuse it for any later store that answers the same: a ``%DEFINE`` entry
by identity (the program's tables are shared and immutable), a row
plan's section constants by value, a site's holes by kind.

Fidelity rules (the interpreter is the oracle, bit for bit):

* A name ``_install_row`` is about to install (``Vi``, ``V_col``/
  ``V.col``, ``VLIST``, ``ROW_NUM``) is a **row slot** when the exact
  system layer would return it; any other exact system variable (``N*``,
  ``ROWCOUNT``, a stale ``V5`` or exact-spelling ``V_qty`` from an
  earlier section) is a **constant**; then the case-insensitive layer
  (row slot, then constant); then a client input; then the ``%DEFINE``
  entry, which is **inlined**.  Undefined is the null string.
* Inlining follows :class:`Evaluator`: forms (a)/(c) test for "not
  null" and visit only the taken branch when the test is constant; forms
  (b)/(d) are null when any *direct* reference is null; a list joins its
  non-null elements with its evaluated separator; ``$$(x)`` is ``$(x)``.
  Every subtree that reaches no slot or hole folds to a string, once.
* :class:`NotRowPure` keeps the interpreter for a reachable executable
  variable (a side effect per evaluation, its error code feeds later
  tests), a reachable cycle (the interpreter raises where it meets it)
  and, in a site, a client value that references variables (its text is
  not known until evaluated).  A row plan that inlined a client entry is
  built per request, never memoised.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Optional, Sequence, Union

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

__all__ = ["NotRowPure", "specialise_row", "specialise_site"]

#: Must match :data:`repro.core.report.LIST_CONCAT_SEPARATOR`; imported
#: lazily there to avoid a cycle, asserted equal in the test-suite.
LIST_CONCAT_SEPARATOR = " "

#: A specialised subtree: text fixed for the whole section, or the number
#: ``n`` of the generated local ``v<n>`` holding its per-row text — column
#: texts at their column indexes, ``ROW_NUM`` next, then one local per
#: operation (a site's holes among them), each reading only earlier ones.
Node = Union[str, int]
#: The specialised template: ``(row, row_num) -> text``.
RenderRow = Callable[[Sequence[Any], int], str]

#: Operation kinds.  An operation is ``(kind, codes)``; a code ``>= 0``
#: names the local ``v<code>``, a code ``< 0`` the constant ``k<~code>``
#: (``_HOLE``'s one code is the index of a site's hole in ``row``).
_CONCAT, _STRICT, _IF, _LIST, _VLIST, _HOLE = range(6)

#: Compiled factories (``.source`` holds their text) by plan shape:
#: ``(column count, escape_values, constant count, body local,
#: operations)``, least recently used first — a client minting shapes
#: (``$(V1)$(V1)…``) evicts the coldest, never the hot ones.  Each use is
#: one C-level call, atomic under the GIL.
_FACTORIES: "OrderedDict[tuple, Callable[..., RenderRow]]" = OrderedDict()
_FACTORY_LIMIT = 256

#: Plans a program keeps per template (least recently used evicted).
PLANS_PER_TEMPLATE = 16

#: Where :func:`_consult` found a name, in ``lookup``'s order: a client
#: input is ``_TEXT`` when :func:`plain_text` has it, else ``_OPAQUE``; an
#: executable variable (the request's own entry) answers with its command.
#: ``_UNSHADOWED`` guards a folded row slot ("no exact system variable").
_SYSTEM, _FOLDED, _TEXT, _ENTRY, _EXEC, _OPAQUE, _UNSHADOWED = range(7)
#: A guard: ``(name, name.lower(), kind, expected)``.
Guard = tuple[str, str, int, Any]
_NO_TEXTS: dict[str, str] = {}


class NotRowPure(Exception):
    """The template must stay interpreted; ``reason`` says why
    (``"exec"``, ``"cycle"`` or ``"client"``)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _consult(store: VariableStore, texts: dict[str, str], name: str,
             folded: str) -> tuple[int, Any]:
    """The one resolver rule: ``store.lookup(name)``, saying which layer
    answered (``texts`` holds the request's plain client input texts)."""
    system = store._system
    if name in system:
        return _SYSTEM, system[name]
    found = store._system_ci.get(folded)
    if found is not None:
        return _FOLDED, found
    found = store._entries.get(name)
    if found is not None and name in store._protected:
        text = texts.get(name)
        return (_OPAQUE, found) if text is None else (_TEXT, text)
    if type(found) is ExecEntry:
        return _EXEC, found.command
    return _ENTRY, found


def holds(guards: Sequence[Guard], store: VariableStore,
          texts: dict[str, str], holes: bool) -> Optional[list]:
    """``None`` unless ``store`` answers every guard as recorded, else a
    site plan's hole texts in order (a row plan's match by value)."""
    found_holes = []
    for name, folded, kind, expected in guards:
        found_kind, found = _consult(store, texts, name, folded)
        if found_kind != kind:
            if kind == _UNSHADOWED and found_kind != _SYSTEM:
                continue
            return None
        if kind == _ENTRY or kind == _EXEC:
            if found is not expected:
                return None
        elif kind == _OPAQUE:
            continue
        elif holes:
            found_holes.append(found)
        elif found != expected:
            return None
    return found_holes


def plain_text(entry: Any) -> Optional[str]:
    """A client entry's text when evaluating it needs no store (no
    ``$(x)`` in its values or list separator), else ``None``."""
    if type(entry) is SimpleEntry:
        return entry.value.text
    if type(entry) is not ListEntry or entry.separator.text is None:
        return None
    parts = []
    for element in entry.elements:
        text = element.value.text if type(element) is SimpleEntry else None
        if text is None:
            return None
        if text:
            parts.append(text)
    return entry.separator.text.join(parts)


def remember(plans: dict, key: Any, plan: Any) -> None:
    """``plan`` becomes the most recent of ``plans[key]`` (LRU; a racing
    update may drop a plan, which is then rebuilt when next needed)."""
    plans[key] = (plan,) + plans.get(key, ())[:PLANS_PER_TEMPLATE - 1]


def promote(plans: dict, key: Any, candidates: tuple, index: int) -> None:
    """``candidates[index]`` was reused: it becomes the most recent."""
    plans[key] = ((candidates[index],) + candidates[:index]
                  + candidates[index + 1:])


def specialise_row(template: ValueString, columns: Sequence[str],
                   store: VariableStore, *, escape_values: bool = False,
                   plans: Optional[dict] = None) -> RenderRow:
    """Specialise ``template`` for one section's row loop from the store
    as it starts, or reuse a plan from ``plans`` whose guards hold;
    :class:`NotRowPure` when it reaches an exec or a cycle."""
    key = id(template)
    candidates = plans.get(key, ()) if plans is not None else ()
    for index, plan in enumerate(candidates):
        if (plan[0] == columns and plan[1] is escape_values
                and holds(plan[2], store, _NO_TEXTS, False) is not None):
            if index:
                promote(plans, key, candidates, index)  # type: ignore
            return plan[3]
    specialiser = _Specialiser(columns, store, _NO_TEXTS)
    render = specialiser.render(specialiser.value(template), escape_values)
    guards = tuple(specialiser.guards)
    if plans is not None and all(guard[2] != _OPAQUE for guard in guards):
        # (a plan that inlined a client's entry serves that request only)
        remember(plans, key, (list(columns), escape_values, guards, render))
    return render


def specialise_site(value: ValueString, store: VariableStore,
                    texts: dict[str, str]
                    ) -> tuple[tuple[Guard, ...], Optional[RenderRow]]:
    """Specialise a template evaluated once, where it stands: its guards
    and ``render(holes, 0)`` (``holes`` as :func:`holds` collects them),
    or ``None`` when the interpreter must evaluate it."""
    specialiser = _Specialiser((), store, texts, holes=True)
    try:
        render = specialiser.render(specialiser.value(value), False)
    except NotRowPure:
        render = None
    return tuple(specialiser.guards), render


class _Specialiser:
    """One template's partial evaluation state."""

    def __init__(self, columns: Sequence[str], store: VariableStore,
                 texts: dict[str, str], *, holes: bool = False):
        self.store = store
        self.texts = texts
        #: a site plan: system values and plain client texts are holes
        self.holes = holes
        self.hole_count = 0
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
        if holes:  # no row: every system variable is a hole
            self.exact.clear()
        #: every text the generated code is handed, in ``k<j>`` order
        self.constants: list[str] = []
        self.operations: list[tuple[int, tuple[int, ...]]] = []
        #: what the store answered, in the order it was asked
        self.guards: list[Guard] = []
        self._nodes: dict[str, Node] = {}
        self._inlining: set[str] = set()

    def reference(self, name: str) -> Node:
        """What ``$(name)`` evaluates to while the plan runs."""
        node = self._nodes.get(name)
        if node is None:
            node = self._nodes[name] = self._resolve(name)
        return node

    def _resolve(self, name: str) -> Node:
        slot = self.exact.get(name)
        if slot is None:
            folded = name.lower()
            kind, entry = _consult(self.store, self.texts, name, folded)
            self.guards.append((name, folded, kind, entry))
            if kind != _SYSTEM:
                slot = self.folded.get(folded)
                if slot is not None:
                    self.guards[-1] = (name, folded, _UNSHADOWED, None)
        if slot is not None:
            if slot < 0:
                return self._emit(_VLIST, self._code(LIST_CONCAT_SEPARATOR))
            return slot
        if kind < _ENTRY:  # a system value or a plain client text
            if not self.holes:
                return entry
            self.guards[-1] = (name, folded, kind, None)
            self.hole_count += 1
            return self._emit(_HOLE, self.hole_count - 1)
        if kind == _OPAQUE:
            self.guards[-1] = (name, folded, kind, None)
            if self.holes:
                raise NotRowPure("client")
        if kind == _EXEC:
            raise NotRowPure("exec")
        if entry is None:
            return ""
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

    def render(self, body: Node, escape_values: bool) -> RenderRow:
        """The plan as a function: ``render(row, row_num) -> text``."""
        if isinstance(body, str):
            return lambda row, row_num: body
        shape = (self.column_count, escape_values, len(self.constants),
                 body, tuple(self.operations))
        factory = _FACTORIES.get(shape)
        if factory is None:
            factory = _compile(shape)
        else:
            try:
                _FACTORIES.move_to_end(shape)
            except KeyError:  # evicted by another thread meanwhile
                pass
        return factory(*self.constants, value_to_text, escape_html)


def _compile(shape: tuple) -> Callable[..., RenderRow]:
    """Compile (and memoise) the factory for one plan shape."""
    namespace: dict[str, Any] = {}
    source = _source(shape)
    exec(compile(source, "<%ROW plan>", "exec"), namespace)  # noqa: S102
    factory = namespace["factory"]
    factory.source = source
    while len(_FACTORIES) >= _FACTORY_LIMIT:
        try:
            _FACTORIES.popitem(last=False)
        except KeyError:  # emptied by another thread meanwhile
            break
    _FACTORIES[shape] = factory
    return factory


def _source(shape: tuple) -> str:
    """The factory's source: locals, constants' *names*, fixed syntax."""
    column_count, escape_values, constant_count, body, operations = shape
    used = {body}
    derived = []
    for kind, codes in operations:
        if kind == _HOLE:
            derived.append(f"row[{codes[0]}]")
            continue
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
