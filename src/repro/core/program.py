"""A macro compiled once, at load: what every request used to re-derive.

:class:`MacroProgram` is built when :class:`~repro.core.macrofile.
MacroLibrary` (re)loads a macro and shared by every request: the walk and
the SQL sections ``%EXEC_SQL`` can name (Section 3.4); per ``%DEFINE``
section, the immutable entry table the store holds after it when the
client supplied nothing — a request overlays its client inputs (CGI
priority, Section 4.3.2), replays ``%LIST``, the one statement that still
acts on them (Section 3.1.3), and copies each executable variable (its
error code is request state); and per template, the plans
:mod:`repro.core.compiled` built, with the guards under which they hold.
``compiled_reports=False`` runs the interpreter alone: the oracle.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core import ast
from repro.core.compiled import (
    holds,
    plain_text,
    promote,
    remember,
    specialise_site,
)
from repro.core.substitution import Evaluator
from repro.core.values import ValueString
from repro.core.variables import (
    ExecEntry,
    ListEntry,
    SimpleEntry,
    VariableStore,
)

__all__ = ["CompiledEvaluator", "MacroProgram", "program_of"]

_WALKED = (ast.HtmlInputSection, ast.HtmlReportSection, ast.IncludeSection)


class MacroProgram:
    """The load-time artefact of one (include-expanded) macro."""

    def __init__(self, macro: ast.MacroFile):
        self.unnamed_sql = tuple(macro.unnamed_sql_sections())
        self.named_sql = {section.name: section
                          for section in macro.sql_sections()
                          if section.name is not None}
        #: ``(section, entry table, ((name, separator) of each %LIST),
        #: executable variables' names)`` per walked section, in order.
        self.steps: list[tuple[Any, Optional[dict], tuple, tuple]] = []
        store = VariableStore()
        for section in macro.sections:
            table, lists, execs = None, (), ()
            if isinstance(section, ast.DefineSection):
                store.apply_section(section)
                table = {name: ListEntry(entry.separator, list(entry.elements))
                         if isinstance(entry, ListEntry) else entry
                         for name, entry in store._entries.items()}
                lists = tuple((statement.name, statement.separator)
                              for statement in section.statements
                              if isinstance(statement, ast.ListDeclaration))
                execs = tuple(name for name, entry in table.items()
                              if isinstance(entry, ExecEntry))
            elif not isinstance(section, _WALKED):
                continue
            self.steps.append((section, table, lists, execs))
        #: plans by template identity (see :mod:`repro.core.compiled`)
        self.sites: dict[int, tuple] = {}
        self.rows: dict[int, tuple] = {}


def program_of(macro: ast.MacroFile) -> MacroProgram:
    """``macro``'s program, compiled on first use and kept with it."""
    program = macro.program
    if program is None:
        program = macro.program = MacroProgram(macro)
    return program


class CompiledEvaluator:
    """The evaluator of one compiled run: the program's plans first, the
    interpreter behind every refusal (and for single names, which it
    already answers in a lookup or two)."""

    def __init__(self, program: MacroProgram, store: VariableStore,
                 interpreter: Evaluator):
        self.program = program
        self.store = store
        self.interpreter = interpreter
        self.evaluate_name = interpreter.evaluate_name
        #: this request's client entries, current as of the last %DEFINE
        self.client = dict(store._entries)
        #: ...and the text of each that evaluates without the store
        self.texts = {name: text for name, entry in self.client.items()
                      if (text := entry.value.text if type(entry) is
                          SimpleEntry else plain_text(entry)) is not None}
        #: this request's copies of the shared executable variables
        self.execs: dict[int, ExecEntry] = {}

    def define(self, table: dict, lists: tuple, execs: tuple) -> None:
        """The store as the interpreter leaves it after one %DEFINE."""
        store = self.store
        for name, separator in lists:
            if name in self.client:
                store.declare_list(name, separator)
                entry = self.client[name] = store._entries[name]
                self.texts.pop(name, None)
                if (text := plain_text(entry)) is not None:
                    self.texts[name] = text
        entries = dict(table)
        for name in execs:
            shared = table[name]
            entries[name] = self.execs.setdefault(
                id(shared), ExecEntry(shared.command))
        entries.update(self.client)
        store._entries = entries

    def evaluate(self, value: ValueString) -> str:
        if value.text is not None:
            return value.text
        sites, key = self.program.sites, id(value)
        candidates = sites.get(key, ())
        for index, plan in enumerate(candidates):
            holes = holds(plan[0], self.store, self.texts, True)
            if holes is not None:
                if index:
                    promote(sites, key, candidates, index)
                break
        else:
            plan = specialise_site(value, self.store, self.texts)
            remember(sites, key, plan)
            holes = holds(plan[0], self.store, self.texts, True)
        if plan[1] is None:
            return self.interpreter.evaluate(value)
        return plan[1](holes, 0)
