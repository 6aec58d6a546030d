"""The unified variable namespace of Section 4.3.

DB2 WWW Connection merges three kinds of variables into one namespace:

1. variables assigned in ``%DEFINE`` sections (Section 3.1),
2. HTML input variables arriving from the Web client through the CGI
   interface (Section 2.2) — these take **priority** over macro defaults
   ("giving the HTML input variable values from the Web client higher
   priority than the variable values defined in the macro itself"),
3. system-defined variables instantiated at run time from SQL query
   results (Section 3.2.1: ``N1``, ``V1``, ``ROW_NUM``, ...).

:class:`VariableStore` implements that namespace.  Values are stored
*unevaluated* (as :class:`~repro.core.values.ValueString` trees or
conditional/list specifications) because the paper's substitution is lazy:
"the right hand side value strings of variable definitions are not
evaluated until the latest possible moment" (Section 4.3.1).  Evaluation
lives in :mod:`repro.core.substitution`.

Priority is enforced at *assignment* time: names set from the client are
"protected" and macro ``%DEFINE`` assignments to them are silently skipped
(this is exactly how ``%DEFINE`` supplies defaults for HTML input
variables).  System variables live in a separate top-priority layer that
the report generator pushes and pops around each row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.core import ast
from repro.core.values import ValueString

#: Default separator for list variables built from repeated CGI inputs
#: (Section 2.2: "multiple values for DBFIELD will be returned ...";
#: Section 3.1.3: "By default, a multiply assigned variable returned from
#: an HTML form in the QUERY_STRING is a list variable with the comma (,)
#: as the list separator").
DEFAULT_LIST_SEPARATOR = ValueString.literal(",")


@dataclass
class SimpleEntry:
    """An unevaluated simple assignment."""

    value: ValueString


@dataclass
class ConditionalEntry:
    """An unevaluated conditional assignment (all four forms)."""

    then_value: ValueString
    test_name: Optional[str] = None
    else_value: Optional[ValueString] = None


ListElement = Union[SimpleEntry, ConditionalEntry]


@dataclass
class ListEntry:
    """A list variable: separator plus accumulated (unevaluated) elements."""

    separator: ValueString = DEFAULT_LIST_SEPARATOR
    elements: list[ListElement] = field(default_factory=list)


@dataclass
class ExecEntry:
    """An executable variable declaration (Section 3.1.4).

    ``last_error`` holds the error code of the most recent execution
    ("The error code, if any, resulting from the execution is returned in
    varname. If there is no error, varname will be set to NULL"); the empty
    string is the paper's NULL.
    """

    command: ValueString
    last_error: str = ""


Entry = Union[SimpleEntry, ConditionalEntry, ListEntry, ExecEntry]


class VariableStore:
    """The run-time variable namespace of a macro invocation."""

    def __init__(self) -> None:
        self._entries: dict[str, Entry] = {}
        self._protected: set[str] = set()
        self._system: dict[str, str] = {}
        self._system_ci: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, name: str) -> Optional[Union[Entry, str]]:
        """Resolve ``name`` to its entry, or to a plain string for system
        variables.  Returns ``None`` when the name is undefined.

        System variables win over everything; the implicit column-name
        variables among them are case-insensitive (Section 3: "variable
        names are case sensitive except in certain special cases like
        implicit variables that represent database column names").
        :func:`repro.core.compiled._consult` is this order, saying which
        layer answered.
        """
        if name in self._system:
            return self._system[name]
        folded = name.lower()
        if folded in self._system_ci:
            return self._system_ci[folded]
        return self._entries.get(name)

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def names(self) -> Iterator[str]:
        """All currently defined names (system layer first)."""
        yield from self._system
        yield from self._entries

    def is_protected(self, name: str) -> bool:
        return name in self._protected

    # ------------------------------------------------------------------
    # Macro %DEFINE processing
    # ------------------------------------------------------------------

    def apply(self, statement: ast.DefineStatement) -> None:
        """Apply one define-statement in macro order."""
        if isinstance(statement, ast.SimpleAssignment):
            self.assign_simple(statement.name, statement.value)
        elif isinstance(statement, ast.ConditionalAssignment):
            self.assign_conditional(
                statement.name, statement.then_value,
                test_name=statement.test_name,
                else_value=statement.else_value)
        elif isinstance(statement, ast.ListDeclaration):
            self.declare_list(statement.name, statement.separator)
        elif isinstance(statement, ast.ExecDeclaration):
            self.declare_exec(statement.name, statement.command)
        else:  # pragma: no cover - exhaustive over the union
            raise TypeError(f"unknown define statement {statement!r}")

    def apply_section(self, section: ast.DefineSection) -> None:
        for statement in section.statements:
            self.apply(statement)

    def assign_simple(self, name: str, value: ValueString) -> None:
        """``name = "value"``: replace, or append when ``name`` is a list.

        Skipped when the client already supplied ``name`` (CGI priority).
        """
        if name in self._protected:
            return
        existing = self._entries.get(name)
        if isinstance(existing, ListEntry):
            existing.elements.append(SimpleEntry(value))
        else:
            self._entries[name] = SimpleEntry(value)

    def assign_conditional(self, name: str, then_value: ValueString, *,
                           test_name: Optional[str] = None,
                           else_value: Optional[ValueString] = None) -> None:
        """Conditional assignment; appends when ``name`` is a list variable.

        The Section 3.1.3 example relies on appending: two conditional
        assignments to ``where_list`` accumulate as two list elements.
        """
        if name in self._protected:
            return
        entry = ConditionalEntry(then_value, test_name=test_name,
                                 else_value=else_value)
        existing = self._entries.get(name)
        if isinstance(existing, ListEntry):
            existing.elements.append(entry)
        else:
            self._entries[name] = entry

    def declare_list(self, name: str, separator: ValueString) -> None:
        """``%LIST "sep" name``: declare/convert a list variable.

        A prior scalar value becomes the first element.  For a name the
        client supplied, only the separator is replaced — Section 3.1.3:
        the default comma "can be overridden using the list variable
        declaration" — because the client's *values* keep priority.
        """
        existing = self._entries.get(name)
        if isinstance(existing, ListEntry):
            existing.separator = separator
            return
        elements: list[ListElement] = []
        if isinstance(existing, (SimpleEntry, ConditionalEntry)):
            elements.append(existing)
        self._entries[name] = ListEntry(separator=separator,
                                        elements=elements)

    def declare_exec(self, name: str, command: ValueString) -> None:
        if name in self._protected:
            return
        self._entries[name] = ExecEntry(command)

    # ------------------------------------------------------------------
    # Client (CGI) input variables — Section 4.3.2
    # ------------------------------------------------------------------

    def set_client_inputs(self, pairs: list[tuple[str, str]]) -> None:
        """Install HTML input variables received from the Web client.

        Each pair is processed "as a simple assignment statement", so the
        value text is parsed for ``$(var)`` references (this is what makes
        Appendix A's hidden-variable idiom work).  A name appearing more
        than once becomes a list variable with the default comma separator.
        The names are then protected against macro ``%DEFINE`` overrides.
        """
        for name, raw_value in pairs:
            value = ValueString.parse(raw_value)
            existing = self._entries.get(name)
            if name in self._protected and existing is not None:
                if isinstance(existing, ListEntry):
                    existing.elements.append(SimpleEntry(value))
                else:
                    self._entries[name] = ListEntry(
                        separator=DEFAULT_LIST_SEPARATOR,
                        elements=[existing, SimpleEntry(value)])
            else:
                self._entries[name] = SimpleEntry(value)
                self._protected.add(name)

    # ------------------------------------------------------------------
    # System variables — Section 3.2.1
    # ------------------------------------------------------------------

    def set_system(self, name: str, value: str, *,
                   case_insensitive: bool = False) -> None:
        """Install a system variable (evaluated, literal value).

        System values never re-enter substitution: a database column value
        that happens to contain the text ``$(x)`` prints as-is rather than
        being dereferenced (deliberate hardening; see DESIGN.md).
        """
        self._system[name] = value
        if case_insensitive:
            self._system_ci[name.lower()] = value

    def set_system_many(self, exact: dict[str, str],
                        folded: dict[str, str]) -> None:
        """:meth:`set_system` for a batch, in order: ``exact`` maps every
        name, ``folded`` the lower-cased case-insensitive ones."""
        self._system.update(exact)
        self._system_ci.update(folded)

    def clear_system(self, names: list[str]) -> None:
        for name in names:
            self._system.pop(name, None)
            self._system_ci.pop(name.lower(), None)

    def system_snapshot(self) -> tuple[dict[str, str], dict[str, str]]:
        """Capture the system layer so a caller can restore it afterwards."""
        return dict(self._system), dict(self._system_ci)

    def restore_system(
            self, snapshot: tuple[dict[str, str], dict[str, str]]) -> None:
        self._system, self._system_ci = snapshot

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and the engine
    # ------------------------------------------------------------------

    def entry_kind(self, name: str) -> Optional[str]:
        entry = self.lookup(name)
        if entry is None:
            return None
        if isinstance(entry, str):
            return "system"
        return type(entry).__name__
