"""Typed abstract syntax tree for the DB2 WWW macro language.

A macro file (Section 3 of the paper) is a sequence of *sections*:

* ``%DEFINE`` sections (one or more) holding define-statements,
* ``%SQL`` sections (zero or more, optionally named), each containing one
  SQL command plus optional ``%SQL_REPORT`` and ``%SQL_MESSAGE`` blocks,
* at most one ``%HTML_INPUT`` section,
* at most one ``%HTML_REPORT`` section.

Free text between sections is preserved as :class:`FreeText` nodes so that
``unparse`` round-trips a macro file; the engine ignores such text, as the
original system did with comments.

Every node records the 1-based source ``line`` where it begins so errors
can point at macro source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.values import ValueString

# ---------------------------------------------------------------------------
# Define statements (Section 3.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleAssignment:
    """``varname = "value"`` — Section 3.1.1."""

    name: str
    value: ValueString
    line: int = 0
    multiline: bool = False

    def unparse(self) -> str:
        if self.multiline:
            return f"{self.name} = {{{self.value.unparse()}%}}"
        return f'{self.name} = "{self.value.unparse()}"'


@dataclass(frozen=True)
class ConditionalAssignment:
    """``varname = [testvar] ? "v1" [: "v2"]`` — Section 3.1.2.

    Covers all four syntactic forms of the paper:

    * forms (a)/(c): ``test_name`` is set; value is ``then_value`` when the
      test variable exists and is not null, else ``else_value``;
    * forms (b)/(d): ``test_name`` is ``None``; value is ``then_value`` when
      it contains no undefined/null references, else null.

    ``else_value`` of ``None`` means "null string" (forms (b)/(d) and an
    omitted else-branch).
    """

    name: str
    then_value: ValueString
    test_name: Optional[str] = None
    else_value: Optional[ValueString] = None
    line: int = 0

    def unparse(self) -> str:
        test = f"{self.test_name} " if self.test_name else ""
        text = f'{self.name} = {test}? "{self.then_value.unparse()}"'
        if self.else_value is not None:
            text += f' : "{self.else_value.unparse()}"'
        return text


@dataclass(frozen=True)
class ListDeclaration:
    """``%LIST "separator" varname`` — Section 3.1.3.

    The separator is itself a value string: "the value-separator can in
    turn contain references to other variables and hence we can have
    dynamically varying delimiters".
    """

    name: str
    separator: ValueString
    line: int = 0

    def unparse(self) -> str:
        return f'%LIST "{self.separator.unparse()}" {self.name}'


@dataclass(frozen=True)
class ExecDeclaration:
    """``varname = %EXEC "command-string"`` — Section 3.1.4."""

    name: str
    command: ValueString
    line: int = 0

    def unparse(self) -> str:
        return f'{self.name} = %EXEC "{self.command.unparse()}"'


DefineStatement = Union[
    SimpleAssignment, ConditionalAssignment, ListDeclaration, ExecDeclaration
]


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefineSection:
    """A ``%DEFINE`` statement or ``%DEFINE{ ... %}`` block."""

    statements: tuple[DefineStatement, ...]
    line: int = 0
    block: bool = True

    def unparse(self) -> str:
        if not self.block and len(self.statements) == 1:
            return f"%DEFINE {self.statements[0].unparse()}"
        body = "\n".join(s.unparse() for s in self.statements)
        return "%DEFINE{\n" + body + "\n%}"


@dataclass(frozen=True)
class RowBlock:
    """The ``%ROW{ ... %}`` block inside a SQL report (Section 3.2.1)."""

    template: ValueString
    line: int = 0

    def unparse(self) -> str:
        return "%ROW{" + self.template.unparse() + "%}"


@dataclass(frozen=True)
class SqlReportBlock:
    """``%SQL_REPORT{ header %ROW{...%} footer %}`` — Section 3.2.1.

    ``header`` is the HTML preceding the ``%ROW`` block (printed once before
    the first row), ``footer`` the HTML following it (printed once after all
    rows).  ``row`` may be absent, in which case only header/footer print.
    """

    header: ValueString
    row: Optional[RowBlock]
    footer: ValueString
    line: int = 0

    def unparse(self) -> str:
        parts = ["%SQL_REPORT{", self.header.unparse()]
        if self.row is not None:
            parts.append(self.row.unparse())
        parts.append(self.footer.unparse())
        parts.append("%}")
        return "".join(parts)


@dataclass(frozen=True)
class MessageRule:
    """One rule of a ``%SQL_MESSAGE`` block.

    ``code`` is an integer SQLCODE, a five-character SQLSTATE string, or the
    string ``"default"``.  ``action`` is ``"continue"`` or ``"exit"`` and
    controls whether macro processing resumes after the message is printed
    (our concretisation of the Developer's-Guide behaviour the paper defers
    to; see DESIGN.md).
    """

    code: str
    text: ValueString
    action: str = "exit"
    line: int = 0

    def unparse(self) -> str:
        return f'{self.code} : "{self.text.unparse()}" : {self.action}'


@dataclass(frozen=True)
class SqlMessageBlock:
    """``%SQL_MESSAGE{ ... %}`` — Section 3.2.2."""

    rules: tuple[MessageRule, ...]
    line: int = 0

    def unparse(self) -> str:
        body = "\n".join(rule.unparse() for rule in self.rules)
        return "%SQL_MESSAGE{\n" + body + "\n%}"


@dataclass(frozen=True)
class SqlSection:
    """A ``%SQL[(name)]{ command [report] [message] %}`` section."""

    command: ValueString
    name: Optional[str] = None
    report: Optional[SqlReportBlock] = None
    message: Optional[SqlMessageBlock] = None
    line: int = 0

    def unparse(self) -> str:
        head = f"%SQL({self.name}){{" if self.name else "%SQL{"
        parts = [head, self.command.unparse()]
        if self.report is not None:
            parts.append(self.report.unparse())
        if self.message is not None:
            parts.append(self.message.unparse())
        parts.append("%}")
        return "".join(parts)


@dataclass(frozen=True)
class ExecSqlDirective:
    """An ``%EXEC_SQL`` or ``%EXEC_SQL(name)`` directive (Section 3.4).

    ``name`` is ``None`` for the unnamed form (execute every unnamed SQL
    section in macro order).  A named form's name is a value string because
    "the SQL section name ... may be stored in a variable that gets
    dereferenced at run time".
    """

    name: Optional[ValueString] = None
    line: int = 0

    def unparse(self) -> str:
        if self.name is None:
            return "%EXEC_SQL"
        return f"%EXEC_SQL({self.name.unparse()})"


#: HTML sections interleave raw HTML (value strings) with directives.
HtmlPiece = Union[ValueString, ExecSqlDirective]


@dataclass(frozen=True)
class HtmlInputSection:
    """``%HTML_INPUT{ ... %}`` — Section 3.3.

    Input sections contain no ``%EXEC_SQL`` directives; the body is a single
    value string.
    """

    body: ValueString
    line: int = 0

    def unparse(self) -> str:
        return "%HTML_INPUT{" + self.body.unparse() + "%}"


@dataclass(frozen=True)
class HtmlReportSection:
    """``%HTML_REPORT{ ... %}`` — Section 3.4."""

    pieces: tuple[HtmlPiece, ...]
    line: int = 0

    def unparse(self) -> str:
        parts = ["%HTML_REPORT{"]
        for piece in self.pieces:
            parts.append(piece.unparse())
        parts.append("%}")
        return "".join(parts)

    def exec_sql_directives(self) -> list[ExecSqlDirective]:
        return [p for p in self.pieces if isinstance(p, ExecSqlDirective)]


@dataclass(frozen=True)
class IncludeSection:
    """``%INCLUDE "name"`` — composition of macro files.

    The paper's system stored one application per macro file; its shipped
    successor added file inclusion so applications could share headers,
    footers and common DEFINE blocks.  The engine never sees this node:
    :class:`repro.core.macrofile.MacroLibrary` expands includes at load
    time (with cycle detection), splicing the included file's sections in
    place.
    """

    name: str
    line: int = 0

    def unparse(self) -> str:
        return f'%INCLUDE "{self.name}"'


@dataclass(frozen=True)
class CommentBlock:
    """``%{ ... %}`` — an explicit comment block.

    The shipped system supported block comments so whole sections could
    be commented out during development; the engine ignores them
    completely (a ``%SQL`` inside a comment never registers).  Comments
    do not nest: the first ``%}`` ends the comment, so commenting out a
    block section leaves its trailing ``%}`` as inert free text.
    """

    text: str
    line: int = 0

    def unparse(self) -> str:
        return "%{" + self.text + "%}"


@dataclass(frozen=True)
class FreeText:
    """Text outside any section; ignored by the engine, kept for round-trip."""

    text: str
    line: int = 0

    def unparse(self) -> str:
        return self.text


Section = Union[
    DefineSection, SqlSection, HtmlInputSection, HtmlReportSection,
    IncludeSection, CommentBlock, FreeText
]


@dataclass
class MacroFile:
    """A fully parsed macro file."""

    sections: list[Section] = field(default_factory=list)
    source: Optional[str] = None
    #: The compiled :class:`~repro.core.program.MacroProgram`, attached
    #: when a library (re)loads the macro or on its first execution.
    program: Optional[object] = field(default=None, repr=False,
                                      compare=False)

    # -- convenience accessors -----------------------------------------

    @property
    def html_input(self) -> Optional[HtmlInputSection]:
        for section in self.sections:
            if isinstance(section, HtmlInputSection):
                return section
        return None

    @property
    def html_report(self) -> Optional[HtmlReportSection]:
        for section in self.sections:
            if isinstance(section, HtmlReportSection):
                return section
        return None

    def sql_sections(self) -> list[SqlSection]:
        return [s for s in self.sections if isinstance(s, SqlSection)]

    def unnamed_sql_sections(self) -> list[SqlSection]:
        return [s for s in self.sql_sections() if s.name is None]

    def named_sql_section(self, name: str) -> Optional[SqlSection]:
        for section in self.sql_sections():
            if section.name == name:
                return section
        return None

    def includes(self) -> list["IncludeSection"]:
        return [s for s in self.sections if isinstance(s, IncludeSection)]

    def unparse(self) -> str:
        """Regenerate macro source text from the tree."""
        return "\n".join(section.unparse() for section in self.sections)
