"""SQL report generation — Section 3.2.1 of the paper.

Once a SQL section's command has executed, its result is rendered either
through the section's ``%SQL_REPORT`` block (custom layout) or in "a
default table format if no SQL report section exists".

The custom path instantiates the paper's implicit report variables:

========== ==========================================================
``Ni``      name of the *i*-th column (1-based)
``N_col``   set if a column named *col* was retrieved (case-insensitive,
            also reachable as ``N.col`` — the paper spells it both ways)
``NLIST``   concatenation of all column names
``ROW_NUM`` current row number while fetching; total row count after
``Vi``      value of the *i*-th column of the current row
``V_col``   value of the column named *col* (case-insensitive)
``VLIST``   concatenation of all values of the current row
========== ==========================================================

``RPT_MAXROWS`` limits how many rows *print*; fetching continues so that
``ROW_NUM`` ends at the true total ("After all rows have been fetched,
ROW_NUM contains the total number of rows that result from the query,
regardless of whether all rows were printed").

``START_ROW_NUM`` (an extension the paper points at — Section 4.3 lists
"scrollable cursors" among the features the lazy-substitution machinery
enables, and the shipped successor implemented exactly this variable)
makes the report start printing at the given 1-based row, so a macro can
page through a result set with hidden-variable Next/Previous links.
Together: rows ``START_ROW_NUM .. START_ROW_NUM+RPT_MAXROWS-1`` print.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import Any, Iterator, Optional, Sequence, Union

from repro.core.ast import SqlReportBlock, SqlSection
from repro.core.compiled import NotRowPure, RenderRow, specialise_row
from repro.core.substitution import Evaluator
from repro.core.values import ValueString
from repro.core.variables import VariableStore
from repro.html.entities import escape_html
from repro.sql.cursor import value_to_text
from repro.sql.gateway import ExecutionResult
from repro.strictint import parse_decimal

#: Separator used when building ``NLIST``/``VLIST``.  The paper only says
#: the strings are "created by concatenating" names/values; a single space
#: keeps the output readable and matches the shipped system's default.
LIST_CONCAT_SEPARATOR = " "

#: Rows per emitted chunk of the compiled and default-table loops (the
#: interpreted loop stays one row per chunk: its side effects are per row).
_ROW_BLOCK = 64

#: What report and engine generators yield: text, or a buffered
#: section's pieces (text, and a row memo's UTF-8 bytes) in one list.
Chunk = Union[str, list]


class RowRenderer:
    """A pluggable result renderer — the content-negotiation hook.

    The default rendering of a SQL section is the paper's HTML pipeline
    (``%SQL_REPORT`` template or default table).  A :class:`RowRenderer`
    replaces that *presentation* while reusing the same execution and
    row-streaming machinery: :meth:`render_iter` is handed each executed
    section in macro order and yields output chunks straight off the
    live cursor, and :meth:`finish` yields any trailing chunks (a JSON
    envelope's closing brackets) once the whole macro has been walked.

    Implementations must keep the engine's observable variable state
    intact — install ``ROW_NUM``/``ROWCOUNT`` through ``generator``'s
    store as the HTML paths do — so macros that branch on those after a
    section behave identically under any renderer.
    """

    #: When set, overrides the page content type (and any macro-declared
    #: ``CONTENT_TYPE``) — e.g. ``"application/json"``.
    content_type: Optional[str] = None
    #: When true, the engine drops free-text/HTML chunks (section bodies,
    #: SHOWSQL echoes, degraded-error blocks) so only renderer output
    #: reaches the client.  Required for structured formats.
    suppress_free_text: bool = False

    def render_iter(self, section: SqlSection, result: ExecutionResult,
                    generator: "ReportGenerator") -> Iterator[str]:
        raise NotImplementedError

    def finish(self) -> Iterator[str]:
        return iter(())


class ReportGenerator:
    """Renders SQL execution results into HTML report fragments."""

    def __init__(self, store: VariableStore, evaluator: Evaluator, *,
                 escape_values: bool = False,
                 compile_templates: bool = True,
                 row_renderer: Optional[RowRenderer] = None):
        self.store = store
        self.evaluator = evaluator
        #: When set, every section renders through this
        #: :class:`RowRenderer` instead of the HTML paths below.
        self.row_renderer = row_renderer
        #: When true, column values substituted into custom ``%ROW``
        #: templates are HTML-escaped.  Off by default for fidelity — the
        #: 1996 system substituted raw values (Figure 8 relies on a raw
        #: value inside an HREF attribute) — but applications handling
        #: untrusted data should enable it (see repro.security).
        self.escape_values = escape_values
        #: When true (the default), each section's ``%ROW`` template is
        #: specialised against the variable store before its first row
        #: prints (:mod:`repro.core.compiled`); only a row that reaches an
        #: executable variable or a reference cycle keeps the interpreted
        #: loop.  False interprets every row — the ablation switch, and
        #: the oracle the specialiser is tested against bit for bit.
        self.compile_templates = compile_templates
        #: How the section being rendered produces its rows: ``compiled``,
        #: ``interpreted:exec|cycle|disabled`` or ``default-table``
        #: (``None``: no ``%ROW`` ran).  Read by the ``report.render`` span.
        self.row_path: Optional[str] = None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def render(self, section: SqlSection, result: ExecutionResult) -> str:
        """Render one executed SQL section's result."""
        return "".join(map(chunk_text, self.render_iter(section, result)))

    def render_iter(self, section: SqlSection,
                    result: ExecutionResult) -> Iterator[Chunk]:
        """Render one result as a chunk stream (header, rows, footer).

        :meth:`render` is the join of this stream.  A materialised
        result is gathered into the buffered page: its section goes up
        the chain as one chunk, the list of its pieces — text, and the
        printed rows as the UTF-8 ``bytes`` of the result's row memo
        (:meth:`_render_rows`), which the page passes on by reference.
        A spilled result's rows come a block per chunk off the live
        cursor, so a 100k-row report never exists as one string.
        """
        self.row_path = None
        if self.row_renderer is not None:
            return self.row_renderer.render_iter(section, result, self)
        chunks = (self._render_custom(section.report, result)
                  if section.report is not None
                  else self._render_default(result))
        if result.is_query and result.row_iter is None:
            return _gathered(chunks)
        return chunks  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Custom %SQL_REPORT rendering
    # ------------------------------------------------------------------

    def _render_custom(self, block: SqlReportBlock,
                       result: ExecutionResult) -> Iterator[str | bytes]:
        self._install_column_names(result)
        yield self.evaluator.evaluate(block.header)
        first, last = self._print_window()
        row_num = 0
        if block.row is not None and result.is_query:
            render_row = self._specialise_row(block.row.template, result)
            if render_row is not None:
                row_num = yield from self._render_rows(
                    render_row, result, first, last, install_last_row=True)
            else:
                for row_values in result.iter_text_rows():
                    row_num += 1
                    self._install_row(result.columns, row_values, row_num)
                    if first <= row_num <= last:
                        yield self.evaluator.evaluate(block.row.template)
        # ROW_NUM ends at the total fetched, printed or not.
        self.store.set_system("ROW_NUM", str(row_num))
        self.store.set_system("ROWCOUNT", str(
            result.row_total if result.is_query else result.rowcount))
        yield self.evaluator.evaluate(block.footer)

    def _specialise_row(self, template: ValueString,
                        result: ExecutionResult) -> Optional[RenderRow]:
        """This section's specialised row, or ``None`` to interpret."""
        if not self.compile_templates:
            self.row_path = "interpreted:disabled"
            return None
        program = getattr(self.evaluator, "program", None)
        try:
            render_row = specialise_row(
                template, result.columns, self.store,
                escape_values=self.escape_values,
                plans=program.rows if program is not None else None)
        except NotRowPure as refusal:
            self.row_path = f"interpreted:{refusal.reason}"
            return None
        self.row_path = "compiled"
        return render_row

    def _render_rows(self, render: RenderRow, result: ExecutionResult,
                     first: int, last: int, *,
                     install_last_row: bool = False
                     ) -> Iterator[str | bytes]:
        """The compiled and default-table row loop; returns the row count.

        Only rows in the print window (``first``..``last``) are rendered.
        With ``install_last_row`` the *last* fetched row is installed
        into the store exactly as the interpreted loop would have left
        it, so the footer, an error block and any later SQL section see
        the same system variables.

        A materialised result's printed rows are rendered once, to one
        UTF-8 ``bytes`` chunk kept on the result (``result.rendered``):
        a later render of the same result — a query-cache hit — by the
        same row function (the one plan object its guards reused, or the
        default table's) over the same clipped window yields those bytes
        again and renders nothing.  That output depends on nothing else:
        a plan's guards pin every store value it read, and rows and row
        numbers are the result's and the window's.
        """
        if result.row_iter is None:
            rows = result.rows
            count = len(rows)
            last = min(last, count)
            first = min(first, last + 1)
            memo = result.rendered
            if (memo is None or memo[0] is not render
                    or memo[1] != first or memo[2] != last):
                text = "".join(map(render, rows[first - 1:last],
                                   range(first, last + 1)))
                memo = result.rendered = (
                    render, first, last, text.encode("utf-8", "replace"))
            if memo[3]:
                yield memo[3]
            if install_last_row and rows:
                self._install_row(result.columns,
                                  [value_to_text(value)
                                   for value in rows[-1]], count)
            return count
        return (yield from self._live_rows(render, result, first, last,
                                           install_last_row))

    def _live_rows(self, render: RenderRow, result: ExecutionResult,
                   first: int, last: int,
                   install_last_row: bool) -> Iterator[str]:
        """:meth:`_render_rows` off a live cursor: one chunk per block.

        Rows are taken :data:`_ROW_BLOCK` at a time and the print window
        becomes a slice of the block: rows outside it are counted, never
        rendered (or even text-converted).  A cursor failing mid-fetch
        leaves a partial block, which prints before the error surfaces;
        the last row fetched is installed on that failure too.
        """
        rows = result.iter_rows()
        row_num = 0
        last_row = None
        try:
            while True:
                block: list = []
                try:
                    block.extend(islice(rows, _ROW_BLOCK))
                finally:  # ...also with what a failing cursor got to fetch
                    count = len(block)
                    low = max(first - 1 - row_num, 0)
                    high = min(last - row_num, count)
                    if low < high:
                        yield "".join(map(
                            render, block[low:high],
                            range(row_num + low + 1, row_num + high + 1)))
                    if block:
                        last_row = block[-1]
                        row_num += count
                if count < _ROW_BLOCK:
                    return row_num
        finally:
            if install_last_row and last_row is not None:
                values = [value_to_text(value) for value in last_row]
                self._install_row(result.columns, values, row_num)

    def _install_column_names(self, result: ExecutionResult) -> None:
        names = result.columns
        exact: dict[str, str] = {}
        folded: dict[str, str] = {}
        for i, name in enumerate(names, start=1):
            exact[f"N{i}"] = name
            for key in (f"N_{name}", f"N.{name}"):
                exact[key] = folded[key.lower()] = name
        exact["NLIST"] = LIST_CONCAT_SEPARATOR.join(names)
        exact["ROW_NUM"] = "0"
        self.store.set_system_many(exact, folded)

    def _install_row(self, columns: list[str], values: list[str],
                     row_num: int) -> None:
        rendered = ([escape_html(value) for value in values]
                    if self.escape_values else values)
        exact = {"ROW_NUM": str(row_num)}
        folded: dict[str, str] = {}
        for i, (name, value) in enumerate(zip(columns, rendered), start=1):
            exact[f"V{i}"] = value
            for key in (f"V_{name}", f"V.{name}"):
                exact[key] = folded[key.lower()] = value
        exact["VLIST"] = LIST_CONCAT_SEPARATOR.join(rendered)
        self.store.set_system_many(exact, folded)

    def _print_window(self) -> tuple[int, int]:
        """The first and last row numbers that print: START_ROW_NUM, and
        RPT_MAXROWS rows from there (unset: every remaining row)."""
        first = self._int_setting("START_ROW_NUM", minimum=1) or 1
        limit = self._int_setting("RPT_MAXROWS", minimum=1)
        return first, sys.maxsize if limit is None else first + limit - 1

    def _int_setting(self, name: str, *, minimum: int) -> Optional[int]:
        """An integer report setting; invalid/out-of-range means unset."""
        value = parse_decimal(self.evaluator.evaluate_name(name))
        if value is None or value < minimum:
            return None
        return value

    # ------------------------------------------------------------------
    # Default table format
    # ------------------------------------------------------------------

    def _render_default(self,
                        result: ExecutionResult) -> Iterator[str | bytes]:
        """The paper's "default table format".

        Values are always HTML-escaped here: the table markup is ours, so
        raw substitution would let data break the page structure.  For a
        non-query statement there is no table; a short confirmation line is
        produced instead (and ``ROWCOUNT`` is set for the report text).

        A spilled result's ``row_total`` is only correct after the row
        loop, so ``ROWCOUNT`` for queries is (re)installed at the end.
        """
        self.row_path = "default-table"
        if not result.is_query:
            self.store.set_system("ROWCOUNT", str(result.rowcount))
            self.store.set_system("ROW_NUM", "0")
            yield (f"<P>Statement executed successfully. "
                   f"{result.rowcount} row(s) affected.</P>\n")
            return
        self._install_column_names(result)
        head = ["<TABLE BORDER=1>\n<TR>"]
        for name in result.columns:
            head.append(f"<TH>{escape_html(name)}</TH>")
        head.append("</TR>\n")
        yield "".join(head)
        row_num = yield from self._render_rows(_default_table_row, result,
                                               *self._print_window())
        self.store.set_system("ROW_NUM", str(row_num))
        self.store.set_system("ROWCOUNT", str(result.row_total))
        yield "</TABLE>\n"


def chunk_text(chunk: Chunk) -> str:
    """A chunk as text (a row memo decoded)."""
    if chunk.__class__ is str:
        return chunk  # type: ignore[return-value]
    return "".join(piece if piece.__class__ is str else piece.decode("utf-8")
                   for piece in chunk)


def _gathered(chunks: Iterator[str | bytes]) -> Iterator[Chunk]:
    yield list(chunks)


def _default_table_row(row: Sequence[Any], _row_num: int) -> str:
    if not row:
        return "<TR></TR>\n"
    cells = "</TD><TD>".join(map(escape_html, map(value_to_text, row)))
    return f"<TR><TD>{cells}</TD></TR>\n"
