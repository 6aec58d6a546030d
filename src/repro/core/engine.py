"""The DB2 WWW Connection run-time engine — Section 4 of the paper.

:class:`MacroEngine` processes a parsed macro in one of the two modes of
Figure 6:

* **input mode** (``{cmd} = "input"``): "processes only the variable
  definition sections (DEFINE sections) and HTML input section of the
  macro ... The HTML report section and any SQL sections ... are
  completely ignored" (Section 4.1);
* **report mode** (``{cmd} = "report"``): like input mode "except the HTML
  report section gets processed ... In addition ... processing execute SQL
  statements" (Section 4.2).

Processing is strictly top-to-bottom ("macros are processed from beginning
to end"), which yields the paper's positional-visibility behaviour: a
variable defined *after* the HTML section being emitted is still undefined
(null) while that section prints — the Section 4.3.1 lazy-evaluation
example, and the reason Appendix A can hide ``hidden_a``/``hidden_b`` from
the input form.
"""

from __future__ import annotations

import enum
import time
import weakref
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Optional, Sequence

from repro.blocking import BLOCKING, WouldBlock
from repro.core import ast
from repro.core.messages import resolve_message
from repro.core.program import CompiledEvaluator, program_of
from repro.core.report import Chunk, ReportGenerator, RowRenderer
from repro.core.substitution import Evaluator
from repro.core.variables import VariableStore
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    MacroExecutionError,
    MissingSectionError,
    PoolExhaustedError,
    ReadOnlySqlError,
    SQLError,
    UnknownSqlSectionError,
    is_transient,
)
from repro.html.entities import escape_html
from repro.obs.trace import ATTRS, END, START, TRACER
from repro.resilience.deadline import Deadline
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.sql.digest import statement_digest
from repro.sql.dialect import is_cacheable_query
from repro.sql.gateway import DatabaseRegistry, MacroSqlSession
from repro.sql.querycache import QueryResultCache
from repro.sql.transactions import TransactionMode


class MacroCommand(enum.Enum):
    """The ``{cmd}`` component of a DB2WWW URL (Section 4)."""

    INPUT = "input"
    REPORT = "report"

    @classmethod
    def parse(cls, text: str) -> "MacroCommand":
        command = _COMMANDS.get(text.strip().lower())
        if command is None:
            raise MacroExecutionError(
                f"unknown command {text!r}: expected 'input' or 'report'")
        return command


_COMMANDS = {command.value: command for command in MacroCommand}


@dataclass
class EngineConfig:
    """Tunable behaviour of the engine.

    ``transaction_mode``
        Section 5's auto-commit vs single-transaction grouping.
    ``escape_report_values``
        HTML-escape column values substituted into custom ``%ROW``
        templates (hardening; off by default for paper fidelity).
    ``default_database``
        Database used when a macro defines no ``DATABASE`` variable.
    ``show_sql_variable``
        Name of the flag variable that, when non-null, echoes each SQL
        statement into the report (the ``SHOWSQL`` radio button of the
        paper's Figures 2 and 7).
    ``compiled_reports``
        Run the macro's load-time program (:mod:`repro.core.program`:
        templates and ``%ROW`` rows specialised and reused across
        requests; one that reaches an executable variable or a cycle
        stays interpreted).  ``False`` interprets everything: the
        ablation switch and the test oracle.
    ``query_cache``
        A shared :class:`~repro.sql.querycache.QueryResultCache`; when
        set, identical SELECTs are served from cache until a write to
        the same database bumps its generation.  ``None`` (default)
        disables result reuse.  Share one instance across engines to
        share its budget — cache stamps embed each write counter's
        identity, so engines with *separate* registries stay correct
        even when database names collide (they contend for the same
        cache keys, though, so engines meant to share results should
        share a :class:`~repro.sql.gateway.DatabaseRegistry`).
        Bypassed automatically in ``SINGLE`` transaction mode.
    ``retry_policy``
        When set, transient failures of idempotent reads (and of
        connection establishment) are retried with exponential backoff
        and jitter (see :mod:`repro.resilience.retry`).  ``None``
        (default) keeps the paper's fail-on-first-error behaviour.
    ``request_deadline``
        Per-invocation time budget in seconds; the retry loop, pool
        acquisition and statement dispatch all honour it, surfacing
        :class:`~repro.errors.DeadlineExceededError` once spent.
    ``read_only``
        When true, any statement other than a read (``SELECT``,
        ``VALUES``, ``WITH``) is rejected with
        :class:`~repro.errors.ReadOnlySqlError` (SQLSTATE 42501)
        *before* a connection is acquired — the check runs on the
        substituted SQL text, so a read-only tenant cannot occupy pool
        slots with doomed writes.  The error propagates to the caller
        (it is an authorization failure, not report content).
    ``degrade_sql_errors``
        Graceful report degradation: when a SQL section fails terminally
        and no ``%SQL_MESSAGE`` rule matched, emit the default error
        block and *continue* the rest of the ``%HTML_REPORT`` instead of
        aborting the page.  Off by default — the paper's default action
        is ``exit`` — but recommended for production serving, where half
        a report beats a dead page.  (Single-transaction mode still
        aborts: the rollback already undid the interaction, Section 5.)
    """

    transaction_mode: TransactionMode = TransactionMode.AUTO_COMMIT
    escape_report_values: bool = False
    default_database: Optional[str] = None
    show_sql_variable: str = "SHOWSQL"
    compiled_reports: bool = True
    query_cache: Optional[QueryResultCache] = None
    retry_policy: Optional[RetryPolicy] = None
    request_deadline: Optional[float] = None
    read_only: bool = False
    degrade_sql_errors: bool = False


@dataclass
class MacroResult:
    """The outcome of one macro invocation."""

    command: MacroCommand
    #: The buffered page (up to its spill, if it has a :attr:`rest`) as
    #: UTF-8 byte parts, in page order: each run of text encoded once,
    #: each materialised result's printed rows the very bytes its row
    #: memo holds (:meth:`ReportGenerator._render_rows
    #: <repro.core.report.ReportGenerator._render_rows>`).  A tuple: a
    #: page the query cache keeps (:class:`_Page`) shares it with every
    #: answer.
    parts: tuple[bytes, ...] = ()
    #: The rest of a page whose statement spilled
    #: (:data:`~repro.sql.gateway.SPILL_ROWS`), as UTF-8 byte chunks
    #: rendered off the live cursor while it is read; ``None`` when
    #: :attr:`parts` are the whole page.  Single-use: once it is
    #: exhausted or closed the run has settled (session finished) and
    #: the fields below are final.  A result dropped unread closes it.
    rest: Optional[Iterator[bytes]] = None
    statements: list[str] = field(default_factory=list)
    sql_errors: list[SQLError] = field(default_factory=list)
    aborted: bool = False
    #: Transparent statement/connect retries performed for this page.
    retries: int = 0
    #: Query rows fetched across every SQL section (printed or not) —
    #: what a per-tenant row quota charges for.  Final once the page
    #: (its :attr:`rest` too) is complete.
    rows: int = 0
    #: Media type for the generated page.  Macros may override the
    #: default by defining a ``CONTENT_TYPE`` variable — Section 2.1
    #: notes servers return "special types of data other than HTML",
    #: and a CSV or plain-text report is just a different template.
    content_type: str = "text/html"

    @property
    def html(self) -> str:
        """The whole page as text (a :attr:`rest` is read into the
        parts first)."""
        if self.rest is not None:
            rest, self.rest = self.rest, None
            self.parts += tuple(rest)
        return b"".join(self.parts).decode("utf-8")

    @property
    def ok(self) -> bool:
        return not self.sql_errors and not self.aborted


#: What :meth:`_MacroRun._run` yields where a statement spilled: the
#: page past it streams (:attr:`MacroResult.rest`).
_SPILL = object()

#: The fields of a spilled page's result that are final only once its
#: rest has settled.
_SETTLED = tuple(f.name for f in fields(MacroResult)
                 if f.name not in ("parts", "rest"))


def _should_propagate(error: SQLError) -> bool:
    """Errors that should become 503/504 responses, not report content."""
    return isinstance(error, (CircuitOpenError, PoolExhaustedError,
                              DeadlineExceededError))


class MacroEngine:
    """Executes macros against a database registry.

    One engine instance serves many requests (it is stateless between
    invocations); each :meth:`execute` call builds a fresh
    :class:`VariableStore` seeded with that request's client inputs, as
    the CGI process model of Figure 4 implies.
    """

    def __init__(self, registry: Optional[DatabaseRegistry] = None, *,
                 config: Optional[EngineConfig] = None, exec_runner=None):
        self.registry = registry or DatabaseRegistry()
        self.config = config or EngineConfig()
        self.exec_runner = exec_runner

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(self, macro: ast.MacroFile,
                command: MacroCommand | str,
                client_inputs: Sequence[tuple[str, str]] = (), *,
                row_renderer: Optional[RowRenderer] = None) -> MacroResult:
        """Process ``macro`` in ``command`` mode with the given inputs.

        ``client_inputs`` are the HTML input variables of Section 2.2, in
        arrival order (repeats become list variables).  Returns a
        :class:`MacroResult` whose ``html`` is the generated page body.

        The page is buffered, unless a statement's result spills
        (:data:`~repro.sql.gateway.SPILL_ROWS`): then the result's
        ``parts`` are the page up to that statement and its ``rest``
        renders the remainder off the live cursor as it is read.
        Errors raised before the spill surface here; later ones
        propagate from ``rest``.

        ``row_renderer`` swaps the presentation layer (e.g. the JSON
        API) while keeping execution identical; ``None`` — the default —
        is the paper's HTML pipeline, byte for byte.

        With a query cache, an HTML page whose run found every statement
        a hit is kept in the cache, and the same request (program,
        command, inputs in order, the settings that shape the page) is
        answered with it, macro not run, while every result it read is
        still the cache's current entry (:class:`_Page`).  A spilled
        page is never kept: the statement that spilled was executed, so
        its session's ``reads`` is ``None``.
        """
        if isinstance(command, str):
            command = MacroCommand.parse(command)
        config = self.config
        cache = config.query_cache
        deadline = (Deadline.after(config.request_deadline)
                    if config.request_deadline is not None else None)
        key = None
        if (row_renderer is None and cache is not None
                and config.compiled_reports
                and config.transaction_mode is TransactionMode.AUTO_COMMIT):
            program = macro.program or program_of(macro)
            if not program.has_exec:
                key = (self, program, command, tuple(client_inputs),
                       config.escape_report_values,
                       config.show_sql_variable, config.default_database)
                page = cache.page(key)
                if page is not None and (deadline is None
                                         or not deadline.expired):
                    result = page.reuse(self, cache, command)
                    if result is not None:
                        return result
                    cache.drop_page(key)
        run = _MacroRun(self, macro, command, client_inputs,
                        row_renderer=row_renderer, deadline=deadline)
        result = run.execute()
        if key is not None and not result.sql_errors \
                and not result.aborted:
            session = run.session
            if session is None:
                cache.put_page(key, _Page(result, run))
            elif (type(session) is MacroSqlSession
                    and session.reads is not None):
                cache.put_page(key, _Page(result, run),
                               frozenset((session.database,)))
        return result

    def execute_input(self, macro: ast.MacroFile,
                      client_inputs: Sequence[tuple[str, str]] = ()) -> MacroResult:
        return self.execute(macro, MacroCommand.INPUT, client_inputs)

    def execute_report(self, macro: ast.MacroFile,
                       client_inputs: Sequence[tuple[str, str]] = ()) -> MacroResult:
        return self.execute(macro, MacroCommand.REPORT, client_inputs)


class _Page:
    """A buffered page kept in the query cache for the next identical
    request (:meth:`MacroEngine.execute`): its bytes, what its result
    says besides them, and the results it read.

    The page is pure: a compiled, auto-commit run with no executable
    variable, no SQL error and every statement a query-cache hit (so a
    page is kept from its first repeat on; a run that had to execute a
    statement is one the next request may not repeat).  While each of
    those results is still the cache's current entry under its
    database's current stamp, running the macro again would build these
    very bytes, and :meth:`reuse` answers with them.  The parts are a
    tuple and each answer gets its own :class:`MacroResult`: nothing
    downstream can change the page.
    """

    __slots__ = ("parts", "statements", "rows", "content_type",
                 "logical", "database", "generation", "reads", "facts")

    def __init__(self, result: MacroResult, run: "_MacroRun") -> None:
        self.parts = result.parts
        self.statements = tuple(result.statements)
        self.rows = result.rows
        self.content_type = result.content_type
        session = run.session
        #: the DATABASE the run named, its resolved name and the write
        #: counter its reads were stamped by (unset when it ran no SQL)
        self.logical = run.database
        self.database = session.database if session is not None else ""
        self.generation = session.generation if session is not None \
            else None
        #: ``(sql, result, rows)`` per statement; a weak reference, so a
        #: page never keeps alive a result the cache has dropped
        reads = []
        for sql, read in session.reads if session is not None else ():
            reads.append((sql, weakref.ref(read), read.row_total))
        self.reads = tuple(reads)
        #: per statement, the attributes of the ``sql.execute`` row a
        #: traced reuse records (built on the first one)
        self.facts: Optional[tuple[dict, ...]] = None

    def reuse(self, engine: MacroEngine, cache: QueryResultCache,
              command: MacroCommand) -> Optional[MacroResult]:
        """The page's result, or ``None`` when a result it read is no
        longer the cache's current entry (or the database's counter is
        not the one it read under).  A reuse counts a cache hit per
        statement and a page hit (:meth:`QueryResultCache.count_page_hit
        <repro.sql.querycache.QueryResultCache.count_page_hit>`), and
        with tracing on records the ``sql.execute`` rows those hits
        would."""
        reads = self.reads
        if reads:
            database, generation = self.database, self.generation
            if engine.registry.generation(self.logical) is not generation:
                return None
            stamp = generation.stamp()
            for sql, read, _ in reads:
                current = cache.peek(database, sql, stamp)
                if current is None or current is not read():
                    return None
            trace = TRACER.current() if TRACER.enabled else None
            if trace is not None:
                facts = self.facts
                if facts is None:
                    # Fixed when the page was kept: built once, shared
                    # (never changed) by the rows of every reuse.
                    facts = self.facts = tuple(
                        {"digest": statement_digest(sql),
                         "database": database, "sql": sql[:200],
                         "cached": True, "rows": rows}
                        for sql, _, rows in reads)
                now = time.perf_counter()
                for attrs in facts:
                    trace.open("sql.execute", attrs, now)[END] = now
        cache.count_page_hit(len(reads))
        return MacroResult(command=command, parts=self.parts,
                           statements=list(self.statements),
                           rows=self.rows, content_type=self.content_type)


class _MacroRun:
    """State for one macro invocation (kept off the engine for clarity)."""

    def __init__(self, engine: MacroEngine, macro: ast.MacroFile,
                 command: MacroCommand,
                 client_inputs: Sequence[tuple[str, str]], *,
                 row_renderer: Optional[RowRenderer] = None,
                 deadline: Optional[Deadline] = None):
        self.engine = engine
        self.program = program = program_of(macro)
        self.command = command
        self.store = VariableStore()
        self.store.set_client_inputs(list(client_inputs))
        self.evaluator = Evaluator(self.store,
                                   exec_runner=engine.exec_runner)
        #: Compiled run: %DEFINE tables and memoised plans (see
        #: repro.core.program); otherwise the interpreter does it all.
        self.compiled = engine.config.compiled_reports
        if self.compiled:
            self.evaluator = CompiledEvaluator(program, self.store,
                                               self.evaluator)
        self.row_renderer = row_renderer
        #: Structured renderers (JSON) own the byte stream: macro free
        #: text, SHOWSQL echoes and error blocks are evaluated for their
        #: variable-visibility side effects but not emitted.
        self._suppress_text = (row_renderer is not None
                               and row_renderer.suppress_free_text)
        self.reporter = ReportGenerator(
            self.store, self.evaluator,
            escape_values=engine.config.escape_report_values,
            compile_templates=engine.config.compiled_reports,
            row_renderer=row_renderer)
        self.session: Optional[MacroSqlSession] = None
        #: the macro's DATABASE, once its first statement resolved it
        self.database = ""
        self.deadline = deadline if deadline is not None else (
            Deadline.after(engine.config.request_deadline)
            if engine.config.request_deadline is not None else None)
        self.result = MacroResult(command=command)
        self._emitted_target_section = False
        #: the run's single ``substitute`` row (recorded lazily); see
        #: :meth:`_substitute`.
        self._subst_row: Optional[list] = None

    # ------------------------------------------------------------------

    def execute(self) -> MacroResult:
        """The page buffered as byte parts: each run of text joined and
        encoded once (a lone surrogate becomes ``?``, as the page's
        ``encode(..., "replace")`` always made it), row memos kept.

        Gathering stops where a statement spilled: the run continues as
        the result's :attr:`~MacroResult.rest`.  That result is a copy
        the run does not refer to (the rest fills it in when it
        settles), so a caller that drops it unread frees the rest at
        once: the run closes and the cursor, its read bracket and the
        connection settle without waiting for the cycle collector."""
        parts: list[bytes] = []
        text: list[str] = []
        result = self.result
        run = self._run()
        for chunk in run:
            if chunk.__class__ is str:
                if chunk:
                    text.append(chunk)
                continue
            if chunk is _SPILL:
                result = replace(self.result)
                result.rest = self._rest(run, self.result,
                                         weakref.ref(result))
                next(result.rest)
                break
            for piece in chunk:
                if piece.__class__ is str:
                    if piece:
                        text.append(piece)
                    continue
                if text:
                    parts.append("".join(text).encode("utf-8", "replace"))
                    text = []
                parts.append(piece)
        if text:
            parts.append("".join(text).encode("utf-8", "replace"))
        result.parts = tuple(parts)
        return result

    @staticmethod
    def _rest(run: Iterator[Chunk], own: MacroResult,
              caller: "weakref.ref[MacroResult]") -> Iterator[bytes]:
        """``run`` past its spill, as UTF-8 byte chunks.  :meth:`execute`
        starts it (the bare ``yield``), so closing it settles the run
        even before the first chunk is read; then the run's ``own``
        result's final fields are copied to the ``caller``'s, if it is
        still held."""
        try:
            yield  # type: ignore[misc]
            for chunk in run:
                if chunk.__class__ is str:
                    if chunk:
                        yield chunk.encode("utf-8", "replace")
                elif chunk is not _SPILL:
                    for piece in chunk:
                        if piece.__class__ is str:
                            piece = piece.encode("utf-8", "replace")
                        if piece:
                            yield piece
        finally:
            run.close()
            result = caller()
            if result is not None:
                for name in _SETTLED:
                    setattr(result, name, getattr(own, name))

    def _run(self) -> Iterator[Chunk]:
        """The page as a chunk generator (the single processing path),
        which :meth:`execute` gathers.  Session finalisation runs even
        when the consumer abandons the iterator early.
        """
        try:
            yield from self._walk()
        finally:
            if self.session is not None:
                self.session.finish(success=not self.result.aborted
                                    and not self.session.failed)
                self.result.retries += self.session.retries
            self.engine.registry.record_retries(self.result.retries)
        if not self._emitted_target_section:
            needed = ("%HTML_INPUT" if self.command is MacroCommand.INPUT
                      else "%HTML_REPORT")
            raise MissingSectionError(
                f"macro has no {needed} section required by "
                f"{self.command.value} mode")
        if self.row_renderer is not None:
            yield from self.row_renderer.finish()
        self._refresh_content_type()

    def _refresh_content_type(self) -> None:
        if (self.row_renderer is not None
                and self.row_renderer.content_type):
            self.result.content_type = self.row_renderer.content_type
            return
        declared = self.evaluator.evaluate_name("CONTENT_TYPE").strip()
        if declared:
            self.result.content_type = declared

    def _walk(self) -> Iterator[Chunk]:
        # SQL sections were registered macro-wide by the program (Section
        # 3.4's directives are not positional); FreeText is ignored.
        for section, table, lists, execs in self.program.steps:
            if isinstance(section, ast.DefineSection):
                if self.compiled:
                    self.evaluator.define(table, lists, execs)
                else:
                    self.store.apply_section(section)
            elif isinstance(section, ast.HtmlInputSection):
                if self.command is MacroCommand.INPUT:
                    self._emitted_target_section = True
                    self._refresh_content_type()
                    chunk = self._substitute(section.body)
                    if not self._suppress_text:
                        yield chunk
            elif isinstance(section, ast.HtmlReportSection):
                if self.command is MacroCommand.REPORT:
                    self._emitted_target_section = True
                    # A spilled page's headers go out at the spill; pin
                    # the content type before anything is emitted (the
                    # end-of-run refresh still wins for a buffered page).
                    self._refresh_content_type()
                    if (yield from self._process_report(section)):
                        return  # an 'exit' action stopped processing
            else:
                raise MacroExecutionError(
                    f"unexpanded %INCLUDE \"{section.name}\": load this "
                    "macro through a MacroLibrary so includes resolve")

    # ------------------------------------------------------------------
    # Report mode
    # ------------------------------------------------------------------

    def _process_report(self, section: ast.HtmlReportSection
                        ) -> Iterator[Chunk]:
        """Emit the report section; returns True when 'exit' stopped it."""
        for piece in section.pieces:
            if isinstance(piece, ast.ExecSqlDirective):
                if (yield from self._run_directive(piece)):
                    return True
            else:
                chunk = self._substitute(piece)
                if not self._suppress_text:
                    yield chunk
        return False

    def _substitute(self, node) -> str:
        """Evaluate a template node under the run's ``substitute`` span.

        Substitution runs once per free-text piece; a span per piece
        would dominate both the trace and the overhead budget, so the
        whole run shares one span whose duration is the *accumulated*
        evaluation time (the same accrued-clock idiom as the
        ``report.render`` span).
        """
        row = self._subst_row
        if row is None:
            trace = TRACER.current()
            if trace is None:
                return self.evaluator.evaluate(node)
            row = self._subst_row = trace.open("substitute")
            row[END] = row[START]
        tick = time.perf_counter()
        try:
            return self.evaluator.evaluate(node)
        finally:
            row[END] += time.perf_counter() - tick

    def _run_directive(self, directive: ast.ExecSqlDirective
                       ) -> Iterator[Chunk]:
        """Run one %EXEC_SQL; returns True when processing must stop."""
        sections = self._resolve_directive(directive)
        for sql_section in sections:
            if (yield from self._run_sql_section(sql_section)):
                return True
            if self.session is not None and self.session.failed:
                # Single-transaction mode: everything was rolled back;
                # no further statements may run (Section 5), even when
                # the matched %SQL_MESSAGE rule said "continue".
                self.result.aborted = True
                return True
        return False

    def _resolve_directive(self, directive: ast.ExecSqlDirective
                           ) -> Sequence[ast.SqlSection]:
        if directive.name is None:
            return self.program.unnamed_sql
        name = self.evaluator.evaluate(directive.name).strip()
        section = self.program.named_sql.get(name)
        if section is None:
            raise UnknownSqlSectionError(
                f"%EXEC_SQL({directive.name.raw}) resolved to {name!r}, "
                "which names no SQL section in this macro")
        return [section]

    def _run_sql_section(self, section: ast.SqlSection
                         ) -> Iterator[Chunk]:
        """Execute one SQL section; returns True when processing must stop.

        Terminal SQL failures degrade, not crash: the section's
        ``%SQL_MESSAGE`` (or the default error block) is emitted, and
        the report continues per the matched rule's action.  Under
        ``degrade_sql_errors`` the *default* action (no rule matched)
        becomes ``continue``; an explicit ``exit`` rule is always
        honoured.  Failures to even *reach* the database (breaker open,
        pool exhausted, connect refused) are handled the same way, so
        one dead backend costs one error block, not the whole page.
        """
        sql_text = self.evaluator.evaluate(section.command).strip()
        if self.engine.config.read_only \
                and not is_cacheable_query(sql_text):
            # Authorization, not report content: raised before the
            # session (and therefore any pool slot) exists, and outside
            # the %SQL_MESSAGE machinery so it reaches the HTTP layer.
            raise ReadOnlySqlError(
                f"write rejected: this engine is read-only "
                f"(statement began {sql_text.split(None, 1)[0]!r} "
                f"when only SELECT/VALUES/WITH are allowed)")
        flag = self.engine.config.show_sql_variable
        if (flag and not self._suppress_text
                and self.evaluator.evaluate_name(flag) != ""):
            yield f"<P><TT>{escape_html(sql_text)}</TT></P>\n"
        try:
            session = self._ensure_session()
            result = session.execute(sql_text)
        except SQLError as error:
            return (yield from self._emit_sql_error(section, error))
        self.result.statements.append(sql_text)
        try:
            if result.row_iter is not None:
                yield _SPILL  # the page streams from here (execute())
            yield from self._render_section(section, result)
        except SQLError as error:
            # A spilled result rides the live cursor, so a fetch failure
            # can surface mid-render; a materialised one never does.
            return (yield from self._emit_sql_error(section, error))
        finally:
            # A row-time error that is not the cursor's own (a reference
            # cycle, an abandoned page) leaves the cursor live: settle
            # it and its read bracket now, while _run()'s finally has
            # yet to hand the connection back.  No-op once exhausted.
            result.close()
        if result.is_query:
            # Valid only after the render loop drained the cursor.
            self.result.rows += result.row_total
        return False

    def _render_section(self, section: ast.SqlSection,
                        result) -> Iterator[Chunk]:
        """Render the section's report, under a ``report.render`` span.

        The span measures *production* time only: the clock runs while a
        chunk is being rendered and stops across each ``yield``, so a
        slow consumer (network sends past a spill) cannot inflate the
        rendering phase.
        """
        inner = self.reporter.render_iter(section, result)
        trace = TRACER.current()
        if trace is None:
            yield from inner
            return
        row = trace.open("report.render")
        active = 0.0
        try:
            while True:
                tick = time.perf_counter()
                try:
                    chunk = next(inner)
                except StopIteration:
                    active += time.perf_counter() - tick
                    break
                active += time.perf_counter() - tick
                yield chunk
        finally:
            # Say why a report was slow: how many rows, which loop.
            row[END] = row[START] + active
            attrs = row[ATTRS] = {}
            if result.is_query:
                attrs["rows"] = result.row_total
            if self.reporter.row_path is not None:
                attrs["row_path"] = self.reporter.row_path

    def _emit_sql_error(self, section: ast.SqlSection,
                        error: SQLError) -> Iterator[str]:
        """Emit the section's error block; True when processing stops."""
        degrade = self.engine.config.degrade_sql_errors
        message = resolve_message(
            section.message, error, self.store, self.evaluator,
            default_error_action="continue" if degrade else "exit")
        if message.matched_rule is None and _should_propagate(error):
            # Unavailability is a transport condition, not page
            # content: unless a %SQL_MESSAGE rule claimed it, let
            # the HTTP layer answer 503 + Retry-After (or 504).
            raise error
        self.result.sql_errors.append(error)
        if not self._suppress_text:
            yield message.html
        failed = self.session is not None and self.session.failed
        if message.action == "exit" or failed:
            self.result.aborted = True
            return True
        return False

    def _ensure_session(self) -> MacroSqlSession:
        if self.session is None:
            database = self.evaluator.evaluate_name("DATABASE")
            if not database:
                database = self.engine.config.default_database or ""
            if not database:
                raise MacroExecutionError(
                    "macro executed SQL but defines no DATABASE variable "
                    "and the engine has no default_database")
            self.database = database
            shard_map = self.engine.registry.shard_map(database)
            if shard_map is not None:
                # A logical sharded database: the macro's shard-key
                # variable (SHARD_KEY unless the map renames it) pins
                # the request to one shard; without it, reads scatter
                # and writes fan out (see repro.sql.sharding).
                if BLOCKING.attempt is not None:
                    raise WouldBlock("shard")
                from repro.sql.sharding import ShardedSqlSession
                key = self.evaluator.evaluate_name(shard_map.key_variable)
                # Shard maps name physical databases, so the sharded
                # session always runs against the physical registry
                # (identity for an unscoped one).
                self.session = ShardedSqlSession(
                    self.engine.registry.physical(), shard_map,
                    shard_key=key or None,
                    mode=self.engine.config.transaction_mode,
                    cache=self.engine.config.query_cache,
                    retry=self.engine.config.retry_policy,
                    deadline=self.deadline,
                    degrade=self.engine.config.degrade_sql_errors)
                return self.session
            registry = self.engine.registry
            mode = self.engine.config.transaction_mode
            # Lease at the first statement that is not a cache hit; an
            # unknown name connects (and fails) now, as it always did.
            lazy = mode is TransactionMode.AUTO_COMMIT and database in registry
            # Cache keys carry the *resolved* name: a scoped (tenant)
            # registry prefixes its namespace here, so two tenants'
            # identical SELECTs against databases that share a logical
            # name can never serve each other's rows.
            self.session = MacroSqlSession(
                None if lazy else self._connect(database), mode=mode,
                cache=self.engine.config.query_cache,
                database=registry.resolve(database),
                generation=registry.generation(database) if lazy else None,
                retry=self.engine.config.retry_policy,
                deadline=self.deadline,
                connect=lambda: self._connect(database))
        return self.session

    def _connect(self, database: str):
        """Open the request's connection, retrying transient failures.

        Connection establishment is idempotent, so it is retried under
        the engine's policy even though writes never are.  Breaker-open
        rejections *are* transient but deliberately fail fast here — the
        breaker exists to shed load, retrying against it immediately
        would defeat that.
        """
        registry = self.engine.registry
        policy = self.engine.config.retry_policy
        if policy is None:
            return registry.connect(database, deadline=self.deadline)

        def attempt():
            return registry.connect(database, deadline=self.deadline)

        def count_retry(_attempt, _error, _delay):
            self.result.retries += 1

        return call_with_retry(
            attempt, policy=policy, deadline=self.deadline,
            is_retryable=lambda exc: (is_transient(exc)
                                      and not isinstance(exc,
                                                         CircuitOpenError)),
            on_retry=count_retry)
