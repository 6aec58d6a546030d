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
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.blocking import BLOCKING
from repro.core import ast
from repro.core.messages import resolve_message
from repro.core.program import CompiledEvaluator, program_of
from repro.core.report import (Chunk, ReportGenerator, RowRenderer,
                               chunk_text)
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
from repro.obs.trace import TRACER, Span
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
    #: The buffered page as UTF-8 byte parts, in page order: each run of
    #: text encoded once, each materialised result's printed rows the
    #: very bytes its row memo holds (:meth:`ReportGenerator._render_rows
    #: <repro.core.report.ReportGenerator._render_rows>`).  Empty for a
    #: stream, whose chunks are the page.  A tuple: a page the query
    #: cache keeps (:class:`_Page`) shares it with every answer.
    parts: tuple[bytes, ...] = ()
    statements: list[str] = field(default_factory=list)
    sql_errors: list[SQLError] = field(default_factory=list)
    aborted: bool = False
    #: Transparent statement/connect retries performed for this page.
    retries: int = 0
    #: Query rows fetched across every SQL section (printed or not) —
    #: what a per-tenant row quota charges for.  Final once the page
    #: (or stream) is complete.
    rows: int = 0
    #: Media type for the generated page.  Macros may override the
    #: default by defining a ``CONTENT_TYPE`` variable — Section 2.1
    #: notes servers return "special types of data other than HTML",
    #: and a CSV or plain-text report is just a different template.
    content_type: str = "text/html"

    @property
    def html(self) -> str:
        """The page as text: a view of :attr:`parts`."""
        return b"".join(self.parts).decode("utf-8")

    @property
    def ok(self) -> bool:
        return not self.sql_errors and not self.aborted


@dataclass
class MacroStream:
    """A macro invocation rendered as a chunk stream.

    ``chunks`` yields the page incrementally — first byte out as soon as
    the first HTML piece is evaluated, SQL rows rendered straight off the
    live cursor.  ``result`` is the same object the buffered path
    returns; its ``statements``/``sql_errors``/``retries`` fields fill in
    as the stream advances and are final once ``chunks`` is exhausted
    (``result.parts`` stays empty — the chunks *are* the page).
    ``result.content_type`` is valid as soon as the first chunk has been
    produced, so a transport can emit headers before the body.
    """

    chunks: Iterator[str]
    result: MacroResult


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

        ``row_renderer`` swaps the presentation layer (e.g. the JSON
        API) while keeping execution identical; ``None`` — the default —
        is the paper's HTML pipeline, byte for byte.

        With a query cache, an HTML page whose run found every statement
        a hit is kept in the cache, and the same request (program,
        command, inputs in order, the settings that shape the page) is
        answered with it, macro not run, while every result it read is
        still the cache's current entry (:class:`_Page`).
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

    def execute_stream(self, macro: ast.MacroFile,
                       command: MacroCommand | str,
                       client_inputs: Sequence[tuple[str, str]] = (), *,
                       row_renderer: Optional[RowRenderer] = None
                       ) -> MacroStream:
        """Process ``macro`` as an incremental chunk stream.

        Identical processing to :meth:`execute` — the buffered path is
        literally the join of this stream — except that SQL result rows
        ride the live cursor instead of being fetched up front, so first
        byte latency and peak memory stay flat as reports grow.  Query
        results consumed this way bypass the query cache (their rows
        stream once).  Errors raised before the first chunk surface
        exactly as in :meth:`execute`; after that they propagate from
        the iterator mid-stream.
        """
        if isinstance(command, str):
            command = MacroCommand.parse(command)
        run = _MacroRun(self, macro, command, client_inputs,
                        stream_rows=True, row_renderer=row_renderer)
        return MacroStream(chunks=run.stream(), result=run.result)

    def execute_report_stream(self, macro: ast.MacroFile,
                              client_inputs: Sequence[tuple[str, str]] = ()
                              ) -> MacroStream:
        return self.execute_stream(macro, MacroCommand.REPORT,
                                   client_inputs)


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
                 "logical", "database", "generation", "reads")

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

    def reuse(self, engine: MacroEngine, cache: QueryResultCache,
              command: MacroCommand) -> Optional[MacroResult]:
        """The page's result, or ``None`` when a result it read is no
        longer the cache's current entry (or the database's counter is
        not the one it read under).  A reuse counts a cache hit per
        statement, deferred like any hit on an edge attempt
        (:mod:`repro.blocking`), and with tracing on leaves the
        ``sql.execute`` spans those hits would."""
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
            if BLOCKING.attempt is None:
                cache.count_hit(len(reads))
            else:
                BLOCKING.attempt.hits.extend([cache] * len(reads))
            if TRACER.enabled:
                for sql, _, rows in reads:
                    span = TRACER.leaf("sql.execute")
                    if span is None:
                        break
                    span.set("digest", statement_digest(sql))
                    span.set("database", database)
                    span.set("sql", sql if len(sql) <= 200 else sql[:200])
                    span.set("cached", True)
                    span.set("rows", rows)
                    span.finish()
        return MacroResult(command=command, parts=self.parts,
                           statements=list(self.statements),
                           rows=self.rows, content_type=self.content_type)


class _MacroRun:
    """State for one macro invocation (kept off the engine for clarity)."""

    def __init__(self, engine: MacroEngine, macro: ast.MacroFile,
                 command: MacroCommand,
                 client_inputs: Sequence[tuple[str, str]], *,
                 stream_rows: bool = False,
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
        #: When true, SQL results ride the live cursor (streaming mode).
        self.stream_rows = stream_rows
        self.session: Optional[MacroSqlSession] = None
        #: the macro's DATABASE, once its first statement resolved it
        self.database = ""
        self.deadline = deadline if deadline is not None else (
            Deadline.after(engine.config.request_deadline)
            if engine.config.request_deadline is not None else None)
        self.result = MacroResult(command=command)
        self._emitted_target_section = False
        #: the run's single ``substitute`` span (created lazily); see
        #: :meth:`_substitute`.
        self._subst_span: Optional[Span] = None

    # ------------------------------------------------------------------

    def execute(self) -> MacroResult:
        """The page buffered as byte parts: each run of text joined and
        encoded once (a lone surrogate becomes ``?``, as the page's
        ``encode(..., "replace")`` always made it), row memos kept."""
        parts: list[bytes] = []
        text: list[str] = []
        for chunk in self._run():
            if chunk.__class__ is str:
                if chunk:
                    text.append(chunk)
                continue
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
        self.result.parts = tuple(parts)
        return self.result

    def stream(self) -> Iterator[str]:
        """The page as text chunks, for the streaming transports: a
        section over a fetched result comes joined into one
        (:func:`~repro.core.report.chunk_text`)."""
        run = self._run()
        try:
            for chunk in run:
                yield chunk if chunk.__class__ is str else chunk_text(chunk)
        finally:
            run.close()

    def _run(self) -> Iterator[Chunk]:
        """The page as a chunk generator (the single processing path).

        The buffered :meth:`execute` gathers it into byte parts, the
        streaming transports forward it chunk by chunk.  Session
        finalisation runs even when the consumer abandons the iterator
        early.
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
                    # Streaming transports read the content type off the
                    # result as soon as the first chunk arrives; pin it
                    # before anything is emitted (the end-of-run refresh
                    # still wins for the buffered path).
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
        evaluation time (the same accrued-clock idiom as the streaming
        ``report.render`` span).
        """
        span = self._subst_span
        if span is None:
            span = self._subst_span = TRACER.leaf("substitute")
            if span is not None:
                span.end = span.start
        if span is None:
            return self.evaluator.evaluate(node)
        tick = time.perf_counter()
        try:
            return self.evaluator.evaluate(node)
        finally:
            span.end += time.perf_counter() - tick

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
            result = session.execute(sql_text,
                                     stream=self.stream_rows)
        except SQLError as error:
            return (yield from self._emit_sql_error(section, error))
        self.result.statements.append(sql_text)
        try:
            yield from self._render_section(section, result)
        except SQLError as error:
            # Streaming rides the live cursor, so a fetch failure can
            # surface mid-render; the buffered path never reaches here
            # (execute() drains the cursor above).
            return (yield from self._emit_sql_error(section, error))
        finally:
            # A row-time error that is not the cursor's own (a reference
            # cycle, an abandoned stream) leaves the cursor live: settle
            # it and its read bracket now, while stream()'s finally has
            # yet to hand the connection back.  No-op once exhausted.
            if result.row_iter is not None:
                result.row_iter.close()
        if result.is_query:
            # Valid only after the render loop drained the cursor.
            self.result.rows += result.row_total
        return False

    def _render_section(self, section: ast.SqlSection,
                        result) -> Iterator[Chunk]:
        """Render the section's report, under a ``report.render`` span.

        The span measures *production* time only: the clock runs while a
        chunk is being rendered and stops across each ``yield``, so a
        slow consumer (network sends on the streaming path) cannot
        inflate the rendering phase.
        """
        inner = self.reporter.render_iter(section, result)
        parent = TRACER.current() if TRACER.enabled else None
        if parent is None:
            yield from inner
            return
        span = Span("report.render", parent.trace_id, parent.span_id)
        parent.add_child(span)

        def describe() -> None:
            """Say why a report was slow: how many rows, which loop."""
            if result.is_query:
                span.set("rows", result.row_total)
            if self.reporter.row_path is not None:
                span.set("row_path", self.reporter.row_path)

        if not self.stream_rows:
            # Buffered path: execute() drains the stream immediately, so
            # wall time *is* production time — skip the per-chunk clock.
            try:
                yield from inner
            finally:
                span.finish()
                describe()
            return
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
            span.end = span.start + active
            describe()

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
                    BLOCKING.attempt.block("shard")
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
        if BLOCKING.attempt is not None:
            BLOCKING.attempt.block("connect")
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
