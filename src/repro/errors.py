"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
applications embedding the gateway can catch a single base class.  The
sub-hierarchy mirrors the layers of the system described in DESIGN.md:

* macro language errors (lexing, parsing, definition semantics),
* substitution errors (the paper's cross-language variable mechanism),
* execution errors (running a macro in input/report mode),
* SQL gateway errors (with DB2-flavoured SQLSTATE/SQLCODE attributes),
* CGI and HTTP protocol errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


# ---------------------------------------------------------------------------
# Macro language
# ---------------------------------------------------------------------------


class MacroError(ReproError):
    """Base class for macro-language errors.

    Carries an optional source location so that application developers get
    the file/line of the offending macro text, as the DB2 WWW Connection
    run-time engine did.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 source: str | None = None):
        self.line = line
        self.source = source
        location = ""
        if source is not None:
            location += f"{source}:"
        if line is not None:
            location += f"line {line}: "
        elif location:
            location += " "
        super().__init__(location + message)


class MacroSyntaxError(MacroError):
    """The macro text violates the grammar of Section 3 of the paper."""


class UnterminatedBlockError(MacroSyntaxError):
    """A ``%KEYWORD{`` block was never closed with ``%}``."""


class DuplicateSectionError(MacroSyntaxError):
    """A macro contains two sections that must be unique.

    The paper allows one ``%HTML_INPUT`` and one ``%HTML_REPORT`` section
    per macro, and requires named ``%SQL`` sections to carry unique names.
    """


class MacroValidationError(MacroError):
    """A structurally valid macro violates a semantic constraint.

    Examples: more than one unnamed ``%EXEC_SQL`` directive in the HTML
    report section, or an ``%EXEC_SQL(name)`` that references a SQL section
    that does not exist anywhere in the macro.
    """


# ---------------------------------------------------------------------------
# Variable substitution
# ---------------------------------------------------------------------------


class SubstitutionError(ReproError):
    """Base class for errors during cross-language variable substitution."""


class CircularReferenceError(SubstitutionError):
    """A chain of variable references loops back on itself.

    Section 3.1.1: "Circular references among variables are not allowed and
    result in an error."  The ``chain`` attribute records the cycle in
    evaluation order, ending with the repeated name.
    """

    def __init__(self, chain: list[str]):
        self.chain = list(chain)
        super().__init__(
            "circular variable reference: " + " -> ".join(self.chain))


class ExecVariableError(SubstitutionError):
    """An executable (``%EXEC``) variable could not be run at all.

    Note that a command that runs and *fails* is not an error — the paper
    stores the failure code in the variable itself.  This exception is for
    commands that cannot be dispatched (unknown name with subprocess
    execution disabled, for example).
    """


# ---------------------------------------------------------------------------
# Macro execution
# ---------------------------------------------------------------------------


class MacroExecutionError(ReproError):
    """A macro failed while being processed in input or report mode."""


class MissingSectionError(MacroExecutionError):
    """The section required by the requested mode is absent.

    Input mode requires an ``%HTML_INPUT`` section and report mode requires
    an ``%HTML_REPORT`` section (Sections 4.1 and 4.2 of the paper).
    """


class UnknownSqlSectionError(MacroExecutionError):
    """``%EXEC_SQL(name)`` resolved to a name with no matching SQL section."""


class TransactionAborted(MacroExecutionError):
    """Single-transaction mode rolled back because a SQL statement failed.

    Section 5: "a rollback will occur if any SQL statement fails".
    """

    def __init__(self, message: str, *, partial_output: str = ""):
        self.partial_output = partial_output
        super().__init__(message)


# ---------------------------------------------------------------------------
# SQL gateway
# ---------------------------------------------------------------------------


class SQLError(ReproError):
    """A database operation failed.

    Attributes mimic what the DB2 call-level interface reported to
    DB2 WWW Connection so that ``%SQL_MESSAGE`` blocks can match on them:

    ``sqlcode``
        Negative integer for errors, positive for warnings (DB2 convention).
    ``sqlstate``
        Five-character SQLSTATE string.
    """

    def __init__(self, message: str, *, sqlcode: int = -1,
                 sqlstate: str = "58004"):
        self.sqlcode = sqlcode
        self.sqlstate = sqlstate
        super().__init__(message)

    @property
    def is_warning(self) -> bool:
        return self.sqlcode > 0


class SQLSyntaxError(SQLError):
    """The SQL string assembled by substitution failed to prepare."""

    def __init__(self, message: str):
        super().__init__(message, sqlcode=-104, sqlstate="42601")


class SQLObjectError(SQLError):
    """An undefined table, view or column name (SQLSTATE 42704/42703)."""

    def __init__(self, message: str, *, sqlstate: str = "42704"):
        super().__init__(message, sqlcode=-204, sqlstate=sqlstate)


class ReadOnlySqlError(SQLError):
    """A write statement reached a read-only database or tenant.

    DB2 reports authorization failures as SQL0551N with SQLSTATE 42501
    ("does not have the privilege to perform operation").  Raised at the
    gateway *before* a connection is acquired, so a read-only tenant
    cannot tie up pool slots with statements that will never run; the
    HTTP layer maps it to 403.
    """

    def __init__(self, message: str = "write rejected: target is "
                 "read-only"):
        super().__init__(message, sqlcode=-551, sqlstate="42501")


class SQLConstraintError(SQLError):
    """A constraint violation (duplicate key, NOT NULL, ...)."""

    def __init__(self, message: str):
        super().__init__(message, sqlcode=-803, sqlstate="23505")


class SQLDataError(SQLError):
    """Invalid data for the operation (conversion failure, overflow)."""

    def __init__(self, message: str):
        super().__init__(message, sqlcode=-420, sqlstate="22018")


class ConnectionClosedError(SQLError):
    """Operation attempted on a closed connection or cursor."""

    def __init__(self, message: str = "connection is closed"):
        super().__init__(message, sqlcode=-99999, sqlstate="08003")


# -- transient failures (the retry/breaker layer classifies on these) -------


class SQLTransientError(SQLError):
    """A failure that may succeed if the statement is retried.

    DB2 grouped these under SQLSTATE classes 08 (connection), 40001
    (deadlock/timeout rollback) and 57xxx (resource unavailable); the
    resilience layer (:mod:`repro.resilience`) retries idempotent reads
    that fail with one of these and feeds them to the circuit breaker.
    """


class SQLConnectError(SQLTransientError):
    """The database could not be reached (SQLSTATE class 08).

    DB2's DRDA client reported unreachable servers as SQL30081N.
    """

    def __init__(self, message: str = "could not connect to database", *,
                 sqlstate: str = "08001"):
        super().__init__(message, sqlcode=-30081, sqlstate=sqlstate)


class SQLDeadlockError(SQLTransientError):
    """Deadlock or lock timeout rolled the statement back (SQL0911N)."""

    def __init__(self, message: str = "deadlock or timeout, "
                 "statement rolled back"):
        super().__init__(message, sqlcode=-911, sqlstate="40001")


class SQLTimeoutError(SQLTransientError):
    """The statement timed out without rollback (SQL0913N, 57033)."""

    def __init__(self, message: str = "statement timed out"):
        super().__init__(message, sqlcode=-913, sqlstate="57033")


class PoolExhaustedError(SQLTransientError):
    """No connection became available within the pool timeout.

    ``retry_after`` is the pool's estimate (seconds) of when a slot is
    likely to free up; the HTTP layer surfaces it on the 503 response
    through the shared helper in :mod:`repro.overload.retryafter`.
    """

    def __init__(self, message: str = "connection pool exhausted", *,
                 retry_after: float = 1.0):
        self.retry_after = retry_after
        super().__init__(message, sqlcode=-1040, sqlstate="57030")


class CircuitOpenError(SQLTransientError):
    """The circuit breaker for a database is open: fail fast, retry later.

    ``retry_after`` is the breaker's estimate of when a probe will be
    allowed (seconds); the HTTP layer surfaces it as a ``Retry-After``
    header on a 503 response.
    """

    def __init__(self, message: str = "database circuit breaker is open",
                 *, retry_after: float = 1.0):
        self.retry_after = retry_after
        super().__init__(message, sqlcode=-30081, sqlstate="08004")


class DeadlineExceededError(SQLError):
    """The request's deadline budget ran out (SQL0952N: cancelled).

    Deliberately *not* transient: once the budget is spent there is no
    time left to retry in, so the resilience layer surfaces it terminally.
    """

    def __init__(self, message: str = "request deadline exceeded"):
        super().__init__(message, sqlcode=-952, sqlstate="57014")


#: SQLSTATE values (beyond the class-08 prefix) treated as retryable.
TRANSIENT_SQLSTATES = frozenset({"40001", "57030", "57033"})


def is_transient(error: BaseException) -> bool:
    """True when ``error`` is a retryable (transient) database failure.

    Classifies both the library's own :class:`SQLTransientError` subtree
    and foreign :class:`SQLError` instances by SQLSTATE: class 08
    (connection) and the deadlock/resource states of
    :data:`TRANSIENT_SQLSTATES`.  Deadline exhaustion is never transient.
    """
    if isinstance(error, DeadlineExceededError):
        return False
    if isinstance(error, SQLTransientError):
        return True
    if isinstance(error, ConnectionClosedError):
        # A connection that died under us is replaceable: the pool evicts
        # it and a retry gets a fresh one.
        return True
    if isinstance(error, SQLError):
        state = error.sqlstate or ""
        return state.startswith("08") or state in TRANSIENT_SQLSTATES
    return False


# ---------------------------------------------------------------------------
# CGI / HTTP
# ---------------------------------------------------------------------------


class OverloadShedError(ReproError):
    """Admission control refused this request: the server is overloaded.

    Deliberate and cheap — the request never touched the gateway.  Maps
    to 503 with the shared ``Retry-After`` semantics; ``retry_after``
    is the controller's honest drain estimate (seconds) and
    ``cost_class`` records which class was shed (heavy-report and
    unclassified traffic go first).
    """

    def __init__(self, message: str = "server overloaded, request shed",
                 *, retry_after: float = 1.0, cost_class: str = ""):
        self.retry_after = retry_after
        self.cost_class = cost_class
        super().__init__(message)


class GatewayError(ReproError):
    """Base class for CGI gateway failures."""


class UnknownCgiProgramError(GatewayError):
    """The URL named a CGI program that is not registered with the server."""


class CgiProtocolError(GatewayError):
    """A CGI program produced output violating the CGI/1.1 contract."""


class HttpError(ReproError):
    """Base class for HTTP transport errors."""

    status = 500


class BadRequestError(HttpError):
    status = 400


class TransferEncodingError(HttpError):
    """A request framed its body with ``Transfer-Encoding``, which the
    edge does not decode."""

    status = 501


class NotFoundError(HttpError):
    status = 404


class MethodNotAllowedError(HttpError):
    status = 405


class UrlSyntaxError(HttpError):
    """A URL could not be parsed."""

    status = 400
