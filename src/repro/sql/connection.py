"""Connections to the relational DBMS substrate.

The paper's system talked to IBM DB2 through its call-level interface; our
substitution (documented in DESIGN.md) is the standard-library ``sqlite3``
module wrapped so that the rest of the code sees a small, DB2-flavoured
surface:

* explicit transaction control (``begin``/``commit``/``rollback``) — the
  gateway decides transaction boundaries, never the driver;
* errors translated to :class:`repro.errors.SQLError` subclasses carrying
  ``sqlcode``/``sqlstate`` attributes that ``%SQL_MESSAGE`` rules match on;
* cursor results exposed through :class:`repro.sql.cursor.Cursor`.
"""

from __future__ import annotations

import re
import sqlite3
import threading
from typing import Any, Callable, Iterable, Optional

from repro.errors import (
    ConnectionClosedError,
    SQLConstraintError,
    SQLDataError,
    SQLError,
    SQLObjectError,
    SQLSyntaxError,
)
from repro.sql.cursor import Cursor
from repro.sql.dialect import is_query
from repro.sql.querycache import WriteGeneration

#: SQLite VM steps between two calls of a watched statement's progress
#: handler (:meth:`Connection.watch`): about 0.7 ms of a recursive CTE
#: on the 2-core benchmark host, so the edge's loop never runs one
#: statement much longer, and a thread notices an expired deadline
#: within as long.  A call costs ~0.2 µs, 0.03 % of that (EXPERIMENTS.md
#: SIMP-INLINE).
PROGRESS_STEPS = 100_000
#: milliseconds SQLite's busy handler waits for a lock (``sqlite3``'s
#: default ``timeout`` of 5 s)
_BUSY_TIMEOUT_MS = 5000

_NO_TABLE_RE = re.compile(r"no such table: (\S+)")
_NO_COLUMN_RE = re.compile(r"no such column: (\S+)")


def translate_error(exc: sqlite3.Error, sql: str = "") -> SQLError:
    """Map a sqlite3 exception onto the gateway's SQLSTATE-bearing errors."""
    message = str(exc)
    if isinstance(exc, sqlite3.OperationalError):
        if _NO_TABLE_RE.search(message):
            return SQLObjectError(message, sqlstate="42704")
        if _NO_COLUMN_RE.search(message):
            return SQLObjectError(message, sqlstate="42703")
        if "syntax error" in message or "incomplete input" in message:
            return SQLSyntaxError(message)
        return SQLError(message, sqlcode=-902, sqlstate="58004")
    if isinstance(exc, sqlite3.IntegrityError):
        return SQLConstraintError(message)
    if isinstance(exc, (sqlite3.DataError, sqlite3.InterfaceError)):
        return SQLDataError(message)
    if isinstance(exc, sqlite3.ProgrammingError):
        if "closed" in message.lower():
            return ConnectionClosedError(message)
        return SQLSyntaxError(message)
    return SQLError(message)


class Connection:
    """A connection to one database.

    Thread-safe for the HTTP edge's executor threads: a lock serialises
    statement execution, matching the one-statement-at-a-time behaviour of
    a 1996 CLI connection handle.

    ``sqlite3`` is opened with ``isolation_level=None`` so the *gateway*
    owns transaction boundaries explicitly — required to implement both of
    the paper's transaction modes (Section 5).
    """

    def __init__(self, database: str = ":memory:", *, uri: bool = False):
        self.database = database
        self._raw = sqlite3.connect(
            database, isolation_level=None, check_same_thread=False,
            uri=uri, timeout=_BUSY_TIMEOUT_MS / 1000)
        #: a file's locks can be busy; an in-memory database's cannot
        self._file = (database != ":memory:"
                      and "mode=memory" not in database)
        self._busy_off = False  # see watch()
        self._lock = threading.RLock()
        self._closed = False
        self._in_transaction = False
        self._write_pending = False
        #: Shared per-database write counter (attached by the registry
        #: or a :class:`MemoryDatabase`); any non-query statement that
        #: runs through :meth:`execute`/:meth:`executescript` bumps it —
        #: at execution time and again when the enclosing transaction
        #: ends — so the query-result cache invalidates (see
        #: repro.sql.querycache).
        self.generation: Optional[WriteGeneration] = None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._raw.close()
                self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def ping(self) -> bool:
        """Cheap health probe: can this connection still run a statement?

        Used by the pool to validate connections on release so a broken
        connection is evicted instead of recycled.  Never raises.
        """
        with self._lock:
            if self._closed:
                return False
            try:
                self._raw.execute("SELECT 1").fetchone()
            except sqlite3.Error:
                return False
            return True

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosedError()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution ------------------------------------------------------

    def execute(self, sql: str,
                parameters: Iterable[Any] = ()) -> Cursor:
        """Prepare and execute one SQL statement.

        Returns a :class:`Cursor`; raises :class:`SQLError` subclasses on
        failure.  Dynamic SQL in the paper's sense: the statement text is
        whatever substitution produced, prepared immediately before
        execution.
        """
        with self._lock:
            self._check_open()
            if not sql.strip():
                raise SQLSyntaxError("empty SQL statement")
            try:
                raw_cursor = self._raw.execute(sql, tuple(parameters))
            except sqlite3.Error as exc:
                raise translate_error(exc, sql) from exc
            if self.generation is not None and not is_query(sql):
                # Conservative: bump even if the statement is later
                # rolled back — an extra cache miss is always sound.
                # Inside an explicit transaction the write is not yet
                # visible to other connections, so a second bump is
                # owed at COMMIT/ROLLBACK: a reader that sees this
                # post-execute generation but snapshots pre-commit data
                # must not have its cached result stay current once the
                # write lands.
                self.generation.bump()
                if self._in_transaction:
                    self._write_pending = True
            return Cursor(raw_cursor, sql)

    def watch(self, stop: Optional[Callable[[], bool]], *,
              wait_busy: bool = True) -> None:
        """Until ``watch(None)``, call ``stop`` every
        :data:`PROGRESS_STEPS` VM steps of what this connection runs: a
        true answer aborts the statement (an :class:`SQLError`).  With
        ``wait_busy=False`` a statement that finds the database locked
        fails at once too, instead of waiting in SQLite's busy handler.
        """
        raw = self._raw
        raw.set_progress_handler(stop, PROGRESS_STEPS if stop else 0)
        busy_off = stop is not None and not wait_busy and self._file
        if busy_off is not self._busy_off:
            self._busy_off = busy_off
            raw.execute("PRAGMA busy_timeout = "
                        f"{0 if busy_off else _BUSY_TIMEOUT_MS}")

    def executescript(self, script: str) -> None:
        """Run a multi-statement script (schema setup, seeding)."""
        with self._lock:
            self._check_open()
            try:
                self._raw.executescript(script)
            except sqlite3.Error as exc:
                raise translate_error(exc, script) from exc
            # ``executescript`` implicitly commits before it runs and
            # autocommits each statement, so one post-commit bump is
            # enough; any bump owed by the flushed transaction is
            # covered by it too.
            self._write_pending = False
            if self.generation is not None:
                self.generation.bump()

    # -- transactions -----------------------------------------------------

    def begin(self) -> None:
        """Open an explicit transaction (no-op if one is already open)."""
        with self._lock:
            self._check_open()
            if not self._in_transaction:
                self._raw.execute("BEGIN")
                self._in_transaction = True

    def commit(self) -> None:
        with self._lock:
            self._check_open()
            if self._in_transaction:
                self._raw.execute("COMMIT")
                self._in_transaction = False
                self._flush_pending_write()

    def rollback(self) -> None:
        with self._lock:
            self._check_open()
            if self._in_transaction:
                self._raw.execute("ROLLBACK")
                self._in_transaction = False
                self._flush_pending_write()

    def _flush_pending_write(self) -> None:
        """Bump the generation for writes the just-ended transaction made.

        Ordered *after* COMMIT so that once the new generation is
        observable, the data it stands for is already visible; results
        computed during the uncommitted window sit under the pre-flush
        generation and can never be served again.  Rollback also flushes
        — conservative, costing at most a miss.
        """
        if self._write_pending:
            self._write_pending = False
            if self.generation is not None:
                self.generation.bump()

    @property
    def in_transaction(self) -> bool:
        return self._in_transaction


def connect(database: str = ":memory:", *, uri: bool = False) -> Connection:
    """Open a connection (module-level convenience mirroring ``sqlite3``)."""
    return Connection(database, uri=uri)


class MemoryDatabase:
    """A named shared in-memory database.

    Plain ``:memory:`` gives every connection a private database, which
    breaks the pool and the CGI process model.  This wrapper uses SQLite's
    shared-cache URI form so all connections opened through
    :meth:`connect` see the same data, while holding one anchor connection
    open so the database survives between requests.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, name: Optional[str] = None):
        if name is None:
            with MemoryDatabase._counter_lock:
                MemoryDatabase._counter += 1
                name = f"repro_mem_{MemoryDatabase._counter}"
        self.name = name
        self.uri = f"file:{name}?mode=memory&cache=shared"
        #: One write generation for *all* connections to this database,
        #: whether opened through a registry or directly; the registry
        #: adopts this counter when the database is registered.
        self.generation = WriteGeneration()
        self._anchor = Connection(self.uri, uri=True)

    def connect(self) -> Connection:
        connection = Connection(self.uri, uri=True)
        connection.generation = self.generation
        return connection

    def close(self) -> None:
        self._anchor.close()

    def __enter__(self) -> "MemoryDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
