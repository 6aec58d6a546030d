"""Connection pooling for the gateway.

A 1996 CGI deployment opened a database connection per request — the
dominant cost the paper's Figure 4 data flow implies.  Here every
database a :class:`~repro.sql.gateway.DatabaseRegistry` names leases
from a bounded reusing :class:`ConnectionPool`, created at its first
connect; a CGI process that serves one request still opens and closes
one connection, because its run ends by closing the registry.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Optional

from repro.blocking import BLOCKING, WouldBlock
from repro.errors import PoolExhaustedError
from repro.resilience.deadline import Deadline
from repro.sql.connection import Connection

ConnectionFactory = Callable[[], Connection]

#: Connections a database's pool holds by default: the edge's executor
#: threads (``repro.http.async_server.EXECUTOR_THREADS`` is this value),
#: so a request on a thread never waits for a lease.
POOL_SIZE = 8


class ConnectionPool:
    """A bounded pool of reusable connections.

    ``acquire`` blocks up to ``timeout`` seconds when all connections are
    out, then raises :class:`PoolExhaustedError` (SQLSTATE 57030, matching
    DB2's "resource unavailable" class).
    """

    def __init__(self, factory: ConnectionFactory, *,
                 size: int = POOL_SIZE, timeout: float = 5.0):
        if size < 1:
            raise ValueError("pool size must be at least 1")
        self._factory = factory
        self._size = size
        self._timeout = timeout
        self._idle: queue.LifoQueue[Connection] = queue.LifoQueue()
        self._created = 0
        self._evicted = 0
        self._lock = threading.Lock()
        self._closed = False
        #: bumped by :meth:`renew`: a lease taken before it is evicted
        #: when it comes back
        self.epoch = 0

    # -- acquisition ------------------------------------------------------

    def acquire(self, *, deadline: Optional[Deadline] = None) -> Connection:
        """Check out a connection, waiting at most ``timeout`` seconds.

        A request :class:`~repro.resilience.deadline.Deadline` caps the
        wait further: a request with 50 ms of budget left never blocks
        the full pool timeout for a slot it could not use anyway.

        On the edge's loop (:mod:`repro.blocking`) the lease is an idle
        connection or :class:`~repro.blocking.WouldBlock`: it never
        waits, and never opens a new connection.
        """
        if BLOCKING.attempt is not None:
            return self._idle_now(deadline)
        while True:
            wait = self._timeout if deadline is None \
                else deadline.cap(self._timeout)
            if deadline is not None:
                deadline.check("pool acquire")
            with self._lock:
                if self._closed:
                    raise PoolExhaustedError("pool is closed")
                create = self._idle.empty() and self._created < self._size
                if create:
                    # Reserve the slot before calling the factory (outside
                    # the lock: factories may be slow); if the factory
                    # raises, the slot is reclaimed so the pool's capacity
                    # never shrinks permanently.
                    self._created += 1
            if create:
                try:
                    return self._factory()
                except BaseException:
                    with self._lock:
                        self._created -= 1
                    raise
            try:
                conn = self._idle.get(timeout=wait)
            except queue.Empty:
                raise PoolExhaustedError(
                    f"no connection available within "
                    f"{wait:.3g}s") from None
            if conn.closed:  # replace a connection that died while idle
                with self._lock:
                    self._created -= 1
                continue
            return conn

    def _idle_now(self, deadline: Optional[Deadline]) -> Connection:
        if deadline is not None:
            deadline.check("pool acquire")
        while not self._closed:
            try:
                conn = self._idle.get_nowait()
            except queue.Empty:
                raise WouldBlock("lease") from None
            if not conn.closed:
                return conn
            with self._lock:
                self._created -= 1
        raise PoolExhaustedError("pool is closed")

    def release(self, conn: Connection, *, broken: bool = False) -> None:
        """Return a connection; any open transaction is rolled back.

        Connections are health-validated on the way in: a closed, broken
        or unpingable connection is *evicted* — closed and its capacity
        slot freed so the next acquire builds a replacement — never
        recycled to another request.  Callers that saw a gateway error on
        the connection pass ``broken=True`` to skip straight to eviction;
        a connection given back to a closed pool is closed too.
        """
        if broken or self._closed or conn.closed \
                or not self._healthy(conn):
            self._evict(conn)
            return
        self._idle.put(conn)

    @staticmethod
    def _healthy(conn: Connection) -> bool:
        try:
            if conn.in_transaction:
                conn.rollback()
            return conn.ping()
        except Exception:  # noqa: BLE001 - any failure means "evict"
            return False

    def _evict(self, conn: Connection) -> None:
        with self._lock:
            self._created -= 1
            self._evicted += 1
        try:
            conn.close()
        except Exception:  # noqa: BLE001 - already broken; slot is freed
            pass

    def renew(self, factory: ConnectionFactory) -> None:
        """Open every later connection with ``factory``: the idle ones
        are closed now, and one leased before this call is evicted when
        it comes back (its lease holds the old :attr:`epoch`)."""
        with self._lock:
            self._factory = factory
            self.epoch += 1
        self._close_idle()

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self._close_idle()

    def _close_idle(self) -> None:
        while True:
            try:
                conn = self._idle.get_nowait()
            except queue.Empty:
                return
            with self._lock:
                self._created -= 1
            conn.close()

    @property
    def leased(self) -> int:
        """Connections out on lease right now."""
        return self._created - self._idle.qsize()

    @property
    def stats(self) -> dict[str, int]:
        return {"created": self._created, "idle": self._idle.qsize(),
                "size": self._size, "evicted": self._evicted}

