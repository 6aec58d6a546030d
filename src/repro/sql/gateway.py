"""The database gateway facade the macro engine talks to.

Figure 5 of the paper shows DB2WWW between the web server and "DB2
databases on a wide variety of IBM and non-IBM platforms".  The engine
does not care which database a macro targets; it resolves the macro's
``DATABASE`` variable against a :class:`DatabaseRegistry` and runs
statements through a :class:`MacroSqlSession` that enforces the chosen
transaction mode.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Generator, Iterator,
                    Optional)

from repro.blocking import BLOCKING, WouldBlock
from repro.errors import (DeadlineExceededError, SQLConnectError, SQLError,
                          SQLObjectError, is_transient)
from repro.obs.trace import END, TRACER
from repro.resilience import faults as fault_injection
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.deadline import Deadline
from repro.resilience.retry import DEFAULT_RETRY, RetryPolicy
from repro.sql.connection import Connection, MemoryDatabase
from repro.sql.cursor import Cursor, value_to_text
from repro.sql.digest import statement_digest
from repro.sql.dialect import is_cacheable_query, is_query
from repro.sql.pool import POOL_SIZE, ConnectionPool
from repro.sql.querycache import QueryResultCache, WriteGeneration
from repro.sql.transactions import TransactionMode, TransactionScope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sql.sharding import ShardMap


#: The most rows a statement's result holds in memory.  A query that
#: returns more *spills*: its first ``SPILL_ROWS + 1`` rows are fetched
#: and the rest ride the live cursor (:attr:`ExecutionResult.row_iter`),
#: so the page streams from that point on and the result is never
#: cached.  One constant, not an option: ten times the largest page the
#: benchmark serves, and about 3.5 MB of the RSS probe's rows.
SPILL_ROWS = 10_000


@dataclass
class ExecutionResult:
    """The outcome of executing one SQL statement.

    For queries, ``columns`` carries the result column names and ``rows``
    the fetched data: up to :data:`SPILL_ROWS` rows are fetched inside
    the statement's transaction bracket, so a later rollback cannot
    invalidate an open cursor mid-report.

    A *spilled* result (``row_iter`` set) is one that outgrew that
    budget, the way the 1996 report generator consumed rows one at a
    time: it carries no materialised ``rows``, its rows come off the
    live cursor and may be consumed exactly once.  ``rows_fetched``
    counts them as they are fetched, so :attr:`row_total` is correct
    after exhaustion — which is the only point the report machinery
    reads it (``ROW_NUM`` / ``ROWCOUNT`` are footer-time variables).
    """

    sql: str
    columns: list[str] = field(default_factory=list)
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    rowcount: int = 0
    is_query: bool = False
    #: A spilled result's rows, off the live cursor; ``None`` for a
    #: materialised one.  Single-use; a generator, so the engine can
    #: ``close()`` it to settle the cursor when a page dies mid-row.
    row_iter: Optional[Generator[tuple[Any, ...], None, None]] = None
    #: Rows a spilled result has fetched so far.
    rows_fetched: int = 0
    #: True when a sharded scatter-gather lost one or more shards and
    #: degradation kept the survivors (see repro.sql.sharding).  Partial
    #: results are never cached.
    partial: bool = False
    #: Labels of the shards whose rows are missing from a partial result.
    failed_shards: tuple[str, ...] = ()
    #: The printed rows of a materialised result as a report last
    #: rendered them: ``(row function, first, last, UTF-8 bytes)``, the
    #: window clipped to the rows (see
    #: :meth:`repro.core.report.ReportGenerator._render_rows`).  The one
    #: field written after the query cache shares a result, and only
    #: whole, so a reader sees one memo or the next, never a mix; it
    #: lives and dies with the result.
    rendered: Optional[tuple[Callable[..., str], int, int, bytes]] = \
        field(default=None, repr=False, compare=False)

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        """The result rows, materialised or spilled (single-use)."""
        if self.row_iter is not None:
            return self.row_iter
        return iter(self.rows)

    def iter_text_rows(self) -> Iterator[list[str]]:
        """Rows with every value rendered to gateway text form."""
        for row in self.iter_rows():
            yield [value_to_text(value) for value in row]

    @property
    def row_total(self) -> int:
        if self.row_iter is not None:
            return self.rows_fetched
        return len(self.rows)

    def close(self) -> None:
        """Settle a spilled result's cursor and bracket, whether or not
        a row was read (closing a generator that never started would
        skip its ``finally``).  No-op for a materialised result."""
        rows = self.row_iter
        if rows is not None:
            if inspect.getgeneratorstate(rows) == inspect.GEN_CREATED:
                next(rows, None)
            rows.close()


class DatabaseRegistry:
    """Named databases available to macros.

    A macro names its database with ``%DEFINE DATABASE = "..."`` (as in
    Appendix A: ``DATABASE="CELDIAL"``).  Applications register either a
    filesystem path, a :class:`MemoryDatabase`, or a connection factory
    under that name.

    Every connection is a lease from the database's
    :class:`~repro.sql.pool.ConnectionPool`, created at its first
    :meth:`connect` (so a shard or replica that serves no request holds
    no connection); :meth:`close_all` closes them.

    The registry is also where the resilience layer attaches to the
    request path: :meth:`inject_faults` wraps every factory in the fault
    harness, and :meth:`enable_breakers` puts a circuit breaker in front
    of each database so an unreachable backend fails fast
    (:class:`~repro.errors.CircuitOpenError`, surfaced by the HTTP layer
    as 503 + ``Retry-After``) instead of paying the connect cost — and
    holding a pool slot — on every request.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], Connection]] = {}
        self._generations: dict[str, WriteGeneration] = {}
        self._pools: dict[str, ConnectionPool] = {}
        #: Guards lazy pool creation: two concurrent first requests to
        #: one shard must share a pool, not leak one.
        self._pools_lock = threading.Lock()
        #: what a pool is created with (see :meth:`configure_pools`)
        self._pool_limits = {"size": POOL_SIZE, "timeout": 5.0}
        self._shard_maps: dict[str, "ShardMap"] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_config: Optional[dict[str, float]] = None
        self._injector: Optional[fault_injection.FaultInjector] = None
        self._retries = 0
        self._retry_lock = threading.Lock()
        self._closed = False

    def _reject_sharded_name(self, name: str) -> None:
        """Physical registration must not shadow a sharded logical name.

        The mirror image of :meth:`register_sharded`'s check: the engine
        resolves shard maps first, so a physical database registered
        under an existing logical name would be silently unreachable.
        """
        if name in self._shard_maps:
            raise SQLObjectError(
                f"database {name!r} is already registered as a sharded "
                "logical database; a physical name must be distinct",
                sqlstate="42710")

    def register_path(self, name: str, path: str) -> None:
        self._reject_sharded_name(name)
        self._factories[name] = lambda: Connection(path)

    def register_memory(self, name: str,
                        db: Optional[MemoryDatabase] = None) -> MemoryDatabase:
        self._reject_sharded_name(name)
        if db is None:
            db = MemoryDatabase()
        self._factories[name] = db.connect
        # Adopt the database's own counter so writes through connections
        # opened directly (db.connect()) invalidate cached results too.
        self._generations[name] = db.generation
        return db

    def register_factory(self, name: str,
                         factory: Callable[[], Connection]) -> None:
        self._reject_sharded_name(name)
        self._factories[name] = factory

    def register_sharded(self, name: str, shard_map: "ShardMap") -> None:
        """Make ``name`` a *logical* sharded database.

        A macro whose ``DATABASE`` resolves to ``name`` routes through
        the map (see :mod:`repro.sql.sharding`); the map's shard and
        replica databases must each be registered here as ordinary
        physical databases — pools, breakers and fault injection attach
        per endpoint exactly as before.
        """
        if name in self._factories:
            raise SQLObjectError(
                f"database {name!r} is already registered as a physical "
                "database; a sharded logical name must be distinct",
                sqlstate="42710")
        shard_map.validate()
        for shard in shard_map.shards:
            for endpoint in (shard.database,
                             *(r.database for r in shard.replicas)):
                if endpoint not in self._factories:
                    raise SQLObjectError(
                        f"shard map {name!r} names unregistered database "
                        f"{endpoint!r}", sqlstate="08001")
        self._shard_maps[name] = shard_map

    def unregister(self, name: str, *,
                   cache: Optional[QueryResultCache] = None) -> None:
        """Remove a registered database (or sharded logical name).

        Deleting a tenant's database must leave *nothing* behind that a
        later registration under the same name could inherit:

        * the connection pool is closed (its warm connections point at
          the old backend);
        * the write-generation counter is dropped, so a recreated name
          mints a fresh counter identity — cached results stored under
          the old counter's stamps can never match again;
        * when ``cache`` is given, the name's query-cache namespace is
          purged eagerly (the stamp mismatch already makes the entries
          unservable; purging reclaims their memory now).

        Refuses with SQLSTATE 55006 ("object in use") while connections
        to the database are leased — an active session holds
        transaction state the teardown would yank out from under it.
        """
        if name not in self._factories and name not in self._shard_maps:
            raise SQLObjectError(
                f"database {name!r} is not registered with the gateway",
                sqlstate="08001")
        with self._pools_lock:
            active = self.active_connections(name)
            if active:
                raise SQLObjectError(
                    f"database {name!r} has {active} active "
                    "connection(s); close them before unregistering",
                    sqlstate="55006")
            pool = self._pools.pop(name, None)
        if pool is not None:
            pool.close()
        self._factories.pop(name, None)
        self._shard_maps.pop(name, None)
        self._generations.pop(name, None)
        self._breakers.pop(name, None)
        if cache is not None:
            cache.invalidate_database(name)

    def active_connections(self, name: str) -> int:
        """Connections to ``name`` out on lease right now."""
        pool = self._pools.get(name)
        return 0 if pool is None else pool.leased

    # -- name scoping ------------------------------------------------------

    def resolve(self, name: str) -> str:
        """The physical name a macro-level database name maps to.

        Identity here; :class:`ScopedDatabaseRegistry` overrides it to
        prefix the tenant namespace.  The engine keys query-cache
        entries by the *resolved* name, so two tenants registering the
        same database name can never share cache entries.
        """
        return name

    def physical(self) -> "DatabaseRegistry":
        """The underlying physical registry (self for the real one)."""
        return self

    def shard_map(self, name: str) -> Optional["ShardMap"]:
        """The shard map behind a logical name (``None`` if unsharded)."""
        return self._shard_maps.get(name)

    def shard_labeled_stats(self) -> dict[str, dict[str, int]]:
        """Routing counters of every shard map, for the ``shard``
        metrics source: ``{shard_label: {counter: value}}``, the
        topology-wide counters under the empty label.  With several
        maps each label is prefixed by the (lowercased) logical name
        and a map's topology-wide counters carry that name alone.
        """
        out: dict[str, dict[str, int]] = {}
        prefixed = len(self._shard_maps) > 1
        for name, shard_map in self._shard_maps.items():
            for value, bag in shard_map.stats().items():
                if prefixed:
                    value = (f"{name.lower()}_{value}" if value
                             else name.lower())
                dest = out.setdefault(value, {})
                for key, number in bag.items():
                    dest[key] = dest.get(key, 0) + number
        return out

    def configure_pools(self, *, size: int = POOL_SIZE,
                        timeout: float = 5.0) -> None:
        """Size the pools created from now on: at most ``size``
        connections each, a lease waiting at most ``timeout`` seconds
        for one of them.  A pool exists from its database's first
        :meth:`connect`; one created before this call keeps its size."""
        self._pool_limits = {"size": size, "timeout": timeout}

    def pool(self, name: str) -> Optional[ConnectionPool]:
        return self._pools.get(name)

    def close_all(self) -> None:
        """Close every pool the registry created.  Idempotent.

        Only pools that exist are touched: with lazy creation that is
        exactly the set of endpoints that served at least one request.
        After closing, :meth:`connect` refuses with SQLSTATE 08003
        instead of silently re-opening pools.
        """
        with self._pools_lock:
            self._closed = True
            pools = list(self._pools.values())
        for pool in pools:
            pool.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- resilience attachment -------------------------------------------

    def inject_faults(
            self,
            injector: fault_injection.FaultInjector | str | None) -> None:
        """Route every connection leased from now on through a fault
        injector.

        Accepts an injector, a spec string (see
        :mod:`repro.resilience.faults`), or ``None`` to stop injecting.
        Every pool is renewed: its idle connections are closed, and one
        leased now is closed when it comes back.
        """
        if isinstance(injector, str):
            injector = fault_injection.FaultInjector.parse(injector)
        self._injector = injector
        with self._pools_lock:
            for name, pool in self._pools.items():
                pool.renew(self._wrap(self._factories[name]))

    def enable_breakers(self, *, failure_threshold: int = 5,
                        reset_timeout: float = 1.0) -> None:
        """Guard every database behind a per-database circuit breaker."""
        self._breaker_config = {"failure_threshold": failure_threshold,
                                "reset_timeout": reset_timeout}

    def breaker(self, name: str) -> Optional[CircuitBreaker]:
        """The breaker guarding ``name`` (``None`` unless enabled)."""
        if self._breaker_config is None:
            return None
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = self._breakers[name] = CircuitBreaker(
                name=name,
                failure_threshold=int(
                    self._breaker_config["failure_threshold"]),
                reset_timeout=self._breaker_config["reset_timeout"])
        return breaker

    def record_retries(self, count: int) -> None:
        """Fold one request's transparent retry count into the totals.

        The engine calls this as each macro run finishes, so the
        access log's ``resilience`` stats line shows cumulative retries
        next to the breaker and injector counters.
        """
        if count:
            with self._retry_lock:
                self._retries += count

    def resilience_stats(self) -> dict[str, int]:
        """Aggregated breaker/injector/pool counters for observability."""
        stats: dict[str, int] = {}
        with self._retry_lock:
            stats["retries"] = self._retries
        totals = {"opens": 0, "rejections": 0, "probes": 0}
        for breaker in self._breakers.values():
            for key, value in breaker.stats().items():
                if key in totals:
                    totals[key] += value
        for key, value in totals.items():
            stats[f"breaker_{key}"] = value
        if self._injector is not None:
            stats.update(self._injector.stats())
        stats["pool_evicted"] = sum(
            pool.stats["evicted"] for pool in self._pools.values())
        return stats

    # ---------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._factories or name in self._shard_maps

    def names(self) -> list[str]:
        return sorted((*self._factories, *self._shard_maps))

    def generation(self, name: str) -> WriteGeneration:
        """The write-generation counter of one registered database."""
        counter = self._generations.get(name)
        if counter is None:
            counter = self._generations[name] = WriteGeneration()
        return counter

    def connect(self, name: str, *,
                deadline: Optional[Deadline] = None) -> Connection:
        """Lease a connection to a registered database; its ``close()``
        gives it back.

        Consults the database's circuit breaker first — when it is open
        this raises :class:`~repro.errors.CircuitOpenError` in
        microseconds, without opening or waiting for a connection — and
        reports the lease's outcome back to it.

        On the edge's loop (:mod:`repro.blocking`) only an idle pooled
        connection is taken, behind a closed breaker.
        """
        factory = self._factories.get(name)
        if factory is None:
            raise SQLObjectError(
                f"database {name!r} is not registered with the gateway",
                sqlstate="08001")
        with self._pools_lock:
            if self._closed:
                raise SQLConnectError(
                    f"database registry is closed (connect to {name!r})",
                    sqlstate="08003")
            pool = self._pools.get(name)
            if pool is None:
                pool = self._pools[name] = ConnectionPool(
                    self._wrap(factory), **self._pool_limits)
        breaker = self.breaker(name)
        if breaker is not None:
            if (BLOCKING.attempt is not None
                    and breaker.state is not BreakerState.CLOSED):
                raise WouldBlock("connect")  # a probe must settle
            breaker.allow()
        try:
            connection = _LeasedConnection(
                pool, pool.acquire(deadline=deadline))
        except WouldBlock:
            raise
        except BaseException:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        if connection.generation is None:
            connection.generation = self.generation(name)
        return connection

    def _wrap(self,
              factory: Callable[[], Connection]) -> Callable[[], Connection]:
        if self._injector is None:
            return factory
        return fault_injection.wrap_factory(factory, self._injector)


class _LeasedConnection:
    """A pooled connection whose ``close()`` releases the lease.

    The engine's session model closes its connection when the request
    finishes; "close" means "give it back" — the pool health-validates
    it on the way in and evicts it if the request broke it, or if the
    pool was renewed while it was out (:meth:`ConnectionPool.renew`).
    """

    def __init__(self, pool: ConnectionPool, connection: Connection):
        self._pool = pool
        self._conn = connection
        self._epoch = pool.epoch
        self._released = False

    def close(self) -> None:
        if not self._released:
            self._released = True
            self._pool.release(self._conn,
                               broken=self._epoch != self._pool.epoch)

    @property
    def closed(self) -> bool:
        return self._released or self._conn.closed

    @property
    def generation(self):
        return self._conn.generation

    @generation.setter
    def generation(self, value) -> None:
        self._conn.generation = value

    def __getattr__(self, name: str):
        return getattr(self._conn, name)

    def __enter__(self) -> "_LeasedConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ScopedDatabaseRegistry:
    """A tenant's view of a shared :class:`DatabaseRegistry`.

    Every name is transparently prefixed with the tenant namespace
    (``tenantA/SHOP``), so two tenants may both register ``SHOP``
    without sharing a backend, a pool, a write-generation counter — or,
    because the engine keys its query cache by :meth:`resolve`'d names,
    a single cached row.  Pools, breakers and fault injection stay on
    the parent, attached per *physical* (scoped) name.
    """

    SEPARATOR = "/"

    def __init__(self, parent: DatabaseRegistry, namespace: str):
        if not namespace or self.SEPARATOR in namespace:
            raise ValueError(
                f"bad registry namespace {namespace!r}: must be a "
                f"non-empty name without {self.SEPARATOR!r}")
        self.parent = parent
        self.namespace = namespace

    def resolve(self, name: str) -> str:
        return f"{self.namespace}{self.SEPARATOR}{name}"

    def physical(self) -> DatabaseRegistry:
        return self.parent

    # -- registration (scoped) --------------------------------------------

    def register_path(self, name: str, path: str) -> None:
        self.parent.register_path(self.resolve(name), path)

    def register_memory(self, name: str,
                        db: Optional[MemoryDatabase] = None
                        ) -> MemoryDatabase:
        return self.parent.register_memory(self.resolve(name), db)

    def register_factory(self, name: str,
                         factory: Callable[[], Connection]) -> None:
        self.parent.register_factory(self.resolve(name), factory)

    def unregister(self, name: str, *,
                   cache: Optional[QueryResultCache] = None) -> None:
        self.parent.unregister(self.resolve(name), cache=cache)

    # -- the engine-facing surface ----------------------------------------

    def __contains__(self, name: str) -> bool:
        return self.resolve(name) in self.parent

    def names(self) -> list[str]:
        prefix = self.namespace + self.SEPARATOR
        return [name[len(prefix):] for name in self.parent.names()
                if name.startswith(prefix)]

    def generation(self, name: str) -> WriteGeneration:
        return self.parent.generation(self.resolve(name))

    def shard_map(self, name: str) -> Optional["ShardMap"]:
        return self.parent.shard_map(self.resolve(name))

    def connect(self, name: str, *,
                deadline: Optional[Deadline] = None) -> Connection:
        return self.parent.connect(self.resolve(name), deadline=deadline)

    def pool(self, name: str) -> Optional[ConnectionPool]:
        return self.parent.pool(self.resolve(name))

    def active_connections(self, name: str) -> int:
        return self.parent.active_connections(self.resolve(name))

    def record_retries(self, count: int) -> None:
        self.parent.record_retries(count)


def _stop_at_once() -> bool:
    """A loop statement's progress handler: it has run
    :data:`~repro.sql.connection.PROGRESS_STEPS` VM steps, so stop it."""
    return True


class MacroSqlSession:
    """All SQL activity of one macro invocation.

    Owns a connection for the duration of the request and a
    :class:`TransactionScope` implementing Section 5's two modes.  The
    engine calls :meth:`execute` once per ``%EXEC_SQL``-triggered SQL
    section and :meth:`finish` when report processing ends.

    With ``connection=None`` the session leases one from ``connect`` at
    its first statement that is not a query-cache hit (probing the cache
    meanwhile under ``generation``, the database's write counter), so a
    page whose every statement is a hit never takes a connection.
    Auto-commit mode only: a ``SINGLE`` transaction bypasses the cache.
    """

    def __init__(self, connection: Optional[Connection], *,
                 mode: TransactionMode = TransactionMode.AUTO_COMMIT,
                 owns_connection: bool = True,
                 cache: Optional[QueryResultCache] = None,
                 database: str = "",
                 generation: Optional[WriteGeneration] = None,
                 retry: Optional[RetryPolicy] = None,
                 deadline: Optional[Deadline] = None,
                 connect: Optional[Callable[[], Connection]] = None):
        self.connection = connection
        self._connect = connect
        self.scope = TransactionScope(connection, mode)
        self._owns_connection = owns_connection
        self.statement_log: list[str] = []
        #: Optional shared SELECT-result cache (see repro.sql.querycache).
        #: Only consulted in auto-commit mode and only when a write
        #: generation is available; ``database`` scopes the cache keys.
        self.cache = cache
        self.database = database
        self.generation = generation if generation is not None \
            or connection is None else connection.generation
        #: Retry policy for transient failures of *idempotent reads*
        #: (never applied to writes or inside an open transaction).
        self.retry = retry
        #: Per-request deadline; checked before each attempt and before
        #: each backoff sleep.
        self.deadline = deadline
        #: Cache hits served by this session (request-level observability).
        self.cache_hits = 0
        #: What the page read, for reusing it whole (``MacroEngine.
        #: execute``): ``(sql, result)`` per statement, in order, while
        #: every one was a query-cache hit; ``None`` once one was not.
        self.reads: Optional[list[tuple[str, ExecutionResult]]] = []
        #: Statement retries performed by this session.
        self.retries = 0

    def _retryable(self, sql: str) -> bool:
        """May this statement be transparently re-run after a failure?

        Only idempotent pure reads qualify, and never while an explicit
        transaction is open: re-running a read mid-transaction would
        widen its footprint, and re-running a *write* is out of the
        question (the paper's single-transaction mode rolls back and
        reports instead, Section 5).
        """
        return (self.scope.mode is not TransactionMode.SINGLE
                and not self.connection.in_transaction
                and is_cacheable_query(sql))

    def execute(self, sql: str) -> ExecutionResult:
        """Run one dynamically assembled SQL statement.

        Raises :class:`SQLError` on failure *after* recording it with the
        transaction scope (so single-mode rollback happens before the
        engine sees the exception).

        When a query cache is attached (and usable — auto-commit mode,
        pure-read statement (``SELECT``/``VALUES``/``WITH``; PRAGMA and
        EXPLAIN always re-execute), generation counter present), an
        unexpired cached result is returned without touching the
        database; a fresh result is stored under the generation stamp
        observed *before* execution, so a concurrent write can only make
        the entry stale, never wrong.

        Transient failures (:func:`repro.errors.is_transient`) of
        idempotent reads are retried under the session's policy with
        exponential backoff, within the request deadline.  When an
        ambient fault injector is active (chaos mode) it fires here —
        before the statement touches the database — and, absent an
        explicit policy, is absorbed by a default one.

        A query of more than :data:`SPILL_ROWS` rows spills: its rows
        ride the live cursor (:attr:`ExecutionResult.row_iter`) and the
        statement's transaction bracket closes when the iterator is
        exhausted (or abandoned).  A spilled result is never cached —
        its rows can be consumed only once — and only fetching its first
        rows is retryable; a failure past them propagates, since rows
        already handed out cannot be taken back.

        With tracing enabled, each call records a ``sql.execute``
        row carrying the statement digest, database, truncated SQL
        text, cache outcome and row count.  For a spilled result the
        span's duration covers the first fetch only (the rest are
        fetched later, inside ``report.render``); the ``rows``
        attribute is still filled in as the cursor drains.
        """
        trace = TRACER.current()
        if trace is None:
            return self._execute(sql)
        attrs = {"digest": statement_digest(sql)}
        if self.database:
            attrs["database"] = self.database
        attrs["sql"] = sql[:200]
        row = trace.open("sql.execute", attrs)
        try:
            hits_before = self.cache_hits
            result = self._execute(sql)
            if self.cache_hits > hits_before:
                attrs["cached"] = True
            if result.row_iter is not None:
                attrs["streaming"] = True
                result.row_iter = self._counted_rows(
                    result.row_iter, result, attrs)
            else:
                attrs["rows"] = result.row_total
            return result
        except BaseException as exc:
            attrs.setdefault("error", type(exc).__name__)
            sqlstate = getattr(exc, "sqlstate", None)
            if sqlstate:
                attrs["sqlstate"] = sqlstate
            raise
        finally:
            row[END] = time.perf_counter()

    @staticmethod
    def _counted_rows(row_iter: Iterator[tuple[Any, ...]],
                      result: ExecutionResult,
                      attrs: dict) -> Iterator[tuple[Any, ...]]:
        """Pass rows through; record the final count in ``attrs`` (the
        ``sql.execute`` row's).

        ``row_iter`` is the pre-wrap cursor iterator (``result.row_iter``
        points at this generator by the time it first runs).  The count
        lands after the row has ended — delivery (and worker export)
        happens at request end, well after the cursor drains.
        """
        try:
            yield from row_iter
        finally:
            attrs["rows"] = result.rows_fetched

    def _execute(self, sql: str) -> ExecutionResult:
        """The uninstrumented execution path (see :meth:`execute`)."""
        self.statement_log.append(sql)
        if self.deadline is not None:
            self.deadline.check("statement")
        read = (self.scope.mode is not TransactionMode.SINGLE
                and is_cacheable_query(sql))
        if not read and BLOCKING.attempt is not None:
            raise WouldBlock("write")
        use_cache = (read and self.cache is not None
                     and self.generation is not None)
        if use_cache:
            stamp = self.generation.stamp()
            cached = self.cache.get(self.database, sql, stamp)
            if cached is not None:
                self.cache_hits += 1
                self.scope.statements_run += 1  # counted, not bracketed
                if self.reads is not None:
                    self.reads.append((sql, cached))
                return cached
        self.reads = None
        if self.connection is None:
            self._lease()
        ambient = fault_injection.ambient_injector()
        retryable = self._retryable(sql)
        policy = self.retry
        if policy is None and ambient is not None:
            policy = DEFAULT_RETRY
        attempt = 1
        while True:
            try:
                if ambient is not None and retryable:
                    ambient.before_query(sql)
                result = self._execute_once(sql)
            except SQLError as exc:
                if (not retryable or policy is None
                        or attempt >= policy.max_attempts
                        or not is_transient(exc)):
                    raise
                delay = policy.delay(attempt)
                if (self.deadline is not None
                        and self.deadline.remaining() <= delay):
                    raise
                if BLOCKING.attempt is not None:
                    raise WouldBlock("sleep") from None
                self.retries += 1
                attempt += 1
                time.sleep(delay)
                continue
            if use_cache and result.is_query:
                self.cache.put(self.database, sql, stamp, result)
            return result

    def _execute_once(self, sql: str) -> ExecutionResult:
        """One bracketed attempt at a statement.

        A result set is fetched up to one row past :data:`SPILL_ROWS`.
        Within the budget it is materialised and the bracket closes
        here; past it the result spills and the bracket stays open until
        its row iterator is exhausted or dropped (the engine consumes
        each result fully before running the next directive, so no two
        brackets ever overlap).

        Executing and fetching are watched (:meth:`Connection.watch
        <repro.sql.connection.Connection.watch>`) on the edge's loop,
        where the statement stops after
        :data:`~repro.sql.connection.PROGRESS_STEPS` VM steps, on a busy
        database, or at a spill (its cursor and bracket closed first),
        each as :class:`~repro.blocking.WouldBlock`; and under a
        deadline, which then stops the statement as
        :class:`~repro.errors.DeadlineExceededError`.
        """
        self.scope.before_statement()
        connection, deadline = self.connection, self.deadline
        on_loop = BLOCKING.attempt is not None
        stop = _stop_at_once if on_loop else None
        if deadline is not None and not on_loop:
            stop = lambda: deadline.expired  # noqa: E731
        if stop is not None:
            connection.watch(stop, wait_busy=not on_loop)
        cursor = None
        try:
            try:
                cursor = connection.execute(sql)
                rows = cursor.fetchmany(SPILL_ROWS + 1) \
                    if cursor.has_result_set else None
            finally:
                if stop is not None:
                    connection.watch(None)
        except SQLError as exc:
            if cursor is not None:
                cursor.close()
            self.scope.after_statement(exc)
            if on_loop:
                raise WouldBlock("statement") from exc
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "request deadline expired during a statement") from exc
            raise
        if rows is None:
            result = ExecutionResult(
                sql=sql, rowcount=max(cursor.rowcount, 0),
                is_query=is_query(sql))
            self.scope.after_statement(None)
            return result
        result = ExecutionResult(sql=sql, columns=cursor.column_names,
                                 is_query=True)
        if len(rows) <= SPILL_ROWS:
            result.rows = rows
            result.rowcount = len(rows)
            self.scope.after_statement(None)
        elif on_loop:
            cursor.close()
            self.scope.after_statement(None)
            raise WouldBlock("spill")
        else:
            result.rows_fetched = len(rows)
            result.row_iter = self._spill(cursor, rows, result)
        return result

    def _spill(self, cursor: Cursor, head: list[tuple[Any, ...]],
               result: ExecutionResult) -> Iterator[tuple[Any, ...]]:
        """Yield the fetched rows, then the live cursor's; then close the
        bracket.

        Under a deadline the cursor is watched while it drains, so an
        expiry stops it as :class:`~repro.errors.DeadlineExceededError`
        (a served page then ends truncated, its connection closed).
        The ``finally`` also runs when the consumer abandons the
        iterator (a client disconnecting mid-page): the read's bracket
        completes cleanly with whatever was fetched.
        """
        error: Optional[SQLError] = None
        deadline, connection = self.deadline, self.connection
        try:
            yield from head
            del head[:]
            if deadline is not None:
                connection.watch(lambda: deadline.expired)
            for row in cursor:
                result.rows_fetched += 1
                yield row
        except SQLError as exc:
            error = exc
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "request deadline expired during a statement") from exc
            raise
        finally:
            if deadline is not None:
                connection.watch(None)
            cursor.close()
            self.scope.after_statement(error)

    def _lease(self) -> None:
        """Take the deferred connection (breaker, closed-registry and
        deadline checks all happen here, in ``connect``).  Its writes
        must bump the counter the cache stamps come from, so it is
        pointed at it, as a sharded session does with its endpoints."""
        connection = self.connection = self.scope.connection = \
            self._connect()  # type: ignore[misc]
        connection.generation = self.generation

    @property
    def failed(self) -> bool:
        return self.scope.failed

    def finish(self, success: bool = True) -> None:
        self._connect = None  # it may close over its caller: no cycle
        self.scope.finish(success)
        if self._owns_connection and self.connection is not None:
            self.connection.close()

    def __enter__(self) -> "MacroSqlSession":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.finish(success=exc_type is None)
