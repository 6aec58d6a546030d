"""The sharded and replicated data tier behind one logical database.

Figure 5 of the paper puts the gateway in front of "DB2 databases on a
wide variety of IBM and non-IBM platforms" — plural.  Everything up to
now resolved a macro's ``DATABASE`` variable to exactly one backend;
this module makes a registered name stand for a *topology* instead:

* a :class:`ShardMap` partitions one logical database over N physical
  **shards**, routed by hash or range on a macro-declared shard key
  (``%DEFINE SHARD_KEY = "$(cust_id)"``; explicit ``DATABASE`` pinning
  to a physical name keeps working unchanged);
* each shard may carry read **replicas**; cacheable SELECTs
  (:func:`~repro.sql.dialect.is_cacheable_query` — PRAGMA/EXPLAIN and
  every write always go to the primary) are served by a replica unless
  its circuit breaker is open or its observed lag exceeds the map's
  bound, in which case the read falls back to the primary;
* a statement with **no** shard key fans out: cacheable SELECTs run on
  every shard in parallel threads and their rows merge back through one
  row iterator, materialised or spilled like any result
  (:data:`~repro.sql.gateway.SPILL_ROWS`) — an ordered k-way merge when
  the statement ends in a recognizable
  ``ORDER BY`` over selected columns, arrival-order interleave
  otherwise; writes and DDL execute on every shard sequentially
  (schema changes must land everywhere).  A trailing ``LIMIT``/
  ``OFFSET`` is *global*: each shard runs without the offset and with
  the limit widened to ``limit + offset`` rows, and the merge
  re-applies the exact ``[offset, offset + limit)`` window over the
  merged order — never ``limit`` rows per shard.  Non-literal bounds,
  and ``ORDER BY ... LIMIT`` whose ordering terms the merge cannot map
  onto the selected columns, are refused with SQLSTATE 0A000 rather
  than answered with the wrong window.

**Correctness core** — the cache can never serve a stale cross-shard
merge: a merged result is stored under the *tuple* of every shard's
:meth:`~repro.sql.querycache.WriteGeneration.stamp`, composed in the
same observed-before-execution order as PR 1's single-database stamps.
A write routed to one shard bumps only that shard's generation (the
owning shard's counter rides the physical connection), so a shard-B-only
cached SELECT survives a shard-A write while every cross-shard merge
containing shard A is invalidated.  Commit/rollback double-bumps
compose per shard exactly as before — the tuple changes whenever any
element does.  Replica-served rows never enter the cache (a replica
whose lag is within the bound may still trail the primary's generation,
and a stale row set stored under a current stamp would validate until
the *next* write — unbounded staleness from bounded lag); replica
sessions read the shared cache but store nothing, and a merged result
is cached only when every shard answered from its primary.

**Degradation** rides the resilience layer: every shard worker gets a
per-shard deadline budget (the request deadline tightened by the map's
``shard_timeout``), breaker-open and connect failures surface per
endpoint, and with ``degrade=True`` a failed shard costs its partition
of the rows — the merge keeps streaming, marks the result ``partial``
and names the ``failed_shards`` — instead of the whole report.  Partial
results are never cached.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import re
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    SQLConnectError,
    SQLError,
)
from repro.obs.trace import ATTRS, END, TRACER
from repro.resilience.deadline import Deadline
from repro.resilience.retry import RetryPolicy
from repro.sql.dialect import is_cacheable_query, is_query
from repro.sql.digest import statement_digest
from repro.sql.querycache import QueryResultCache
from repro.sql.transactions import TransactionMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sql.gateway import (
        DatabaseRegistry, ExecutionResult, MacroSqlSession)

__all__ = ["Replica", "Shard", "ShardMap", "ShardedSqlSession",
           "parse_order_by", "parse_trailing_limit"]

#: Queue depth per shard stream: bounds merge-side memory to
#: ``shards * _STREAM_DEPTH`` rows however fast a shard produces.
_STREAM_DEPTH = 256

#: How often a blocked worker re-checks the abandonment flag.
_PUT_TICK = 0.05


@dataclass
class Replica:
    """One read replica of a shard.

    ``lag`` models observed replication delay in seconds (a real
    deployment would measure it; benches and the chaos harness set it).
    A replica whose lag exceeds the map's ``lag_bound`` is skipped for
    routing until it catches up.
    """

    database: str
    lag: float = 0.0


@dataclass
class Shard:
    """One partition of a sharded logical database."""

    index: int
    database: str                      # physical primary name
    replicas: list[Replica] = field(default_factory=list)
    #: Exclusive upper bound of this shard's key range (range strategy
    #: only; the last shard is the catch-all and has none).
    upper: Optional[str] = None

    @property
    def label(self) -> str:
        return str(self.index)


def _range_point(text: str):
    """A range-comparison key: numeric when the text parses, else text.

    The tag keeps mixed topologies totally ordered (all numerics sort
    before all strings) instead of raising mid-route.
    """
    try:
        return (0, float(text), "")
    except ValueError:
        return (1, 0.0, text)


class ShardMap:
    """Topology and routing policy of one sharded logical database.

    Thread-safe: routing is pure, counters sit under one lock.  The map
    is registered with a :class:`~repro.sql.gateway.DatabaseRegistry`
    under the logical name (``registry.register_sharded``); the shard
    and replica ``database`` names must be registered as ordinary
    physical databases — that is where pools, breakers and fault
    injectors attach, one per endpoint, exactly as before.
    """

    def __init__(self, name: str, *, key_variable: str = "SHARD_KEY",
                 strategy: str = "hash", lag_bound: float = 1.0,
                 shard_timeout: Optional[float] = None):
        if strategy not in ("hash", "range"):
            raise ValueError(f"unknown shard strategy {strategy!r}: "
                             "expected 'hash' or 'range'")
        self.name = name
        self.key_variable = key_variable
        self.strategy = strategy
        self.lag_bound = lag_bound
        #: Per-shard slice of the request deadline; a shard slower than
        #: this degrades (or fails) alone instead of spending the whole
        #: request budget.
        self.shard_timeout = shard_timeout
        self.shards: list[Shard] = []
        self._rr = 0
        self._lock = threading.Lock()
        #: routing counters keyed (shard label, counter); the empty
        #: label holds the topology-wide ones
        self._counters: dict[tuple[str, str], int] = {}

    # -- topology --------------------------------------------------------

    def add_shard(self, database: str, *,
                  replicas: tuple[str, ...] | list[str] = (),
                  upper: Optional[str] = None) -> Shard:
        """Append one shard (routing order is append order).

        ``upper`` is the exclusive upper key bound for range routing;
        every shard but the last must carry one, in ascending order.
        """
        shard = Shard(index=len(self.shards), database=database,
                      replicas=[Replica(r) for r in replicas],
                      upper=upper)
        self.shards.append(shard)
        return shard

    def replica(self, shard_index: int, database: str) -> Replica:
        """The named replica of one shard (for lag updates in tests,
        benches and an eventual replication prober)."""
        for replica in self.shards[shard_index].replicas:
            if replica.database == database:
                return replica
        raise KeyError(f"shard {shard_index} of {self.name!r} has no "
                       f"replica {database!r}")

    def validate(self) -> None:
        if not self.shards:
            raise ValueError(f"shard map {self.name!r} has no shards")
        if self.strategy == "range":
            uppers = [s.upper for s in self.shards[:-1]]
            if any(u is None for u in uppers):
                raise ValueError(
                    f"range-routed map {self.name!r}: every shard but "
                    "the last needs an upper bound")
            points = [_range_point(u) for u in uppers]  # type: ignore[arg-type]
            if points != sorted(points):
                raise ValueError(
                    f"range-routed map {self.name!r}: upper bounds must "
                    "ascend")

    # -- routing ---------------------------------------------------------

    def route(self, key: str) -> Shard:
        """The shard owning ``key`` (deterministic across processes)."""
        if not self.shards:
            raise ValueError(f"shard map {self.name!r} has no shards")
        if self.strategy == "range":
            point = _range_point(key)
            for shard in self.shards[:-1]:
                if point < _range_point(shard.upper):  # type: ignore[arg-type]
                    return shard
            return self.shards[-1]
        digest = zlib.crc32(key.encode("utf-8", "replace"))
        return self.shards[digest % len(self.shards)]

    def choose_replica(self, shard: Shard) -> Optional[Replica]:
        """A replica eligible to serve a cacheable read, or ``None``.

        Round-robin over the replicas whose observed lag is within the
        bound; the caller still falls back to the primary when the
        chosen replica's breaker is open or its connect fails.
        """
        eligible = [r for r in shard.replicas if r.lag <= self.lag_bound]
        if not eligible:
            if shard.replicas:
                self.count("replica_lagged")
            return None
        with self._lock:
            self._rr += 1
            return eligible[self._rr % len(eligible)]

    # -- observability ---------------------------------------------------

    #: Every key :meth:`count` takes: cumulative, so ``/metrics`` types
    #: them as counters (the topology sizes ``shards``/``replicas`` in
    #: :meth:`stats` are gauges).
    COUNTERS = frozenset({
        "fanout_writes", "interleaved_merges", "ordered_merges",
        "partial_results", "replica_lagged", "scatter_queries",
        "replica_fallbacks", "replica_reads", "routed", "scatter",
        "failures"})

    def count(self, key: str, *, label: str = "") -> None:
        assert key in self.COUNTERS, key
        with self._lock:
            slot = (label, key)
            self._counters[slot] = self._counters.get(slot, 0) + 1

    def count_shard(self, shard: Shard, key: str) -> None:
        self.count(key, label=shard.label)

    def stats(self) -> dict[str, dict[str, int]]:
        """Cumulative routing counters by shard label:
        ``{label: {counter: value}}``, the topology-wide counters and
        the shard/replica counts under the empty label."""
        with self._lock:
            counters = dict(self._counters)
        out: dict[str, dict[str, int]] = {"": {
            "shards": len(self.shards),
            "replicas": sum(len(s.replicas) for s in self.shards)}}
        for (label, key), value in counters.items():
            out.setdefault(label, {})[key] = value
        return out


# ---------------------------------------------------------------------------
# ORDER BY recognition for the ordered k-way merge
# ---------------------------------------------------------------------------

_ORDER_BY_RE = re.compile(
    r"\border\s+by\s+(?P<terms>[^()]*?)\s*"
    r"(?:limit\s+[^()\s]+(?:\s+offset\s+[^()\s]+)?\s*)?;?\s*$",
    re.IGNORECASE | re.DOTALL)

_ORDER_TERM_RE = re.compile(
    r'^\s*(?:(?P<ordinal>\d+)|(?P<ident>(?:"[^"]+"|[A-Za-z_]\w*)'
    r'(?:\.(?:"[^"]+"|[A-Za-z_]\w*))*))'
    r"(?:\s+(?P<dir>asc|desc))?\s*$",
    re.IGNORECASE)

#: Loose ORDER BY presence check (anywhere, even in a subquery).  Used
#: only to decide whether an unmergeable LIMIT query must be *refused*
#: instead of truncated; a false positive costs a conservative 0A000,
#: never a wrong row window.
_ANY_ORDER_BY_RE = re.compile(r"\border\s+by\b", re.IGNORECASE)

#: A statement-trailing ``LIMIT n [OFFSET m]`` / ``LIMIT m, n`` clause.
#: ``[^()\s,]+`` keeps a subquery's ``LIMIT 5)`` from matching, exactly
#: like the ORDER BY recognizer above.
_TRAILING_LIMIT_RE = re.compile(
    r"\blimit\s+(?P<first>[^()\s,;]+)"
    r"(?:\s*,\s*(?P<second>[^()\s,;]+)"
    r"|\s+offset\s+(?P<offset>[^()\s,;]+))?"
    r"\s*;?\s*$",
    re.IGNORECASE)


def parse_trailing_limit(sql: str) -> tuple[str, Optional[int], int]:
    """Split a statement-trailing ``LIMIT``/``OFFSET`` off ``sql``.

    Returns ``(base_sql, limit, offset)``: the statement with the
    clause removed, the row limit (``None`` when absent or negative —
    SQLite treats a negative limit as unbounded) and the non-negative
    offset.  Both spellings are understood: ``LIMIT n OFFSET m`` and
    the MySQL-style ``LIMIT m, n``.

    The scatter path must re-apply these *globally* after the merge —
    a per-shard ``LIMIT n`` would return up to ``n × shards`` rows and
    a per-shard ``OFFSET m`` would drop rows that belong in the global
    window.  Raises :class:`ValueError` when the clause's bounds are
    not integer literals (an expression cannot be widened or re-applied
    post-merge, so the caller refuses to scatter).
    """
    match = _TRAILING_LIMIT_RE.search(sql)
    if match is None:
        return sql, None, 0

    def bound(text: str) -> int:
        try:
            return int(text, 10)
        except ValueError:
            raise ValueError(
                f"LIMIT/OFFSET bound {text!r} is not an integer literal")

    first = bound(match.group("first"))
    if match.group("second") is not None:
        offset, limit = first, bound(match.group("second"))
    elif match.group("offset") is not None:
        limit, offset = first, bound(match.group("offset"))
    else:
        limit, offset = first, 0
    return (sql[:match.start()].rstrip(),
            None if limit < 0 else limit,
            max(offset, 0))


def parse_order_by(sql: str,
                   columns: list[str]) -> Optional[list[tuple[int, bool]]]:
    """The trailing ``ORDER BY`` as ``(column_index, descending)`` pairs.

    Returns ``None`` whenever the clause is absent or not *provably*
    mappable onto the selected columns (expressions, ``COLLATE``,
    ``NULLS FIRST``, an identifier that names no result column, an
    ordinal out of range) — the merge then degrades to arrival-order
    interleave, which promises nothing and is therefore always safe.
    """
    match = _ORDER_BY_RE.search(sql)
    if match is None:
        return None
    lowered = {name.lower(): index
               for index, name in reversed(list(enumerate(columns)))}
    order: list[tuple[int, bool]] = []
    for term in match.group("terms").split(","):
        parsed = _ORDER_TERM_RE.match(term)
        if parsed is None:
            return None
        if parsed.group("ordinal") is not None:
            index = int(parsed.group("ordinal")) - 1
            if not 0 <= index < len(columns):
                return None
        else:
            # A qualified name orders by its last component; quoted
            # identifiers compare literally, bare ones case-folded.
            leaf = parsed.group("ident").split(".")[-1]
            if leaf.startswith('"'):
                leaf = leaf[1:-1]
            index = lowered.get(leaf.lower(), -1)
            if index < 0:
                return None
        order.append((index, (parsed.group("dir") or "").lower() == "desc"))
    return order or None


class _OrderKey:
    """SQL-flavoured comparison wrapper for one merge-key component.

    Implements SQLite's ordering: NULLs first ascending (so last
    descending — DESC is the exact reverse), and a total order across
    mixed types (numbers before text) instead of a ``TypeError``.
    """

    __slots__ = ("value", "desc")

    def __init__(self, value: Any, desc: bool):
        self.value = value
        self.desc = desc

    def __eq__(self, other: object) -> bool:
        return self.value == other.value  # type: ignore[attr-defined]

    def __lt__(self, other: "_OrderKey") -> bool:
        a, b = self.value, other.value
        if self.desc:
            a, b = b, a
        if a is None:
            return b is not None
        if b is None:
            return False
        try:
            return a < b
        except TypeError:
            a_num = isinstance(a, (int, float))
            b_num = isinstance(b, (int, float))
            if a_num != b_num:
                return a_num
            return str(a) < str(b)


# ---------------------------------------------------------------------------
# Scatter-gather plumbing
# ---------------------------------------------------------------------------


class _Abandoned(Exception):
    """The merge consumer went away; the worker must stop producing."""


class _ShardStream:
    """One shard's half of the scatter: a bounded queue a worker fills.

    Items are ``("columns", list)``, then ``("row", tuple)`` repeated,
    then exactly one of ``("done", None)`` / ``("error", SQLError)``.
    """

    __slots__ = ("shard", "endpoint", "queue", "row")

    def __init__(self, shard: Shard, row: Optional[list]):
        self.shard = shard
        self.endpoint = shard.database
        self.queue: "queue.Queue[tuple[str, Any]]" = \
            queue.Queue(maxsize=_STREAM_DEPTH)
        #: the ``shard.execute`` row (its attrs a dict), or ``None``
        self.row = row

    def put(self, item: tuple[str, Any], abandoned: threading.Event) -> None:
        while True:
            if abandoned.is_set():
                raise _Abandoned()
            try:
                self.queue.put(item, timeout=_PUT_TICK)
                return
            except queue.Full:
                continue


def _spilled_merge(head: list[tuple[Any, ...]],
                   rows: Iterator[tuple[Any, ...]]
                   ) -> Iterator[tuple[Any, ...]]:
    """A spilled scatter's rows: the merged ones fetched, then the rest
    of the merge, which closing this stops (workers and all)."""
    try:
        yield from head
        del head[:]
        yield from rows
    finally:
        rows.close()


class _ReplicaReadCache:
    """A store-nothing view of the shared query cache for replica reads.

    Every cached entry is primary data under a primary generation stamp,
    so a replica session may *serve* hits safely.  It must never *store*:
    a replica within the lag bound can still trail the primary's
    generation, and stale rows written under the current stamp would
    keep validating until the next write — bounded replication lag
    turned into unbounded cache staleness.
    """

    __slots__ = ("_cache",)

    def __init__(self, cache: QueryResultCache):
        self._cache = cache

    def get(self, database, sql, generation):
        return self._cache.get(database, sql, generation)

    def put(self, database, sql, generation, result) -> bool:
        return False


class ShardedSqlSession:
    """All SQL activity of one macro invocation against a sharded tier.

    The engine-facing twin of :class:`~repro.sql.gateway.
    MacroSqlSession`: same ``execute``/``finish``/``failed`` surface,
    but statements route through a :class:`ShardMap`.  Per-shard (and
    per-replica) inner sessions are created lazily — a request that
    pins to one shard touches one connection, one pool, one breaker —
    and all finish together when the request does.

    In ``SINGLE`` transaction mode a shard key is **required** and every
    statement runs on the pinned shard's primary (the all-or-nothing
    bracket of Section 5 cannot span backends); a keyless statement
    raises SQLSTATE 0A000 instead of silently breaking atomicity.
    """

    def __init__(self, registry: "DatabaseRegistry", shard_map: ShardMap, *,
                 shard_key: Optional[str] = None,
                 mode: TransactionMode = TransactionMode.AUTO_COMMIT,
                 cache: Optional[QueryResultCache] = None,
                 retry: Optional[RetryPolicy] = None,
                 deadline: Optional[Deadline] = None,
                 degrade: bool = False):
        shard_map.validate()
        self.registry = registry
        self.map = shard_map
        self.shard_key = shard_key if shard_key else None
        self.mode = mode
        self.cache = cache
        self.retry = retry
        self.deadline = deadline
        self.degrade = degrade
        self.statement_log: list[str] = []
        #: Cross-shard merge results served from cache (inner sessions
        #: count their own single-shard hits).
        self._merge_hits = 0
        self._sessions: dict[tuple[int, str], "MacroSqlSession"] = {}
        self._sessions_lock = threading.Lock()
        self._finished = False

    # -- the MacroSqlSession surface the engine consumes -----------------

    def _all_sessions(self) -> list["MacroSqlSession"]:
        """Snapshot of the inner sessions (scatter workers insert
        concurrently; iterating the live dict would race them)."""
        with self._sessions_lock:
            return list(self._sessions.values())

    @property
    def failed(self) -> bool:
        return any(s.failed for s in self._all_sessions())

    @property
    def retries(self) -> int:
        return sum(s.retries for s in self._all_sessions())

    @property
    def cache_hits(self) -> int:
        return self._merge_hits + sum(s.cache_hits
                                      for s in self._all_sessions())

    def finish(self, success: bool = True) -> None:
        with self._sessions_lock:
            if self._finished:
                return
            self._finished = True
            sessions = list(self._sessions.values())
        for session in sessions:
            session.finish(success=success and not session.failed)

    def __enter__(self) -> "ShardedSqlSession":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.finish(success=exc_type is None)

    # -- execution -------------------------------------------------------

    def execute(self, sql: str) -> "ExecutionResult":
        """Route one statement through the shard map.

        * shard key present → the owning shard (replica-eligible when
          the statement is a cacheable SELECT);
        * no key, cacheable SELECT → parallel scatter-gather merge;
        * no key, other row-returning statement (PRAGMA/EXPLAIN) → the
          first shard's primary (connection-scoped state is meaningless
          across shards; one backend answers for the topology);
        * no key, write/DDL → every shard sequentially (each bump lands
          on its own shard's generation).
        """
        self.statement_log.append(sql)
        if self.mode is TransactionMode.SINGLE:
            if self.shard_key is None:
                raise SQLError(
                    f"sharded database {self.map.name!r}: single-"
                    "transaction mode requires a shard key (a cross-"
                    "shard transaction cannot be atomic)",
                    sqlstate="0A000")
            shard = self.map.route(self.shard_key)
            self.map.count_shard(shard, "routed")
            return self._primary_session(shard).execute(sql)
        if self.shard_key is not None:
            shard = self.map.route(self.shard_key)
            self.map.count_shard(shard, "routed")
            return self._execute_on(shard, sql)
        if is_cacheable_query(sql):
            return self._scatter(sql)
        if is_query(sql):
            shard = self.map.shards[0]
            self.map.count_shard(shard, "routed")
            return self._primary_session(shard).execute(sql)
        return self._fanout_write(sql)

    # -- single-shard path -----------------------------------------------

    def _execute_on(self, shard: Shard, sql: str) -> "ExecutionResult":
        session = self._session_for_read(shard, sql)
        return session.execute(sql)

    def _session_for_read(self, shard: Shard,
                          sql: str) -> "MacroSqlSession":
        """The session a routed statement runs on.

        Replica selection consults :func:`is_cacheable_query`, not
        :func:`is_query`: PRAGMA and EXPLAIN return rows but read (or
        mutate) per-connection state, so they — like every write — must
        always reach the primary.
        """
        if not is_cacheable_query(sql):
            return self._primary_session(shard)
        replica = self.map.choose_replica(shard)
        if replica is None:
            return self._primary_session(shard)
        try:
            session = self._endpoint_session(shard, replica.database)
        except (CircuitOpenError, SQLConnectError):
            # Breaker open or the replica would not connect: the
            # primary can always serve a read.
            self.map.count_shard(shard, "replica_fallbacks")
            return self._primary_session(shard)
        self.map.count_shard(shard, "replica_reads")
        return session

    def _primary_session(self, shard: Shard) -> "MacroSqlSession":
        return self._endpoint_session(shard, shard.database)

    def _endpoint_session(self, shard: Shard,
                          endpoint: str) -> "MacroSqlSession":
        """Get-or-create the lazy inner session for one endpoint.

        Every session of a shard — primary or replica — shares the
        shard-scoped cache namespace (``LOGICAL#index``) and consults
        the *primary's* write generation, but a replica session gets a
        store-nothing cache view: it may serve primary-stamped hits,
        never record its own (possibly lagging) rows under a current
        stamp.  After :meth:`finish` no new endpoint session may be
        created — a scatter worker racing the request's teardown gets
        SQLSTATE 08003 instead of leaking an unfinished connection.
        """
        from repro.sql.gateway import MacroSqlSession

        key = (shard.index, endpoint)
        with self._sessions_lock:
            if self._finished:
                raise SQLConnectError(
                    f"sharded session for {self.map.name!r} is finished "
                    f"(connect to {endpoint!r})", sqlstate="08003")
            session = self._sessions.get(key)
        if session is not None:
            return session
        connection = self.registry.connect(endpoint,
                                           deadline=self.deadline)
        generation = self.registry.generation(shard.database)
        # The connection's write-bump counter must be the counter the
        # session stamps cache entries with.  Factories may pre-attach
        # their own (MemoryDatabase does) and the registry leaves those
        # in place — a write would then bump a counter no stamp ever
        # reads, and stale entries would keep validating.
        connection.generation = generation
        # A keyless session reads only through the scatter, which
        # caches the merge, never one shard's part of it.
        cache = self.cache if self.shard_key is not None else None
        if cache is not None and endpoint != shard.database:
            cache = _ReplicaReadCache(cache)
        created = MacroSqlSession(
            connection, mode=self.mode, cache=cache,
            database=f"{self.map.name}#{shard.index}",
            generation=generation,
            retry=self.retry, deadline=self.deadline)
        with self._sessions_lock:
            if self._finished:
                session = None
            else:
                session = self._sessions.setdefault(key, created)
        if session is not created:
            # Lost a (benign) creation race, or the request finished
            # mid-creation: release the spare connection either way.
            created.finish()
            if session is None:
                raise SQLConnectError(
                    f"sharded session for {self.map.name!r} finished "
                    f"during connect to {endpoint!r}", sqlstate="08003")
        return session

    # -- fan-out write ---------------------------------------------------

    def _fanout_write(self, sql: str) -> "ExecutionResult":
        """Run a keyless write/DDL on every shard, summing rowcounts."""
        from repro.sql.gateway import ExecutionResult

        self.map.count("fanout_writes")
        rowcount = 0
        for shard in self.map.shards:
            result = self._primary_session(shard).execute(sql)
            rowcount += result.rowcount
        return ExecutionResult(sql=sql, rowcount=rowcount, is_query=False)

    # -- scatter-gather --------------------------------------------------

    def _composite_stamp(self) -> tuple:
        """Every shard's generation stamp, observed before execution.

        The tuple is the cross-shard analogue of PR 1's single stamp:
        a write on any shard changes its element, so a cached merge can
        go stale but never wrong — and a write bumps *only* its owning
        shard, so entries of other shards keep validating.
        """
        return tuple(self.registry.generation(shard.database).stamp()
                     for shard in self.map.shards)

    def _scatter(self, sql: str) -> "ExecutionResult":
        trace = TRACER.current()
        if trace is None:
            return self._scatter_run(sql, parent_row=None)
        # The scatter merge executes on worker threads (no ambient
        # record), so the per-digest statement view would be blind to
        # exactly the expensive cross-shard reports without this
        # wrapper: one ``sql.execute`` row per scatter, its
        # ``shard.execute`` children counting the fan-out.
        attrs = {"digest": statement_digest(sql),
                 "database": self.map.name, "sql": sql[:200]}
        parent_row = len(trace.rows)
        row = trace.open("sql.execute", attrs)
        handed_off = False
        try:
            hits_before = self._merge_hits
            result = self._scatter_run(sql, parent_row=parent_row)
            if self._merge_hits > hits_before:
                attrs["cached"] = True
            if result.row_iter is not None:
                attrs["streaming"] = True
                result.row_iter = self._counted_merge(
                    result.row_iter, result, row)
                handed_off = True
            else:
                attrs["rows"] = result.row_total
                if result.partial:
                    attrs["partial"] = True
            return result
        except BaseException as exc:
            attrs.setdefault("error", type(exc).__name__)
            sqlstate = getattr(exc, "sqlstate", None)
            if sqlstate:
                attrs["sqlstate"] = sqlstate
            raise
        finally:
            if not handed_off:
                row[END] = time.perf_counter()

    @staticmethod
    def _counted_merge(rows: Iterator[tuple[Any, ...]],
                       result: "ExecutionResult",
                       row: list) -> Iterator[tuple[Any, ...]]:
        """End the scatter's ``sql.execute`` row when the spilled merge
        drains."""
        attrs = row[ATTRS]
        count = 0
        try:
            for merged in rows:
                count += 1
                yield merged
        except BaseException as exc:
            attrs.setdefault("error", type(exc).__name__)
            sqlstate = getattr(exc, "sqlstate", None)
            if sqlstate:
                attrs["sqlstate"] = sqlstate
            raise
        finally:
            attrs["rows"] = count
            if result.partial:
                attrs["partial"] = True
            row[END] = time.perf_counter()

    def _scatter_run(self, sql: str, *,
                     parent_row: Optional[int]) -> "ExecutionResult":
        from repro.sql import gateway

        self.map.count("scatter_queries")
        use_cache = self.cache is not None
        if use_cache:
            stamp = self._composite_stamp()
            cached = self.cache.get(self.map.name, sql, stamp)
            if cached is not None:
                self._merge_hits += 1
                return cached
        try:
            base_sql, limit, offset = parse_trailing_limit(sql)
        except ValueError as exc:
            raise SQLError(
                f"sharded database {self.map.name!r} cannot scatter: "
                f"{exc} (the clause must be re-applied globally after "
                "the merge)", sqlstate="0A000")
        # Per-shard rewrite: drop the OFFSET and widen the limit to
        # limit+offset rows — every row of the global [offset,
        # offset+limit) window ranks within the first limit+offset rows
        # of its own shard, and the merge re-applies the exact window.
        shard_sql = base_sql
        if limit is not None:
            shard_sql = f"{base_sql} LIMIT {limit + offset}"
        result = gateway.ExecutionResult(sql=sql, is_query=True)
        replica_served: list[str] = []
        rows = self._merged_rows(shard_sql, result, replica_served,
                                 limit=limit, offset=offset,
                                 parent_row=parent_row)
        # The single-database rule: up to SPILL_ROWS merged rows are
        # materialised, a longer merge spills (the merge counts the
        # rows it hands out, the fetched ones included).
        head = list(itertools.islice(rows, gateway.SPILL_ROWS + 1))
        if len(head) > gateway.SPILL_ROWS:
            result.row_iter = _spilled_merge(head, rows)
            return result
        result.rows = head
        result.rowcount = len(head)
        result.rows_fetched = 0
        # Never cache a merge that any replica contributed to: a
        # lag-bounded replica may trail the primary generation the
        # composite stamp was read from (see _ReplicaReadCache).
        if use_cache and not result.partial and not replica_served:
            self.cache.put(self.map.name, sql, stamp, result)
        return result

    def _merged_rows(self, sql: str, result: "ExecutionResult",
                     replica_served: list[str], *,
                     limit: Optional[int] = None,
                     offset: int = 0,
                     parent_row: Optional[int] = None
                     ) -> Iterator[tuple[Any, ...]]:
        """The scatter-gather merge generator.

        Spawns one worker thread per shard (each leasing its own
        connection, replica-preferred), waits for every shard's column
        header — the point the merge strategy is decided — then yields
        merged rows.  A shard that errors or overruns its budget either
        aborts the merge (default) or, under ``degrade``, drops out:
        its name lands in ``result.failed_shards``, the result is
        marked ``partial``, and the surviving shards keep streaming.
        """
        # The shard rows are recorded here, on the request thread,
        # before any worker starts; the workers only fill their attrs.
        trace = TRACER.current()
        abandoned = threading.Event()
        streams = [
            _ShardStream(shard, None if trace is None else trace.open(
                "shard.execute", {"shard": shard.label}, parent=parent_row))
            for shard in self.map.shards]
        threads = []
        for stream in streams:
            thread = threading.Thread(
                target=self._shard_worker,
                args=(stream, sql, abandoned, replica_served),
                name=f"shard-{self.map.name}-{stream.shard.label}",
                daemon=True)
            threads.append(thread)
            thread.start()
        try:
            yield from self._merge(sql, streams, result, abandoned,
                                   limit=limit, offset=offset)
        finally:
            abandoned.set()
            now = time.perf_counter()
            for stream in streams:
                if stream.row is not None:
                    stream.row[END] = now
            for thread in threads:
                thread.join(timeout=5.0)

    def _shard_worker(self, stream: _ShardStream, sql: str,
                      abandoned: threading.Event,
                      replica_served: list[str]) -> None:
        """Produce one shard's rows into its queue (worker thread)."""
        budget = Deadline.tightest(self.deadline,
                                   self.map.shard_timeout)
        shard_result = None
        try:
            session = self._session_for_scatter(stream, budget,
                                                replica_served)
            shard_result = session.execute(sql)
            stream.put(("columns", list(shard_result.columns)), abandoned)
            produced = 0
            for row in shard_result.iter_rows():
                if budget is not None:
                    budget.check(f"shard {stream.shard.label}")
                stream.put(("row", row), abandoned)
                produced += 1
            if stream.row is not None:
                stream.row[ATTRS]["rows"] = produced
            stream.put(("done", None), abandoned)
        except _Abandoned:
            pass
        except Exception as exc:  # noqa: BLE001 - an unreported worker
            # death would leave the merge blocked on its queue forever.
            if not isinstance(exc, SQLError):
                exc = SQLError(f"shard {stream.shard.label} worker "
                               f"failed: {exc!r}")
            if stream.row is not None:
                stream.row[ATTRS]["error"] = type(exc).__name__
            try:
                stream.put(("error", exc), abandoned)
            except _Abandoned:
                pass
        finally:
            if shard_result is not None:
                shard_result.close()

    def _session_for_scatter(self, stream: _ShardStream,
                             budget: Optional[Deadline],
                             replica_served: list[str]
                             ) -> "MacroSqlSession":
        """The scatter path's per-worker session (scatter is SELECT-only,
        so replicas are always eligible here, with the same breaker/lag
        fallback as routed reads).  A replica that does serve is recorded
        in ``replica_served`` so the merged result is never cached."""
        shard = stream.shard
        self.map.count_shard(shard, "scatter")
        replica = self.map.choose_replica(shard)
        if replica is not None:
            try:
                session = self._endpoint_session(shard, replica.database)
                stream.endpoint = replica.database
                replica_served.append(replica.database)
                self.map.count_shard(shard, "replica_reads")
                if stream.row is not None:
                    stream.row[ATTRS]["endpoint"] = replica.database
                return session
            except (CircuitOpenError, SQLConnectError):
                self.map.count_shard(shard, "replica_fallbacks")
        if stream.row is not None:
            stream.row[ATTRS]["endpoint"] = shard.database
        return self._primary_session(shard)

    def _merge(self, sql: str, streams: list[_ShardStream],
               result: "ExecutionResult",
               abandoned: threading.Event, *,
               limit: Optional[int] = None,
               offset: int = 0) -> Iterator[tuple[Any, ...]]:
        """Merge shard streams into one row iterator (request thread).

        A statement-trailing ``LIMIT``/``OFFSET`` (already stripped from
        the per-shard SQL by :meth:`_scatter`) is re-applied here as the
        global ``[offset, offset + limit)`` window over the merged
        order.  That is exact for the ordered merge; without any ORDER
        BY the statement promises no particular rows, so truncating the
        interleave is equally exact.  An ORDER BY the merge cannot map
        onto the selected columns normally degrades to interleave — but
        combined with a row window that would silently pick the *wrong*
        rows, so it is refused with SQLSTATE 0A000 instead.
        """
        live: list[_ShardStream] = []
        for stream in streams:
            header = self._next_item(stream, result)
            if header is None:
                continue
            kind, payload = header
            if kind != "columns":  # pragma: no cover - defensive
                raise SQLError(f"shard {stream.shard.label} protocol "
                               f"error: expected columns, got {kind}")
            if not result.columns:
                result.columns = payload
            live.append(stream)
        order = parse_order_by(sql, result.columns) \
            if result.columns else None
        if order is not None:
            self.map.count("ordered_merges")
            merged: Iterator[tuple[Any, ...]] = heapq.merge(
                *(self._shard_rows(s, result) for s in live),
                key=lambda row: tuple(_OrderKey(row[i], desc)
                                      for i, desc in order))
        else:
            if (result.columns and (limit is not None or offset)
                    and _ANY_ORDER_BY_RE.search(sql) is not None):
                raise SQLError(
                    f"sharded database {self.map.name!r} cannot scatter "
                    "ORDER BY ... LIMIT: the ordering terms do not map "
                    "onto the selected columns, so the global row "
                    "window cannot be computed", sqlstate="0A000")
            self.map.count("interleaved_merges")
            merged = self._interleave(live, result)
        if offset or limit is not None:
            stop = None if limit is None else offset + limit
            merged = itertools.islice(merged, offset, stop)
        for row in merged:
            result.rows_fetched += 1
            yield row

    def _shard_rows(self, stream: _ShardStream,
                    result: "ExecutionResult") -> Iterator[tuple[Any, ...]]:
        """One shard's rows off its queue, until done/error/timeout."""
        while True:
            item = self._next_item(stream, result)
            if item is None:
                return
            kind, payload = item
            if kind == "row":
                yield payload
            elif kind == "done":
                return
            else:  # pragma: no cover - defensive
                raise SQLError(f"shard {stream.shard.label} protocol "
                               f"error: unexpected {kind}")

    def _interleave(self, live: list[_ShardStream],
                    result: "ExecutionResult") -> Iterator[tuple[Any, ...]]:
        """Arrival-order merge: drain whichever shard has rows ready.

        A non-blocking sweep over the live queues; only when *every*
        shard is mid-production does the merge park — briefly, on a
        rotating queue, so a slow shard never gates rows the fast ones
        produce in the meantime.
        """
        pending = list(live)
        park = 0
        while pending:
            progressed = False
            for stream in list(pending):
                while True:
                    try:
                        kind, payload = stream.queue.get_nowait()
                    except queue.Empty:
                        break
                    progressed = True
                    if kind == "row":
                        yield payload
                        continue
                    if kind == "error":
                        self._shard_failed(stream, payload, result)
                    pending.remove(stream)
                    break
            if pending and not progressed:
                park += 1
                stream = pending[park % len(pending)]
                try:
                    kind, payload = stream.queue.get(timeout=_PUT_TICK)
                except queue.Empty:
                    self._check_merge_deadline(pending, result)
                    continue
                if kind == "row":
                    yield payload
                elif kind == "error":
                    self._shard_failed(stream, payload, result)
                    pending.remove(stream)
                else:
                    pending.remove(stream)

    def _check_merge_deadline(self, pending: list[_ShardStream],
                              result: "ExecutionResult") -> None:
        """Fail every still-pending shard once the request budget dies."""
        if self.deadline is None or not self.deadline.expired:
            return
        for stream in list(pending):
            self._shard_failed(
                stream,
                DeadlineExceededError(
                    f"shard {stream.shard.label} exceeded the request "
                    "deadline"),
                result)
            pending.remove(stream)

    def _next_item(self, stream: _ShardStream, result: "ExecutionResult"
                   ) -> Optional[tuple[str, Any]]:
        """One item off a shard queue, deadline-aware (blocking).

        Returns ``None`` when the shard is finished *for this merge* —
        it errored or timed out and degradation swallowed it (the
        failure is recorded on ``result``).  Raises when degradation is
        off.
        """
        deadline = self.deadline
        while True:
            try:
                item = stream.queue.get(timeout=_PUT_TICK)
            except queue.Empty:
                if deadline is not None and deadline.expired:
                    error: SQLError = DeadlineExceededError(
                        f"shard {stream.shard.label} exceeded the "
                        "request deadline")
                    self._shard_failed(stream, error, result)
                    return None
                continue
            kind, payload = item
            if kind == "error":
                self._shard_failed(stream, payload, result)
                return None
            return item

    def _shard_failed(self, stream: _ShardStream, error: SQLError,
                      result: "ExecutionResult") -> None:
        """Record one shard's failure; raise unless degrading."""
        self.map.count_shard(stream.shard, "failures")
        if not self.degrade:
            raise error
        self.map.count("partial_results")
        result.partial = True
        result.failed_shards = result.failed_shards + (stream.shard.label,)


# ---------------------------------------------------------------------------
# CLI topology parsing
# ---------------------------------------------------------------------------


def build_shard_map(registry: "DatabaseRegistry", logical: str,
                    paths: list[str], *,
                    replica_paths: dict[int, list[str]] | None = None,
                    key_variable: str = "SHARD_KEY",
                    strategy: str = "hash",
                    lag_bound: float = 1.0,
                    register: Callable[[str, str], None] | None = None
                    ) -> ShardMap:
    """Register ``paths`` as the shards of ``logical`` (CLI helper).

    Each path becomes a physical database named ``LOGICAL#i`` (replicas
    ``LOGICAL#i.rN``); ``register`` defaults to
    :meth:`DatabaseRegistry.register_path`.
    """
    if register is None:
        register = registry.register_path
    shard_map = ShardMap(logical, key_variable=key_variable,
                         strategy=strategy, lag_bound=lag_bound)
    for index, path in enumerate(paths):
        primary = f"{logical}#{index}"
        register(primary, path)
        replicas = []
        for r_index, r_path in enumerate(
                (replica_paths or {}).get(index, []), start=1):
            name = f"{primary}.r{r_index}"
            register(name, r_path)
            replicas.append(name)
        shard_map.add_shard(primary, replicas=tuple(replicas))
    registry.register_sharded(logical, shard_map)
    return shard_map
