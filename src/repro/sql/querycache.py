"""Generation-keyed SELECT result caching for the gateway.

The paper's deployment profile — and every read-mostly SQL publishing
system since (DbShare, Mragyati) — repeats identical SELECTs: the same
report URL is fetched by thousands of clients between writes.  The
gateway executes *dynamic* SQL assembled from macro text, so two requests
with the same inputs produce byte-identical statement text; caching the
:class:`~repro.sql.gateway.ExecutionResult` under ``(database,
sql_text)`` turns the repeat into a dictionary hit.

Consistency comes from **write generations**, not TTLs.  Every named
database carries a :class:`WriteGeneration` counter that any non-query
statement bumps — once when the statement executes and again when its
enclosing transaction ends (COMMIT or ROLLBACK; see
:meth:`repro.sql.connection.Connection.commit`).  The double bump is
what closes the uncommitted-write window: a reader that observes the
post-execute generation and snapshots pre-commit data stores its result
under a generation that the commit-time bump immediately makes stale.
Bumping is conservative — a rolled-back write still bumps, which can
only cause an unnecessary miss, never a stale hit.  A cache entry
remembers the generation :meth:`~WriteGeneration.stamp` observed
*before* its query executed; a lookup whose current stamp differs
discards the entry.  There is therefore no window in which a committed
write is visible to the database but not to cache consumers.  Stamps
embed the counter's process-unique identity, so two registries that
happen to register the same database name can share one cache without
their generation numbers colliding.

The cache is bypassed entirely:

* for statements that are not pure reads of table data — only
  ``SELECT``/``VALUES``/``WITH`` results are reusable; ``PRAGMA`` and
  ``EXPLAIN`` return rows but read (or mutate!) per-connection state,
* in ``TransactionMode.SINGLE`` (Section 5's all-or-nothing mode: a
  macro's reads must see its own uncommitted writes and participate in
  the transaction bracket),
* when no generation counter is attached (a connection outside any
  :class:`~repro.sql.gateway.DatabaseRegistry` has no invalidation
  source, so reuse would be unsound).

Thread-safe.  A shared ``ExecutionResult`` is read-only but for one
field: ``rendered``, the row memo a report leaves on it (its printed
rows as UTF-8 bytes; see ``ReportGenerator._render_rows``), assigned
whole after the result is stored, so a reader sees one memo or the
next.  At most one per entry, freed with it: the memo needs no
invalidation or bound of its own.

**Pages.**  The cache also keeps whole buffered pages for the engine
(:meth:`page` / :meth:`put_page`; see ``MacroEngine.execute``), each
with the results it read.  A page is reused only while every one of
those results is still the current entry under its database's current
stamp (:meth:`peek`, the same object), so a page is exactly as fresh as
the results it was built from.  Pages share :attr:`max_entries` with
the results but never displace one: storing a result evicts the oldest
page first, and a page finds room only by evicting another page.  They
are dropped with their database (:meth:`invalidate_database`) and by
:meth:`clear`, and hold their results by weak reference only.  A reused
page counts a hit per statement it read, and one ``page_hits``;
``pages`` is how many are kept now.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, Optional

from repro.blocking import BLOCKING
from repro.sql.dialect import is_cacheable_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sql.gateway import ExecutionResult

__all__ = ["QueryResultCache", "WriteGeneration"]


class WriteGeneration:
    """A monotonically increasing per-database write counter.

    Each counter also carries a process-unique ``token``; cache lookups
    compare :meth:`stamp` (token *and* value) so counters created by
    different registries can never alias each other in a shared cache,
    even when their integer values coincide.
    """

    __slots__ = ("_value", "_lock", "token")

    _tokens = itertools.count(1)

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()
        self.token = next(WriteGeneration._tokens)

    def bump(self) -> int:
        """Record a write; returns the new generation."""
        with self._lock:
            self._value += 1
            return self._value

    @property
    def value(self) -> int:
        return self._value

    def stamp(self) -> tuple[int, int]:
        """An opaque cache stamp: this counter's identity plus its value."""
        return (self.token, self._value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WriteGeneration({self._value})"


class QueryResultCache:
    """A bounded LRU of query results keyed ``(database, sql_text)``.

    ``max_entries`` bounds the entry count (evicting least-recently-used);
    a result too large to hold is one that spilled
    (:data:`~repro.sql.gateway.SPILL_ROWS`), and is never stored.
    Counters are cumulative; :meth:`stats` snapshots them for the
    metrics/access-log surfaces.
    """

    #: The :meth:`stats` keys that only ever grow (until
    #: :meth:`reset_stats`): ``/metrics`` types them as counters.
    COUNTERS = frozenset({"hits", "misses", "stores", "evictions",
                          "invalidations", "page_hits"})

    def __init__(self, *, max_entries: int = 128):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple[str, str], tuple[Hashable, ExecutionResult]]" = OrderedDict()
        #: page key -> (databases it read, page); see :meth:`page`
        self._pages: "OrderedDict[Hashable, tuple[frozenset, object]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._invalidations = 0
        self._page_hits = 0

    # -- lookup / store -------------------------------------------------

    def get(self, database: str, sql: str,
            generation: Hashable) -> Optional["ExecutionResult"]:
        """The cached result, or ``None`` on miss or stale generation.

        ``generation`` is compared for equality with the value recorded
        at :meth:`put` time — typically a :meth:`WriteGeneration.stamp`
        tuple (a bare int also works for standalone use).
        """
        key = (database, sql)
        deferred = BLOCKING.attempt
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == generation:
                self._entries.move_to_end(key)
                if deferred is None:
                    self._hits += 1
                else:
                    deferred.append(self.count_hit)
                return entry[1]
        if deferred is None:
            self._miss(key, entry)
        else:
            deferred.append(functools.partial(self._miss, key, entry))
        return None

    def _miss(self, key: tuple[str, str], entry) -> None:
        """Count a miss, and drop ``entry`` if it is stale and still
        there."""
        with self._lock:
            self._misses += 1
            if entry is not None and self._entries.get(key) is entry:
                del self._entries[key]
                self._invalidations += 1

    def peek(self, database: str, sql: str,
             generation: Hashable) -> Optional["ExecutionResult"]:
        """The entry :meth:`get` would return, counting nothing and
        dropping nothing (a stale entry stays for :meth:`get` to count).
        A found entry is refreshed in the LRU, as a hit is."""
        key = (database, sql)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != generation:
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def count_hit(self, count: int = 1, pages: int = 0) -> None:
        """Count hits deferred by an edge attempt (repro.blocking) or
        served by ``pages`` reused pages."""
        with self._lock:
            self._hits += count
            self._page_hits += pages

    def count_page_hit(self, reads: int) -> None:
        """Count a reused page that read ``reads`` results: a hit each
        and the page, now or, on an edge attempt, when it returns."""
        if BLOCKING.attempt is None:
            self.count_hit(reads, 1)
        else:
            BLOCKING.attempt.append(
                functools.partial(self.count_hit, reads, 1))

    def put(self, database: str, sql: str, generation: Hashable,
            result: "ExecutionResult") -> bool:
        """Cache ``result``; False when it is not cacheable."""
        if not result.is_query or result.row_iter is not None:
            return False  # a spilled result's rows can be read only once
        if not is_cacheable_query(sql):
            # PRAGMA/EXPLAIN and anything else that returns rows without
            # being a pure data read must re-execute on every request.
            return False
        if BLOCKING.attempt is not None:
            # stored (and counted) only if the edge's attempt returns
            BLOCKING.attempt.append(functools.partial(
                self.put, database, sql, generation, result))
            return True
        key = (database, sql)
        with self._lock:
            self._entries[key] = (generation, result)
            self._entries.move_to_end(key)
            self._stores += 1
            while len(self._entries) + len(self._pages) > self.max_entries:
                if self._pages:
                    self._pages.popitem(last=False)
                    continue
                self._entries.popitem(last=False)
                self._evictions += 1
        return True

    # -- pages ----------------------------------------------------------

    def page(self, key: Hashable):
        """The page stored under ``key``, or ``None``; the caller checks
        that what it read is still current (:meth:`peek`)."""
        with self._lock:
            entry = self._pages.get(key)
            if entry is None:
                return None
            self._pages.move_to_end(key)
            return entry[1]

    def put_page(self, key: Hashable, page,
                 databases: frozenset = frozenset()) -> bool:
        """Keep ``page`` (which read ``databases``) under ``key``, in
        room left by the results or made by evicting older pages; False
        when the results fill the budget."""
        with self._lock:
            self._pages.pop(key, None)
            while len(self._entries) + len(self._pages) >= self.max_entries:
                if not self._pages:
                    return False
                self._pages.popitem(last=False)
            self._pages[key] = (databases, page)
            return True

    def drop_page(self, key: Hashable) -> None:
        with self._lock:
            self._pages.pop(key, None)

    # -- invalidation ---------------------------------------------------

    def invalidate_database(self, database: str) -> int:
        """Drop every entry of one database (and each page that read
        it); returns the count of entries dropped."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == database]
            for key in stale:
                del self._entries[key]
            for key in [key for key, (databases, _) in self._pages.items()
                        if database in databases]:
                del self._pages[key]
            self._invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._pages.clear()

    # -- inspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Snapshot of the cumulative counters plus current size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "entries": len(self._entries),
                "pages": len(self._pages),
                "page_hits": self._page_hits,
            }

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = self._misses = self._stores = 0
            self._evictions = self._invalidations = self._page_hits = 0
