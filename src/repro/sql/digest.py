"""Statement fingerprints: normalized SQL digests and per-digest stats.

The macro gateway assembles SQL dynamically — the same ``%SQL`` section
yields a different statement text for every input value, so raw-text
hashing (PR 4's ``repro.obs.trace.statement_digest``) fragments one
logical query into thousands of digests.  This module normalizes the
*shape* of a statement the way ``pg_stat_statements`` does:

* string and numeric literals become ``?``,
* whitespace runs collapse to one space and comments disappear,
* unquoted text is lowercased (quoted identifiers keep their case),
* an all-placeholder ``IN (?, ?, ?)`` list collapses to ``IN (?)``,

so ``SELECT url FROM urls WHERE id IN (1,2,3)`` and
``select url from urls where id in (9)`` share one digest — the right
aggregation key for "which query is burning the SLO."

:class:`StatementStats` keeps bounded per-digest rolling aggregates
(calls, rows, latency histogram, cache-hit ratio, shard fan-out,
error/SQLSTATE counts).  It doubles as a tracer sink: every finished
request record is folded for its ``sql.execute`` rows — including rows
grafted back from app-server worker frames — so one store in the
serving process aggregates statements executed anywhere in the request.
``repro serve`` publishes it at ``/statements`` and ``repro top``
renders it; the slow-query log attaches the digest's aggregate row to
each dump.
"""

from __future__ import annotations

import hashlib
import re
import threading
from typing import Iterable, Optional

from repro.obs.metrics import Histogram
from repro.obs.trace import ATTRS, END, NAME, PARENT, START

__all__ = ["normalize_statement", "statement_digest",
           "statement_fingerprint", "StatementStats", "STATEMENTS"]

#: Span names the stats sink recognises (mirrors repro.obs.sinks).
SQL_SPAN_NAME = "sql.execute"
SHARD_SPAN_NAME = "shard.execute"

# Cost-class names mirrored from repro.overload.classify (plain strings;
# importing them would couple the SQL tier to the overload package).
_CACHED = "cached"
_HEAVY = "heavy"

_IN_LIST_RE = re.compile(r"\bin\s*\(\s*\?(?:\s*,\s*\?)+\s*\)")

_fingerprint_cache: dict[str, tuple[str, str]] = {}
_FINGERPRINT_CACHE_LIMIT = 1024


def normalize_statement(sql: str) -> str:
    """The canonical shape of one SQL statement.

    Literal values become ``?`` so differently-parameterised runs of one
    query normalize identically; quoted strings are opaque (a comma or
    paren inside ``'a,b('`` can never split a token); comments vanish;
    whitespace collapses; unquoted text lowercases.  Finally an
    all-placeholder IN list collapses to ``(?)`` so membership tests of
    different arity share a shape.
    """
    out: list[str] = []
    i = 0
    n = len(sql)
    space_pending = False
    while i < n:
        ch = sql[i]
        if ch.isspace():
            space_pending = True
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end < 0 else end
            space_pending = True
            continue
        if ch == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            i = n if end < 0 else end + 2
            space_pending = True
            continue
        if space_pending and out:
            out.append(" ")
        space_pending = False
        if ch == "'":
            i = _skip_quoted(sql, i, "'")
            out.append("?")
            continue
        if ch == '"':
            end = _skip_quoted(sql, i, '"')
            out.append(sql[i:end])  # quoted identifier: case preserved
            i = end
            continue
        if _starts_number(sql, i, out):
            i = _skip_number(sql, i)
            out.append("?")
            continue
        out.append(ch.lower())
        i += 1
    text = "".join(out)
    return _IN_LIST_RE.sub("in (?)", text)


def _skip_quoted(sql: str, start: int, quote: str) -> int:
    """Index just past a quoted run beginning at ``start`` (doubled
    quotes escape; an unterminated literal swallows the rest)."""
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == quote:
            if i + 1 < n and sql[i + 1] == quote:
                i += 2
                continue
            return i + 1
        i += 1
    return n


def _starts_number(sql: str, i: int, out: list[str]) -> bool:
    ch = sql[i]
    if not (ch.isdigit()
            or (ch == "." and i + 1 < len(sql) and sql[i + 1].isdigit())):
        return False
    # A digit continuing an identifier (``t1``, ``col2x``) is not a
    # literal; check the previously emitted character.
    if out:
        prev = out[-1][-1]
        if prev.isalnum() or prev in "_?":
            return False
    return True


def _skip_number(sql: str, i: int) -> int:
    n = len(sql)
    if sql.startswith(("0x", "0X"), i):
        i += 2
        while i < n and sql[i] in "0123456789abcdefABCDEF":
            i += 1
        return i
    while i < n and sql[i].isdigit():
        i += 1
    if i < n and sql[i] == ".":
        i += 1
        while i < n and sql[i].isdigit():
            i += 1
    if i < n and sql[i] in "eE":
        j = i + 1
        if j < n and sql[j] in "+-":
            j += 1
        if j < n and sql[j].isdigit():
            i = j
            while i < n and sql[i].isdigit():
                i += 1
    return i


def statement_fingerprint(sql: str) -> tuple[str, str]:
    """``(digest, normalized_text)`` for one statement, memoised.

    A server executes the same handful of statement *shapes* over and
    over under different literals, but the raw texts churn — the cache
    keys on raw text (cheap dict hit on exact repeats) and is cleared
    wholesale when full, like the trace-layer digest cache.
    """
    cached = _fingerprint_cache.get(sql)
    if cached is not None:
        return cached
    normalized = normalize_statement(sql)
    digest = hashlib.sha1(
        normalized.encode("utf-8", "replace")).hexdigest()[:12]
    if len(_fingerprint_cache) >= _FINGERPRINT_CACHE_LIMIT:
        _fingerprint_cache.clear()
    _fingerprint_cache[sql] = (digest, normalized)
    return digest, normalized


def statement_digest(sql: str) -> str:
    """The normalized digest alone (the ``sql.execute`` span attribute)."""
    return statement_fingerprint(sql)[0]


def _fanouts(rows: list) -> dict[int, int]:
    """``id(row)`` of each ``sql.execute`` row that ``shard.execute``
    rows name as their parent -> how many do (its scatter's fan-out)."""
    children: dict[int, int] = {}
    for row in rows:
        if row[NAME] == SHARD_SPAN_NAME:
            parent = id(rows[row[PARENT]])
            children[parent] = children.get(parent, 0) + 1
    return children


class _DigestEntry:
    """Rolling aggregates for one statement shape."""

    __slots__ = ("digest", "text", "calls", "errors", "rows",
                 "cache_hits", "fanout_total", "fanout_max",
                 "latency", "sqlstates")

    _MAX_SQLSTATES = 16

    def __init__(self, digest: str, text: str, lock: threading.Lock):
        self.digest = digest
        self.text = text
        self.calls = 0
        self.errors = 0
        self.rows = 0
        self.cache_hits = 0
        self.fanout_total = 0
        self.fanout_max = 0
        #: under the store's lock, which :meth:`record` runs in
        self.latency = Histogram(digest, lock)
        self.sqlstates: dict[str, int] = {}

    def record(self, duration_ms: float, rows: int, cached: bool,
               error: bool, sqlstate: Optional[str],
               fanout: int) -> None:
        self.calls += 1
        self.rows += rows
        if cached:
            self.cache_hits += 1
        if error:
            self.errors += 1
        if sqlstate and (sqlstate in self.sqlstates
                         or len(self.sqlstates) < self._MAX_SQLSTATES):
            self.sqlstates[sqlstate] = self.sqlstates.get(sqlstate, 0) + 1
        self.fanout_total += fanout
        if fanout > self.fanout_max:
            self.fanout_max = fanout
        self.latency.observe_locked(duration_ms)

    def snapshot(self) -> dict:
        """The entry's ``/statements`` row (the store's lock is held)."""
        latency = self.latency.snapshot_locked()
        calls = self.calls
        return {
            "digest": self.digest,
            "statement": self.text,
            "calls": calls,
            "errors": self.errors,
            "rows": self.rows,
            "cache_hits": self.cache_hits,
            "cache_hit_ratio": round(self.cache_hits / calls, 3)
            if calls else 0.0,
            "fanout_max": self.fanout_max,
            "fanout_mean": round(self.fanout_total / calls, 2)
            if calls else 0.0,
            "sqlstates": dict(self.sqlstates),
            "total_ms": latency["sum"],
            "mean_ms": latency["mean"],
            "p50_ms": latency["p50"],
            "p95_ms": latency["p95"],
            "p99_ms": latency["p99"],
            "max_ms": latency["max"],
        }


class StatementStats:
    """Bounded per-digest rolling statistics, fed from finished traces.

    Used as a tracer sink (``TRACER.add_sink(stats)``): each delivered
    record's ``sql.execute`` rows — local or grafted from a worker
    frame — have their digest/duration/rows/cached/error attributes
    recorded.  ``shard.execute`` children count as scatter fan-out.
    Beyond ``max_digests`` distinct shapes, further ones aggregate into
    one ``_other`` bucket so cardinality stays bounded no matter what
    SQL an application assembles.

    The store also learns which request targets run which digests (from
    the request root's ``target`` attribute), so :meth:`probe` can
    answer the overload classifier from per-statement evidence.
    """

    #: Statement text kept per digest (display truncation).
    TEXT_LIMIT = 200

    def __init__(self, *, max_digests: int = 128, max_keys: int = 512,
                 cached_threshold_ms: float = 5.0,
                 heavy_threshold_ms: float = 50.0,
                 min_calls: int = 3):
        #: The gate the sink checks first (mirrors ``Tracer.enabled``).
        self.enabled = False
        self.max_digests = max_digests
        self.max_keys = max_keys
        self.cached_threshold_ms = cached_threshold_ms
        self.heavy_threshold_ms = heavy_threshold_ms
        self.min_calls = min_calls
        self._lock = threading.Lock()
        self._entries: dict[str, _DigestEntry] = {}
        self._other = _DigestEntry(
            "_other", "(statements beyond the digest budget)", self._lock)
        self._overflowed = 0
        self._recorded = 0
        self._keys: dict[str, tuple[str, ...]] = {}

    # -- recording ---------------------------------------------------------

    def record(self, *, digest: str, statement: str = "",
               duration_ms: float = 0.0, rows: int = 0,
               cached: bool = False, error: bool = False,
               sqlstate: Optional[str] = None, fanout: int = 1) -> None:
        """Record one execution of a (pre-digested) statement."""
        with self._lock:
            self._record_locked(digest, statement, duration_ms, rows,
                                cached, error, sqlstate, fanout)

    def _record_locked(self, digest, statement, duration_ms, rows,
                       cached, error, sqlstate, fanout) -> None:
        # The kept text is the statement's shape, never its literals:
        # normalised once per digest, when the digest first brings text.
        entry = self._entries.get(digest)
        if entry is None:
            if len(self._entries) < self.max_digests:
                entry = _DigestEntry(digest, self._shape(statement),
                                     self._lock)
                self._entries[digest] = entry
            else:
                entry = self._other
                self._overflowed += 1
        elif not entry.text and statement:
            entry.text = self._shape(statement)
        self._recorded += 1
        entry.record(duration_ms, rows, cached, error, sqlstate, fanout)

    def _shape(self, statement: str) -> str:
        return normalize_statement(statement)[:self.TEXT_LIMIT] \
            if statement else ""

    def __call__(self, trace) -> None:
        """Tracer-sink entry point: fold one finished record (a
        :class:`repro.obs.trace.Trace`).  ``repro serve`` does not
        register the store itself: its metrics bridge hands it the
        ``sql.execute`` rows from its own pass (:meth:`fold`)."""
        if not self.enabled:
            return
        rows = trace.rows
        sql_rows = []
        sharded = False
        for row in rows:
            name = row[NAME]
            if name == SQL_SPAN_NAME:
                sql_rows.append(row)
            elif name == SHARD_SPAN_NAME:
                sharded = True
        self.fold(rows, sql_rows, sharded)

    def fold(self, rows: list, sql_rows: list,
             sharded: bool = False) -> None:
        """Record one finished record's ``sql.execute`` rows.

        ``rows`` is the record, ``sql_rows`` its ``sql.execute`` rows in
        order, ``sharded`` whether it has ``shard.execute`` rows (each
        counts one of its parent's fan-out).  This runs on *every*
        traced request: one lock trip, and a known digest is counted
        without looking at its statement text.
        """
        if not self.enabled or not sql_rows:
            return
        fanouts = _fanouts(rows) if sharded else None
        root_attrs = rows[0][ATTRS]
        target = root_attrs and (root_attrs.get("target")
                                 or root_attrs.get("path"))
        entries = self._entries
        digests = None
        with self._lock:
            for row in sql_rows:
                attrs = row[ATTRS]
                digest = attrs and attrs.get("digest")
                if not digest:
                    continue
                end = row[END]
                duration = 0.0 if end is None \
                    else (end - row[START]) * 1000.0
                fanout = 1 if fanouts is None \
                    else fanouts.get(id(row), 1)
                entry = entries.get(digest)
                if entry is not None and entry.text:
                    self._recorded += 1
                    entry.record(duration, attrs.get("rows") or 0,
                                 attrs.get("cached"), "error" in attrs,
                                 attrs.get("sqlstate"), fanout)
                else:
                    # A tenant's statement (its scoped registry names
                    # the database "TENANT/NAME") counts, but its text
                    # stays off this process-wide store.
                    statement = "" if "/" in attrs.get("database", "") \
                        else attrs.get("sql", "")
                    self._record_locked(
                        digest, statement, duration,
                        attrs.get("rows") or 0, attrs.get("cached"),
                        "error" in attrs, attrs.get("sqlstate"), fanout)
                if digests is None:
                    digests = (digest,)
                elif digest not in digests:
                    digests = tuple(sorted((*digests, digest)))
            if target and digests is not None \
                    and self._keys.get(target) != digests:
                self._note_request_locked(str(target), digests)

    def note_request(self, key: str,
                     digests: Iterable[str]) -> None:
        """Remember which digests one request target executed."""
        with self._lock:
            self._note_request_locked(key, tuple(sorted(set(digests))))

    def _note_request_locked(self, key: str,
                             frozen: tuple[str, ...]) -> None:
        """``frozen``: the distinct digests, sorted."""
        if self._keys.get(key) == frozen:
            # The hot path: a repeat target running the same shapes.
            # Skipping the recency reinsertion is safe — a hot key
            # swept in an eviction is re-learned on its next request.
            return
        self._keys.pop(key, None)
        self._keys[key] = frozen
        if len(self._keys) > self.max_keys:
            # Drop the coldest half in one sweep (dict order is
            # recency: observed keys are re-inserted).
            for stale in list(self._keys)[:self.max_keys // 2]:
                del self._keys[stale]

    # -- the overload-classifier probe -------------------------------------

    def probe(self, request) -> Optional[str]:
        """A cost class learned from the request's statement digests.

        Shaped for ``RequestClassifier(probe=...)``: answers ``heavy``
        when any statement the target is known to run has proven heavy,
        ``cached`` when every one is a sub-threshold (or cache-served)
        read, and ``None`` — let the other signals decide — otherwise.
        """
        query = getattr(request, "query", "") or ""
        key = f"{request.path}?{query}" if query else request.path
        with self._lock:
            digests = self._keys.get(key)
            if not digests:
                return None
            classes = [self._classify_locked(d) for d in digests]
        if any(cls is None for cls in classes):
            return None
        if _HEAVY in classes:
            return _HEAVY
        if all(cls == _CACHED for cls in classes):
            return _CACHED
        return None

    def _classify_locked(self, digest: str) -> Optional[str]:
        entry = self._entries.get(digest)
        if entry is None or entry.calls < self.min_calls:
            return None
        mean = entry.latency.sum / entry.calls
        hit_ratio = entry.cache_hits / entry.calls
        if mean >= self.heavy_threshold_ms:
            return _HEAVY
        if hit_ratio >= 0.9 or mean <= self.cached_threshold_ms:
            return _CACHED
        return "interactive"

    # -- read paths --------------------------------------------------------

    def digest_snapshot(self, digest: str) -> Optional[dict]:
        """One digest's aggregate row (slow-query dump attachment)."""
        with self._lock:
            entry = self._entries.get(digest)
            return entry.snapshot() if entry is not None else None

    def snapshot(self, *, limit: int = 0) -> dict:
        """The ``/statements`` body: rows sorted by total time burned."""
        with self._lock:
            rows = [entry.snapshot() for entry in self._entries.values()]
            other = (self._other.snapshot()
                     if self._other.calls else None)
            overflowed = self._overflowed
            recorded = self._recorded
        rows.sort(key=lambda row: row["total_ms"], reverse=True)
        if limit > 0:
            rows = rows[:limit]
        if other is not None:
            rows.append(other)
        return {
            "statements": rows,
            "distinct_digests": len(rows) - (1 if other else 0),
            "recorded_total": recorded,
            "overflowed_total": overflowed,
        }

    def labeled_stats(self) -> dict[str, dict[str, float]]:
        """Per-digest counters for the ``statement`` metrics source,
        labeled by digest (``statement_<counter>{digest="..."}``)."""
        with self._lock:
            return {digest: {"calls_total": entry.calls,
                             "errors_total": entry.errors,
                             "rows_total": entry.rows,
                             "cache_hits_total": entry.cache_hits}
                    for digest, entry in self._entries.items()}

    def stats(self) -> dict[str, float]:
        """Aggregate counters for the ``statements`` metrics source."""
        with self._lock:
            return {
                "digests": len(self._entries),
                "recorded_total": self._recorded,
                "overflowed_total": self._overflowed,
                "request_keys": len(self._keys),
            }

    def reset(self) -> None:
        """Drop all aggregates (tests)."""
        with self._lock:
            self._entries.clear()
            self._other = _DigestEntry(
                "_other", "(statements beyond the digest budget)",
                self._lock)
            self._overflowed = 0
            self._recorded = 0
            self._keys.clear()


#: The process-wide store ``repro serve`` wires as a tracer sink and
#: serves at ``/statements``.  Disabled by default, like the tracer.
STATEMENTS = StatementStats()
