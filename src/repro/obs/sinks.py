"""Trace sinks: where finished request records go.

A sink is a callable the tracer hands every finished
:class:`~repro.obs.trace.Trace` (one request's record, which is also
its root span).  Two kinds hang off :class:`repro.obs.trace.Tracer`:

* **folds**, which see every request and so must be cheap: one pass
  over the record's rows, no tree —

  * :class:`MetricsBridge` — per-phase latency histograms and the
    trace/slow-query counters in a
    :class:`~repro.obs.metrics.MetricsRegistry`, so the scrape
    endpoint shows where time goes even when nobody is tailing logs;
  * :class:`repro.sql.digest.StatementStats` — the per-digest
    statement analytics;

* **tree readers**, which read the record as a span tree —

  * :class:`TraceLog` — one structured JSON line per request (trace
    id, duration, per-phase breakdown, full span tree), the grep-able
    per-request log the paper era never had.  ``repro trace <file>``
    pretty-prints it.
  * :class:`SlowQueryLog` — the ``--slow-query-ms`` watchdog: any
    ``sql.execute`` span at or over the threshold dumps its statement
    digest and the whole offending span subtree as a ``slow_query``
    record (same file format, so ``repro trace`` renders those too).
  * :class:`repro.obs.sampling.TailSampler`, guarding those two.

All file sinks append JSON Lines with a single ``write`` per record, so
multiple processes (app-server workers) can share one file;
:class:`FanoutSink` takes them off the request thread.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Trace

__all__ = ["TraceLog", "SlowQueryLog", "MetricsBridge", "FanoutSink",
           "format_trace", "read_trace_log"]

#: Span name the slow-query watchdog matches.
SQL_SPAN_NAME = "sql.execute"
#: One leg of a scatter (its parent is the scatter's ``sql.execute``).
SHARD_SPAN_NAME = "shard.execute"


class _JsonLineFile:
    """Append-only JSON Lines writer (one ``write`` syscall per record)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True, default=str) + "\n"
        with self._lock:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line)


class TraceLog:
    """One JSON line per finished request trace."""

    def __init__(self, path: str | Path):
        self._file = _JsonLineFile(path)

    @property
    def path(self) -> Path:
        return self._file.path

    def __call__(self, root: Span) -> None:
        self._file.write({
            "type": "trace",
            "ts": round(time.time(), 3),
            "trace_id": root.trace_id,
            "name": root.name,
            "duration_ms": round(root.duration_ms, 3),
            "phases": root.phase_totals(),
            "attrs": dict(root.attrs),
            "spans": root.to_dict(),
        })


class SlowQueryLog:
    """Dump the span subtree of every SQL execution over the threshold."""

    def __init__(self, path: str | Path, threshold_ms: float,
                 statements=None):
        self._file = _JsonLineFile(path)
        self.threshold_ms = float(threshold_ms)
        #: Optional :class:`repro.sql.digest.StatementStats`: when set,
        #: each dump carries the digest's rolling profile, so one slow
        #: occurrence reads in context ("p95 is 3ms, this was 400ms —
        #: an outlier" vs "every call is slow").
        self.statements = statements
        self._count = 0

    @property
    def path(self) -> Path:
        return self._file.path

    @property
    def count(self) -> int:
        """Slow statements recorded so far (for tests and counters)."""
        return self._count

    def __call__(self, root: Span) -> None:
        for span in root.walk():
            if (span.name == SQL_SPAN_NAME
                    and span.duration_ms >= self.threshold_ms):
                self._count += 1
                digest = span.attrs.get("digest", "")
                record = {
                    "type": "slow_query",
                    "ts": round(time.time(), 3),
                    "trace_id": root.trace_id,
                    "request": {"name": root.name,
                                "attrs": dict(root.attrs),
                                "duration_ms":
                                    round(root.duration_ms, 3)},
                    "duration_ms": round(span.duration_ms, 3),
                    "threshold_ms": self.threshold_ms,
                    "digest": digest,
                    "sql": span.attrs.get("sql", ""),
                    "spans": span.to_dict(),
                }
                if self.statements is not None and digest:
                    profile = self.statements.digest_snapshot(digest)
                    if profile is not None:
                        record["digest_stats"] = profile
                self._file.write(record)


class MetricsBridge:
    """Fold finished records into latency histograms.

    Per span name: ``span_<name>_ms`` (dots become underscores), one
    observation per trace carrying the trace's *total* time in that
    phase — the same per-request phase breakdown the trace log records.
    Every record counts into ``traces_total``; slow ``sql.execute``
    rows (when a threshold is given) into ``slow_queries_total``.

    With ``statements`` (a :class:`repro.sql.digest.StatementStats`)
    the same pass over the rows feeds the statement-digest store
    (:meth:`~repro.sql.digest.StatementStats.fold`): ``repro serve``
    folds every record once, in this one sink.
    """

    def __init__(self, registry: MetricsRegistry, *,
                 slow_query_ms: Optional[float] = None,
                 statements=None):
        self.registry = registry
        self.slow_query_ms = slow_query_ms
        self.statements = statements
        self._traces = registry.counter("traces_total")
        # Only materialise the slow counter when watching: its absence
        # from the scrape is how "no threshold configured" reads.
        self._slow = (registry.counter("slow_queries_total")
                      if slow_query_ms is not None else None)
        #: span name -> Histogram, resolved once — this sink runs on
        #: every request, so it must not pay string assembly or registry
        #: lookups per span.
        self._histograms: dict[str, object] = {}

    def _histogram(self, name: str):
        histogram = self._histograms.get(name)
        if histogram is None:
            safe = name.replace(".", "_")
            histogram = self.registry.histogram(f"span_{safe}_ms")
            self._histograms[name] = histogram
        return histogram

    def __call__(self, trace: Trace) -> None:
        rows = trace.rows
        totals: dict[str, float] = {}
        sql_rows = None
        for row in rows:
            name, _, start, end, _ = row
            duration = 0.0 if end is None else (end - start) * 1000.0
            if name in totals:
                totals[name] += duration
            else:
                totals[name] = duration
            if name == SQL_SPAN_NAME:
                if sql_rows is None:
                    sql_rows = [row]
                else:
                    sql_rows.append(row)
        histograms = self._histograms
        # One lock trip: every counter and histogram of the registry
        # shares its lock.
        with self.registry.lock:
            self._traces.inc_locked()
            for name, total in totals.items():
                histogram = histograms.get(name)
                if histogram is None:
                    histogram = self._histogram(name)
                histogram.observe_locked(total)
            if self._slow is not None and sql_rows is not None:
                for _, _, start, end, _ in sql_rows:
                    duration = 0.0 if end is None \
                        else (end - start) * 1000.0
                    if duration >= self.slow_query_ms:
                        self._slow.inc_locked()
        if sql_rows is not None and self.statements is not None:
            self.statements.fold(rows, sql_rows,
                                 SHARD_SPAN_NAME in totals)


class FanoutSink:
    """Deliver finished records to several sinks, optionally off the
    request thread.

    ``repro serve`` puts its file sinks (the trace log and slow-query
    log, or the tail sampler guarding them) behind one of these, so the
    JSON and the file append never sit on a request's latency path; the
    folds are cheap and stay on the tracer itself.

    With ``defer_cap`` > 0 delivery is **two-phase**: the request
    thread only appends the finished record to a queue (a deque append)
    and the sinks run from a daemon drain thread that wakes every
    ``drain_interval`` seconds.  Readers that need current output (the
    scrape endpoints) call :meth:`flush` first; the cap is a backstop —
    a request that finds ``defer_cap`` records queued drains them
    inline rather than letting the queue grow unboundedly.  With
    ``defer_cap=0`` (the default) delivery is inline and synchronous,
    which is what unit tests want.

    A sink that raises is skipped for the delivery, never the request —
    the same containment as ``Trace.finish``.
    """

    def __init__(self, *consumers, defer_cap: int = 0,
                 drain_interval: float = 0.05):
        self.consumers = list(consumers)
        self.defer_cap = defer_cap
        self.drain_interval = drain_interval
        self._queue: deque = deque()
        self._drain_lock = threading.Lock()
        self._drainer: Optional[threading.Thread] = None
        if defer_cap > 0:
            self._drainer = threading.Thread(
                target=self._drain_loop, name="obs-fanout-drain",
                daemon=True)
            self._drainer.start()

    def __call__(self, trace: Trace) -> None:
        if self.defer_cap > 0:
            queue = self._queue
            queue.append(trace)
            if len(queue) >= self.defer_cap:
                self.flush()
            return
        self._deliver(trace)

    def _deliver(self, trace: Trace) -> None:
        for consumer in self.consumers:
            try:
                consumer(trace)
            except Exception:  # noqa: BLE001 - mirror Trace.finish
                pass

    def flush(self) -> None:
        """Drain every queued record through the sinks, then return.

        Safe from any thread; the scrape handlers call this before
        rendering so deferred output is never stale on a read.
        """
        queue = self._queue
        with self._drain_lock:
            while True:
                try:
                    trace = queue.popleft()
                except IndexError:
                    break
                self._deliver(trace)

    def _drain_loop(self) -> None:  # pragma: no cover - timing thread
        while True:
            time.sleep(self.drain_interval)
            if self._queue:
                self.flush()


# ---------------------------------------------------------------------------
# reading and pretty-printing (the `repro trace` command)
# ---------------------------------------------------------------------------


def read_trace_log(path: str | Path) -> list[dict]:
    """Parse a trace/slow-query JSONL file; malformed lines are skipped.

    A live log's last line is often mid-write (a crashed worker, a
    tail during load); bad bytes and truncated JSON must not take the
    whole file down, so decoding is lossy and each line parses
    independently.
    """
    records = []
    text = Path(path).read_bytes().decode("utf-8", errors="replace")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("type") in (
                "trace", "slow_query"):
            records.append(record)
    return records


def format_trace(record: dict) -> str:
    """Render one logged trace (or slow-query) record as an ASCII tree."""
    lines = []
    kind = record.get("type", "trace")
    trace_id = record.get("trace_id", "?")
    duration = record.get("duration_ms", 0.0)
    if kind == "slow_query":
        lines.append(f"slow_query {trace_id}  {duration:.1f}ms  "
                     f"(threshold {record.get('threshold_ms', 0)}ms, "
                     f"digest {record.get('digest', '')})")
    else:
        lines.append(f"trace {trace_id}  {duration:.1f}ms")
    phases = record.get("phases")
    if phases:
        breakdown = "  ".join(f"{name}={ms:.1f}ms"
                              for name, ms in sorted(phases.items())
                              if name != record.get("name"))
        if breakdown:
            lines.append(f"  phases: {breakdown}")
    spans = record.get("spans")
    if spans:
        _format_span(spans, lines, depth=1)
    return "\n".join(lines)


def _format_span(span: dict, lines: list[str], depth: int) -> None:
    indent = "  " * depth
    attrs = span.get("attrs", {})
    detail = " ".join(f"{key}={_short(value)}"
                      for key, value in sorted(attrs.items()))
    lines.append(f"{indent}{span.get('name', '?')} "
                 f"{span.get('duration_ms', 0.0):.2f}ms"
                 + (f"  [{detail}]" if detail else ""))
    for child in span.get("children", ()):
        _format_span(child, lines, depth + 1)


def _short(value, limit: int = 48) -> str:
    text = str(value)
    return text if len(text) <= limit else text[:limit - 1] + "…"
