"""Measurement collection for the benchmark harness.

pytest-benchmark times the hot loops; the workload runner additionally
needs request-level latency distributions and throughput for the
comparison experiments, collected here with no dependencies beyond the
standard library.  :class:`CacheReport` gives the query-result cache's
counters (see :mod:`repro.sql.querycache`) the same tabular surface the
latency summaries have, so workload reports can show hit rates next to
throughput; :class:`ResilienceReport` does the same for the retry /
breaker / fault-injection counters of :mod:`repro.resilience`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


@dataclass
class Summary:
    """Latency/throughput summary of one workload run."""

    count: int
    total_seconds: float
    mean_ms: float
    stdev_ms: float
    min_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @property
    def throughput_rps(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.count / self.total_seconds

    def row(self, label: str) -> str:
        """One fixed-width table row for harness output."""
        return (f"{label:<14} {self.count:>6} "
                f"{self.mean_ms:>9.3f} {self.p50_ms:>9.3f} "
                f"{self.p95_ms:>9.3f} {self.p99_ms:>9.3f} "
                f"{self.throughput_rps:>10.1f}")

    @staticmethod
    def header() -> str:
        return (f"{'gateway':<14} {'n':>6} {'mean_ms':>9} {'p50_ms':>9} "
                f"{'p95_ms':>9} {'p99_ms':>9} {'req_per_s':>10}")


@dataclass
class CacheReport:
    """Query-result-cache counters in workload-report form.

    Build one from :meth:`QueryResultCache.stats` snapshots; subtracting
    a "before" snapshot isolates one workload's contribution.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0

    @classmethod
    def from_stats(cls, stats: dict[str, int]) -> "CacheReport":
        return cls(**{key: stats.get(key, 0)
                      for key in ("hits", "misses", "stores", "evictions",
                                  "invalidations", "entries")})

    def delta(self, before: "CacheReport") -> "CacheReport":
        """Counters accumulated since ``before`` (entries stays absolute)."""
        return CacheReport(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            stores=self.stores - before.stores,
            evictions=self.evictions - before.evictions,
            invalidations=self.invalidations - before.invalidations,
            entries=self.entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def row(self, label: str) -> str:
        """One fixed-width table row (pairs with :meth:`header`)."""
        return (f"{label:<14} {self.hits:>8} {self.misses:>8} "
                f"{self.stores:>8} {self.evictions:>9} "
                f"{self.invalidations:>12} {self.hit_rate:>8.1%}")

    @staticmethod
    def header() -> str:
        return (f"{'cache':<14} {'hits':>8} {'misses':>8} {'stores':>8} "
                f"{'evictions':>9} {'invalidated':>12} {'hit_rate':>8}")


@dataclass
class ResilienceReport:
    """Retry/breaker/fault counters in workload-report form.

    Build one from the stats surfaces of the resilience layer —
    ``DatabaseRegistry.resilience_stats()`` merged with a
    :class:`~repro.resilience.faults.FaultInjector`'s counters and the
    engine results' retry totals — so a degraded-backend run can print
    failure handling next to throughput.
    """

    retries: int = 0
    injected_total: int = 0
    breaker_opens: int = 0
    breaker_rejections: int = 0
    breaker_probes: int = 0
    pool_evicted: int = 0
    deadline_exceeded: int = 0

    @classmethod
    def from_stats(cls, stats: dict[str, int]) -> "ResilienceReport":
        return cls(**{key: stats.get(key, 0)
                      for key in ("retries", "injected_total",
                                  "breaker_opens", "breaker_rejections",
                                  "breaker_probes", "pool_evicted",
                                  "deadline_exceeded")})

    def delta(self, before: "ResilienceReport") -> "ResilienceReport":
        """Counters accumulated since ``before``."""
        return ResilienceReport(
            retries=self.retries - before.retries,
            injected_total=self.injected_total - before.injected_total,
            breaker_opens=self.breaker_opens - before.breaker_opens,
            breaker_rejections=(self.breaker_rejections
                                - before.breaker_rejections),
            breaker_probes=self.breaker_probes - before.breaker_probes,
            pool_evicted=self.pool_evicted - before.pool_evicted,
            deadline_exceeded=(self.deadline_exceeded
                               - before.deadline_exceeded))

    def row(self, label: str) -> str:
        """One fixed-width table row (pairs with :meth:`header`)."""
        return (f"{label:<14} {self.injected_total:>8} {self.retries:>8} "
                f"{self.breaker_opens:>6} {self.breaker_rejections:>9} "
                f"{self.pool_evicted:>8} {self.deadline_exceeded:>9}")

    @staticmethod
    def header() -> str:
        return (f"{'resilience':<14} {'faults':>8} {'retries':>8} "
                f"{'opens':>6} {'rejected':>9} {'evicted':>8} "
                f"{'deadline':>9}")


@dataclass
class WorkerReport:
    """App-server worker-pool counters in workload-report form.

    Build one from :meth:`AppServerDispatcher.stats` snapshots (the
    aggregate keys; the per-slot ``worker_N_*`` keys are ignored) so a
    gateway workload can print pool health next to throughput.
    """

    workers: int = 0
    requests: int = 0
    recycles: int = 0
    crashes: int = 0
    crash_retries: int = 0
    busy_timeouts: int = 0
    #: Goodput (useful 200s per second) by target shard, for sharded
    #: workloads — built from
    #: :meth:`~repro.workloads.openloop.OpenLoopResult.per_shard_goodput`
    #: so skewed runs can show the hot shard next to pool health.
    per_shard: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_stats(cls, stats: dict[str, int]) -> "WorkerReport":
        return cls(**{key: stats.get(key, 0)
                      for key in ("workers", "requests", "recycles",
                                  "crashes", "crash_retries",
                                  "busy_timeouts")})

    def delta(self, before: "WorkerReport") -> "WorkerReport":
        """Counters accumulated since ``before`` (pool size is a gauge,
        not a counter, so the current value is kept)."""
        return WorkerReport(
            workers=self.workers,
            requests=self.requests - before.requests,
            recycles=self.recycles - before.recycles,
            crashes=self.crashes - before.crashes,
            crash_retries=self.crash_retries - before.crash_retries,
            busy_timeouts=self.busy_timeouts - before.busy_timeouts,
            per_shard=dict(self.per_shard))

    def row(self, label: str) -> str:
        """One fixed-width table row (pairs with :meth:`header`)."""
        return (f"{label:<14} {self.workers:>7} {self.requests:>8} "
                f"{self.recycles:>8} {self.crashes:>7} "
                f"{self.crash_retries:>8} {self.busy_timeouts:>8}")

    @staticmethod
    def header() -> str:
        return (f"{'pool':<14} {'workers':>7} {'requests':>8} "
                f"{'recycles':>8} {'crashes':>7} {'replays':>8} "
                f"{'timeouts':>8}")

    def shard_rows(self) -> list[str]:
        """Per-shard goodput lines (empty for unsharded workloads)."""
        if not self.per_shard:
            return []
        width = max(len(shard) or 1 for shard in self.per_shard)
        return [f"{(shard or '-'):<{width}}  {goodput:>8.1f} good_rps"
                for shard, goodput in sorted(self.per_shard.items())]


@dataclass
class LatencyRecorder:
    """Accumulates per-request latencies (seconds)."""

    samples: list[float] = field(default_factory=list)
    started_at: float | None = None
    finished_at: float | None = None

    # -- collection -----------------------------------------------------

    def start_run(self) -> None:
        self.started_at = time.perf_counter()

    def finish_run(self) -> None:
        self.finished_at = time.perf_counter()

    def record(self, seconds: float) -> None:
        self.samples.append(seconds)

    def time(self):
        """Context manager timing one request."""
        return _Timer(self)

    # -- summarisation -----------------------------------------------------

    def summary(self) -> Summary:
        if not self.samples:
            raise ValueError("no samples recorded")
        ordered = sorted(self.samples)
        count = len(ordered)
        mean = sum(ordered) / count
        variance = (sum((s - mean) ** 2 for s in ordered) / count
                    if count > 1 else 0.0)
        if self.started_at is not None and self.finished_at is not None:
            total = self.finished_at - self.started_at
        else:
            total = sum(ordered)
        return Summary(
            count=count,
            total_seconds=total,
            mean_ms=mean * 1e3,
            stdev_ms=math.sqrt(variance) * 1e3,
            min_ms=ordered[0] * 1e3,
            p50_ms=percentile(ordered, 0.50) * 1e3,
            p95_ms=percentile(ordered, 0.95) * 1e3,
            p99_ms=percentile(ordered, 0.99) * 1e3,
            max_ms=ordered[-1] * 1e3,
        )


def percentile(ordered: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of pre-sorted samples."""
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


class _Timer:
    def __init__(self, recorder: LatencyRecorder):
        self.recorder = recorder
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.recorder.record(time.perf_counter() - self._t0)
