"""SLO tracking: availability and latency error-budget burn rates.

A latency histogram answers "how slow is it right now"; an SLO answers
"are we keeping our promise this month."  The bridge between them is
the **burn rate** (the SRE-workbook shape): over a lookback window,

    burn = (bad events / total events) / (1 - target)

A burn rate of 1.0 consumes the error budget exactly as fast as the
target allows; 14.4 over 5 minutes is the classic page-now threshold.
Multi-window gauges (a fast window catches incidents, a slow one
catches smoulder) make one number alertable without bespoke math in
the scrape consumer.

:class:`SloTracker` is deliberately *pull-based*: it owns no
per-request hook and re-reads the very counters and histogram the
router already maintains (``http_requests_total``,
``http_errors_total``, ``request_latency_ms`` — the same histogram the
overload controller ticks its live p99 from) using the bucket-snapshot
window-diff trick.  Each read takes a sample; burn rates are computed
against the oldest sample inside each window, so accuracy follows the
scrape cadence — exactly right for a surface whose consumer *is* the
scraper.  It attaches as the ``slo`` metrics source, so the gauges ride
``/metrics``, ``/statusz``, the access-log trailer and ``repro stats``
like every other family.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from typing import Callable, Optional

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = ["SloTracker"]

#: Default burn-rate lookback windows: (label, seconds).
DEFAULT_WINDOWS = (("5m", 300.0), ("1h", 3600.0), ("6h", 21600.0))


class SloTracker:
    """Multi-window availability + latency burn-rate gauges.

    ``availability_target`` is the promised success fraction (0.999 →
    a 0.1% error budget); ``latency_target`` the promised fraction of
    requests under ``latency_slo_ms``.  ``stats()`` returns, per
    window, ``availability_burn_<label>`` and ``latency_burn_<label>``
    plus the raw bad-event fractions, rounded for rendering.
    """

    #: Minimum spacing between retained samples; bursts of scrapes
    #: collapse onto one sample so the ring stays small.
    MIN_SAMPLE_SPACING = 1.0

    def __init__(self, registry: MetricsRegistry, *,
                 availability_target: float = 0.999,
                 latency_slo_ms: float = 100.0,
                 latency_target: float = 0.99,
                 windows=DEFAULT_WINDOWS,
                 clock: Callable[[], float] = time.monotonic):
        if not 0.0 < availability_target < 1.0:
            raise ValueError("availability_target must be in (0, 1)")
        if not 0.0 < latency_target < 1.0:
            raise ValueError("latency_target must be in (0, 1)")
        self.registry = registry
        self.availability_target = availability_target
        self.latency_slo_ms = latency_slo_ms
        self.latency_target = latency_target
        self.windows = tuple(windows)
        self._clock = clock
        self._lock = threading.Lock()
        self._requests = registry.counter("http_requests_total")
        self._errors = registry.counter("http_errors_total")
        self._latency = registry.histogram("request_latency_ms")
        # Observations strictly over the SLO occupy buckets past this
        # index (the same bisect an observe() pays; boundary-bucket
        # blur is the histogram's usual ≤12%).
        self._slo_bucket = bisect_right(Histogram.BOUNDS, latency_slo_ms)
        #: (t, requests, errors, bucket_counts) ring, oldest first.
        self._samples: list[tuple[float, int, int, list[int]]] = []

    # -- sampling ----------------------------------------------------------

    def tick(self) -> None:
        """Take one sample now (called implicitly by ``stats()``)."""
        now = self._clock()
        sample = (now, self._requests.value, self._errors.value,
                  self._latency.bucket_counts())
        horizon = now - max(seconds for _, seconds in self.windows) \
            - self.MIN_SAMPLE_SPACING
        with self._lock:
            if (self._samples
                    and now - self._samples[-1][0]
                    < self.MIN_SAMPLE_SPACING):
                return
            self._samples.append(sample)
            while self._samples and self._samples[0][0] < horizon:
                self._samples.pop(0)

    def _baseline(self, now: float, seconds: float):
        """The oldest retained sample inside the window."""
        cutoff = now - seconds
        with self._lock:
            for sample in self._samples:
                if sample[0] >= cutoff:
                    return sample
        return None

    # -- the read path -----------------------------------------------------

    def stats(self) -> dict[str, float]:
        self.tick()
        now = self._clock()
        current = (self._requests.value, self._errors.value,
                   self._latency.bucket_counts())
        out: dict[str, float] = {
            "availability_target": self.availability_target,
            "latency_target": self.latency_target,
            "latency_slo_ms": self.latency_slo_ms,
        }
        avail_budget = 1.0 - self.availability_target
        latency_budget = 1.0 - self.latency_target
        for label, seconds in self.windows:
            base = self._baseline(now, seconds)
            requests = errors = over = 0
            if base is not None:
                requests = current[0] - base[1]
                errors = current[1] - base[2]
                over = (sum(current[2][self._slo_bucket + 1:])
                        - sum(base[3][self._slo_bucket + 1:]))
            if requests <= 0:
                error_fraction = slow_fraction = 0.0
            else:
                error_fraction = max(0, errors) / requests
                slow_fraction = max(0, over) / requests
            out[f"availability_burn_{label}"] = round(
                error_fraction / avail_budget, 3)
            out[f"latency_burn_{label}"] = round(
                slow_fraction / latency_budget, 3)
            out[f"error_fraction_{label}"] = round(error_fraction, 5)
            out[f"slow_fraction_{label}"] = round(slow_fraction, 5)
        return out

    def over_slo(self, duration_ms: float) -> bool:
        """Is one request's latency over the SLO? (edge/test helper)"""
        return duration_ms >= self.latency_slo_ms
