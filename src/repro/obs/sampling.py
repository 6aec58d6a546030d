"""Tail-based trace sampling: decide after the request, not before.

Head sampling (flip a coin when the request starts) throws away exactly
the traces an operator needs: the errors and the outliers, which are
rare by definition.  The tracer already buffers each request's full
span tree and delivers it at completion, so the sampling decision can
wait until everything about the request is known:

* an **error** anywhere in the tree → always kept,
* an **over-SLO** root duration → always kept,
* otherwise a bounded **per-digest reservoir**: the first ``per_key``
  traces of each statement-digest group per window are kept (every
  query shape stays represented in the log), the rest fall through to
* a configurable **head probability** (default 0: drop).

:class:`TailSampler` wraps the *file* sinks only — ``repro serve``
keeps the metrics bridge and statement stats outside the sampler, so
aggregates see every trace while the JSONL log stays bounded under
load.  ``benchmarks/bench_obs_overhead.py`` enforces the bound: ≤10%
of the head-sampled volume written, 100% of error and over-SLO traces
retained.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional

__all__ = ["TailSampler", "parse_sample_spec"]

#: Span name carrying statement digests (mirrors repro.obs.sinks).
_SQL_SPAN_NAME = "sql.execute"

KEEP_ERROR = "error"
KEEP_SLOW = "over_slo"
KEEP_RESERVOIR = "reservoir"
KEEP_HEAD = "head"


def parse_sample_spec(spec: str) -> dict:
    """Parse a ``--trace-sample`` spec into :class:`TailSampler` kwargs.

    ``"slo_ms=250,per_key=5,window_s=60,head=0.01"`` — any subset, in
    any order; a bare ``"on"``/``"1"`` takes every default.  Raises
    :class:`ValueError` on unknown keys or non-numeric values so a
    typo fails at startup, not silently at sampling time.
    """
    kwargs: dict = {}
    spec = spec.strip()
    if spec.lower() in ("", "on", "1", "true"):
        return kwargs
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip().lower()
        try:
            number = float(value.strip())
        except ValueError:
            raise ValueError(
                f"trace-sample entry {part!r} is not key=number")
        if key in ("slo_ms", "slo"):
            kwargs["slo_ms"] = number
        elif key in ("per_key", "reservoir"):
            kwargs["per_key"] = int(number)
        elif key in ("window_s", "window"):
            kwargs["window_s"] = number
        elif key in ("head", "head_probability"):
            kwargs["head_probability"] = number
        else:
            raise ValueError(f"unknown trace-sample key {key!r}")
    return kwargs


class TailSampler:
    """A filtering trace sink: forward kept traces to wrapped sinks."""

    def __init__(self, *sinks: Callable, slo_ms: Optional[float] = None,
                 per_key: int = 5, window_s: float = 60.0,
                 head_probability: float = 0.0,
                 registry=None, clock: Callable[[], float] = time.monotonic,
                 rng: Optional[random.Random] = None):
        self.sinks = list(sinks)
        self.slo_ms = slo_ms
        self.per_key = per_key
        self.window_s = window_s
        self.head_probability = head_probability
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        self._window_start = clock()
        self._window_counts: dict[str, int] = {}
        self._kept = {KEEP_ERROR: 0, KEEP_SLOW: 0, KEEP_RESERVOIR: 0,
                      KEEP_HEAD: 0}
        self._dropped = 0
        if registry is not None:
            self._m_kept = registry.counter("trace_sampler_kept_total")
            self._m_dropped = registry.counter(
                "trace_sampler_dropped_total")
        else:
            self._m_kept = self._m_dropped = None

    # -- the decision ------------------------------------------------------

    def decide(self, root) -> tuple[bool, str]:
        """``(keep, reason)`` for one finished root span."""
        digests: Optional[list] = None
        has_error = False
        for span in root.walk():
            attrs = span._attrs
            if not attrs:
                continue
            if "error" in attrs:
                has_error = True
                break
            if span.name == _SQL_SPAN_NAME:
                digest = attrs.get("digest")
                if digest:
                    if digests is None:
                        digests = [digest]
                    else:
                        digests.append(digest)
        return self._decide(root, has_error, digests)

    def _decide(self, root, has_error: bool,
                digests: Optional[list]) -> tuple[bool, str]:
        if has_error:
            return True, KEEP_ERROR
        root_attrs = root._attrs or {}
        status = root_attrs.get("status")
        if isinstance(status, int) and status >= 500:
            return True, KEEP_ERROR
        if self.slo_ms is not None and root.duration_ms >= self.slo_ms:
            return True, KEEP_SLOW
        if digests is None:
            key = root_attrs.get("target") or root.name
        elif len(digests) == 1:
            key = digests[0]
        else:
            key = ",".join(sorted(set(digests)))
        if self._reserve(str(key)):
            return True, KEEP_RESERVOIR
        if (self.head_probability > 0.0
                and self._rng.random() < self.head_probability):
            return True, KEEP_HEAD
        return False, ""

    def _reserve(self, key: str) -> bool:
        now = self._clock()
        with self._lock:
            if now - self._window_start >= self.window_s:
                self._window_start = now
                self._window_counts.clear()
            seen = self._window_counts.get(key, 0)
            if seen >= self.per_key:
                return False
            self._window_counts[key] = seen + 1
            return True

    # -- the sink surface --------------------------------------------------

    def on_summary(self, summary) -> None:
        """Pre-walked delivery (see :class:`repro.obs.sinks.FanoutSink`).

        The summary already knows whether the tree errored and which
        ``sql.execute`` spans it holds, so the decision skips the walk
        :meth:`decide` pays — this is the hot path of every traced
        request in ``repro serve``.
        """
        sql_spans = summary.sql_spans
        digests: Optional[list] = None
        if sql_spans:
            for span in sql_spans:
                attrs = span._attrs
                digest = attrs.get("digest") if attrs else None
                if digest:
                    if digests is None:
                        digests = [digest]
                    else:
                        digests.append(digest)
        root = summary.root
        self._settle(root, *self._decide(root, summary.has_error,
                                         digests))

    def __call__(self, root) -> None:
        self._settle(root, *self.decide(root))

    def _settle(self, root, keep: bool, reason: str) -> None:
        if not keep:
            with self._lock:
                self._dropped += 1
            if self._m_dropped is not None:
                self._m_dropped.inc()
            return
        with self._lock:
            self._kept[reason] += 1
        if self._m_kept is not None:
            self._m_kept.inc()
        for sink in self.sinks:
            try:
                sink(root)
            except Exception:  # noqa: BLE001 - mirror Tracer._deliver:
                pass           # a broken sink must not take the request

    def stats(self) -> dict[str, float]:
        """Kept/dropped counters by decision (tests, metrics source)."""
        with self._lock:
            stats: dict[str, float] = {
                f"kept_{reason}": count
                for reason, count in self._kept.items()}
            stats["kept_total"] = sum(self._kept.values())
            stats["dropped_total"] = self._dropped
            return stats
