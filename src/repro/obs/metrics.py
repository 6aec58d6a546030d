"""Process-wide metrics: counters, gauges, streaming histograms, sources.

The 1996 webmaster's instrument panel was the access log; everything
since (mod_status, FastCGI process managers, Prometheus) grew a second
surface: live counters scraped from the running server.  This module is
that surface for the gateway — a :class:`MetricsRegistry` holding

* **counters** — monotonically increasing totals (requests, errors),
* **gauges** — point-in-time values (pool size, worker count),
* **histograms** — latency distributions with streaming p50/p95/p99,
  implemented as log-spaced buckets so an observation costs one bisect
  and one list increment regardless of how many samples came before,
* **labeled families** — one metric over one label, bounded in
  cardinality (:class:`LabeledValues`),
* **sources** — a subsystem's ``stats()`` callable, polled at read time
  (:meth:`MetricsRegistry.attach_source`).  A polled key ending in
  ``_total``, or one its source names a counter, is a counter, any
  other a gauge.

Every read path — the text ``/metrics`` scrape, the JSON ``/statusz``,
the access log's ``#stats`` trailer and ``repro stats`` — formats one
walk over all of them (:meth:`MetricsRegistry._samples`), so a sample
carries the same name and the same type wherever it is read.

Everything is thread-safe (the HTTP server handles requests on
threads); observation cost is a few dictionary operations, so metrics
stay on even when tracing is off.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_right
from typing import Callable, Collection, Optional

__all__ = ["Counter", "Gauge", "Histogram", "LabeledValues",
           "MetricsRegistry", "OTHER_LABEL", "REGISTRY", "parse_sample",
           "quantile_from_counts"]

_NAME_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(r'^([\w:]+)\{(\w+)="((?:[^"\\]|\\.)*)"\}$')
_UNESCAPE_RE = re.compile(r"\\(.)")

#: The overflow series every capped family shares.
OTHER_LABEL = "_other"

#: Entities a labeled source renders before the rest collapse into
#: :data:`OTHER_LABEL`.
SOURCE_MAX_SERIES = 64

#: A summary's quantile samples: (label value, snapshot key).
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))

#: ``/statusz`` groups samples by type under these keys.
_SNAPSHOT_GROUPS = {"counter": "counters", "gauge": "gauges",
                    "summary": "summaries"}


def _scrape_name(name: str) -> str:
    """A metric name made safe for the text exposition format."""
    return _NAME_SANITIZE_RE.sub("_", name)


def _sample(name: str, label: str, value: str) -> str:
    """The sample name ``name{label="value"}``, value escaped."""
    escaped = (str(value).replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n"))
    return f'{name}{{{label}="{escaped}"}}'


def parse_sample(sample: str) -> tuple[str, Optional[str], Optional[str]]:
    """Split a sample name into ``(name, label, label value)``.

    The inverse of the rendering: ``tenant_requests_total{tenant="a"}``
    gives ``("tenant_requests_total", "tenant", "a")``, an unlabeled
    name gives ``(name, None, None)``.
    """
    match = _SAMPLE_RE.match(sample)
    if match is None:
        return sample, None, None
    name, label, value = match.groups()
    return name, label, _UNESCAPE_RE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), value)


class Counter:
    """A monotonically increasing total.  ``lock`` is shared by every
    counter and histogram of one :class:`MetricsRegistry` (its
    :attr:`~MetricsRegistry.lock`); a standalone counter has its own."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str,
                 lock: Optional[threading.Lock] = None):
        self.name = name
        self._value = 0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    def inc_locked(self, amount: int = 1) -> None:
        """:meth:`inc` for a caller already holding this counter's lock."""
        self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value; set, not accumulated."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value


class LabeledValues:
    """One metric family over a single label, bounded in cardinality.

    Values are plain accumulators (``inc``) or last-writes (``set``);
    the first ``max_series`` distinct label values get their own
    series, later ones merge into :data:`OTHER_LABEL`, so a hostile or
    merely enthusiastic label source cannot blow up the scrape.
    First-come membership is deterministic for a given traffic order
    and never reshuffles, so a series that exists keeps existing.
    """

    __slots__ = ("name", "label", "kind", "max_series", "_series",
                 "_lock")

    def __init__(self, name: str, label: str, *, kind: str = "counter",
                 max_series: int = 32):
        if kind not in ("counter", "gauge"):
            raise ValueError(f"unknown labeled metric kind {kind!r}")
        self.name = name
        self.label = label
        self.kind = kind
        self.max_series = max_series
        self._series: dict[str, float] = {}
        self._lock = threading.Lock()

    def _slot(self, value: str) -> str:
        if value in self._series or len(self._series) < self.max_series:
            return value
        return OTHER_LABEL

    def inc(self, value: str, amount: float = 1) -> None:
        with self._lock:
            slot = self._slot(value)
            self._series[slot] = self._series.get(slot, 0) + amount

    def set(self, value: str, number: float) -> None:
        # Overflow gauges share one slot last-write-wins: the bucket
        # still reads as "some overflow series exists".
        with self._lock:
            self._series[self._slot(value)] = number

    def series(self) -> dict[str, float]:
        """A consistent ``label value -> number`` snapshot."""
        with self._lock:
            return dict(self._series)


def _log_bounds(lowest: float, highest: float, factor: float) -> list[float]:
    bounds = []
    edge = lowest
    while edge < highest:
        bounds.append(edge)
        edge *= factor
    bounds.append(highest)
    return bounds


class Histogram:
    """A streaming latency distribution with quantile estimates.

    Observations land in log-spaced buckets (factor 1.25 from 1µs to
    10 minutes, in milliseconds), so quantiles carry at most ~12%
    relative error — plenty for a latency panel — while observation
    cost and memory stay constant.  ``sum``/``count``/``min``/``max``
    are tracked exactly.
    """

    #: Bucket upper bounds in milliseconds, shared by every histogram.
    BOUNDS: list[float] = _log_bounds(0.001, 600_000.0, 1.25)

    __slots__ = ("name", "_counts", "_count", "_sum", "_min", "_max",
                 "_lock")

    def __init__(self, name: str,
                 lock: Optional[threading.Lock] = None):
        self.name = name
        self._counts = [0] * (len(self.BOUNDS) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: shared like a :class:`Counter`'s
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.observe_locked(value)

    def observe_locked(self, value: float) -> None:
        """:meth:`observe` for a caller already holding this
        histogram's lock (a trace fold observing several at once)."""
        self._counts[bisect_right(self.BOUNDS, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1); 0.0 with no samples."""
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        target = q * self._count
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            seen += bucket_count
            if seen >= target:
                lower = self.BOUNDS[index - 1] if index > 0 else 0.0
                upper = (self.BOUNDS[index] if index < len(self.BOUNDS)
                         else self._max)
                # Clamp the bucket edges to the observed extremes so a
                # single-sample histogram reports the sample itself.
                lower = max(lower, min(self._min, upper))
                upper = min(upper, self._max)
                if upper < lower:
                    upper = lower
                return (lower + upper) / 2.0
        return self._max  # pragma: no cover - defensive

    def bucket_counts(self) -> list[int]:
        """A consistent copy of the cumulative per-bucket counts.

        The window trick: snapshot now, snapshot later, subtract — the
        difference is a histogram of only the observations in between.
        :func:`quantile_from_counts` turns that difference back into a
        quantile, which is how the overload controller reads a *live*
        p99 off the same histogram the scrape endpoints render
        cumulatively.
        """
        with self._lock:
            return list(self._counts)

    def snapshot(self) -> dict[str, float]:
        """Count, sum and the standard quantiles, one consistent view."""
        with self._lock:
            return self.snapshot_locked()

    def snapshot_locked(self) -> dict[str, float]:
        """:meth:`snapshot` for a caller already holding the lock."""
        if self._count == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self._count,
            "sum": round(self._sum, 3),
            "mean": round(self._sum / self._count, 3),
            "min": round(self._min, 3),
            "max": round(self._max, 3),
            "p50": round(self._quantile_locked(0.50), 3),
            "p95": round(self._quantile_locked(0.95), 3),
            "p99": round(self._quantile_locked(0.99), 3),
        }


def quantile_from_counts(counts: list[int], q: float, *,
                         bounds: Optional[list[float]] = None) -> float:
    """Estimated ``q``-quantile of a bucket-count vector.

    ``counts`` has the :attr:`Histogram.BOUNDS` shape (one overflow
    bucket at the end); typically it is the element-wise difference of
    two :meth:`Histogram.bucket_counts` snapshots — the observations of
    one window.  Returns 0.0 for an empty (or all-zero) vector.
    """
    if bounds is None:
        bounds = Histogram.BOUNDS
    total = sum(counts)
    if total <= 0:
        return 0.0
    target = q * total
    seen = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        seen += bucket_count
        if seen >= target:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else bounds[-1]
            return (lower + upper) / 2.0
    return bounds[-1]  # pragma: no cover - defensive


#: One family as the sample walk sees it: (name, type, [(sample, value)]).
_Family = tuple[str, str, list[tuple[str, float]]]


class MetricsRegistry:
    """The process-wide bag of named metrics plus polled sources.

    Metric creation is get-or-create by name (``inc``/``observe``/
    ``set_gauge`` are the one-line forms), so instrumentation points
    never need wiring beyond a registry reference.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: The one lock every counter and histogram of this registry
        #: takes: a caller updating several at once (the trace fold)
        #: takes it once, with ``inc_locked``/``observe_locked``.
        self.lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._labeled: dict[str, LabeledValues] = {}
        self._sources: dict[str, tuple[Callable[[], dict],
                                       Optional[str]]] = {}

    # -- get-or-create ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(
                    name, Counter(name, self.lock))
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name))
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(
                    name, Histogram(name, self.lock))
        return metric

    def labeled(self, name: str, label: str, *, kind: str = "counter",
                max_series: int = 32) -> LabeledValues:
        """Get-or-create a one-label metric family (bounded series;
        overflow collapses into :data:`OTHER_LABEL`)."""
        family = self._labeled.get(name)
        if family is None:
            with self._lock:
                family = self._labeled.setdefault(
                    name, LabeledValues(name, label, kind=kind,
                                        max_series=max_series))
        return family

    # -- one-line instrumentation ----------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- polled sources --------------------------------------------------

    def attach_source(self, prefix: str, source: Callable[[], dict], *,
                      label: Optional[str] = None,
                      counters: Collection[str] = ()) -> None:
        """Poll ``source()`` at read time, its keys under ``prefix``.

        ``source()`` returns ``{key: number}``, each rendered as
        ``<prefix>_<key>``.  With ``label`` it returns one bag per
        entity, ``{label_value: {key: number}}``, each key rendered
        only as ``<prefix>_<key>{<label>="<label_value>"}`` — the
        lexicographically first :data:`SOURCE_MAX_SERIES` entities
        get their own series, the rest are summed into
        :data:`OTHER_LABEL`.  The empty label value carries the
        source's unlabeled keys (a shard map's topology-wide counts).
        A key ending in ``_total`` or named in ``counters`` (a source's
        cumulative counts whose names predate the suffix, such as the
        query cache's ``hits``) is a counter, any other a gauge.
        """
        with self._lock:
            self._sources[prefix] = (source, label, frozenset(counters))

    def _polled(self) -> list[_Family]:
        with self._lock:
            sources = list(self._sources.items())
        families: dict[str, dict[str, float]] = {}
        kinds: dict[str, str] = {}
        for prefix, (source, label, counters) in sources:
            try:
                polled = dict(source())
                bags = _capped(polled) if label else {"": polled}
            except Exception:  # noqa: BLE001 - a broken bag must not
                continue       # take the metrics surface down
            if label:
                label = _scrape_name(label)
            for value, bag in bags.items():
                for key, number in bag.items():
                    if not isinstance(number, (int, float)):
                        continue
                    name = _scrape_name(f"{prefix}_{key}")
                    sample = _sample(name, label, value) if value else name
                    families.setdefault(name, {})[sample] = number
                    kinds[name] = ("counter" if key in counters
                                   or name.endswith("_total") else "gauge")
        return [(name, kinds[name], sorted(samples.items()))
                for name, samples in families.items()]

    # -- read paths ------------------------------------------------------

    def _samples(self) -> list[tuple[str, str, str, float]]:
        """Every sample as ``(family, type, sample, value)``, sorted by
        family.

        ``sample`` is the name exactly as the text exposition prints it
        — the family name, ``family{label="value"}``, or a summary's
        ``family_count`` / ``family_sum`` — and the one name every read
        path uses for it.
        """
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
            labeled = list(self._labeled.items())
        families: list[_Family] = []
        for name, counter in counters:
            name = _scrape_name(name)
            families.append((name, "counter", [(name, counter.value)]))
        for name, gauge in gauges:
            name = _scrape_name(name)
            families.append((name, "gauge", [(name, gauge.value)]))
        for name, histogram in histograms:
            name = _scrape_name(name)
            snap = histogram.snapshot()
            families.append((name, "summary", [
                *((_sample(name, "quantile", q), snap[key])
                  for q, key in _QUANTILES),
                (f"{name}_count", snap["count"]),
                (f"{name}_sum", snap["sum"])]))
        for name, family in labeled:
            name, label = _scrape_name(name), _scrape_name(family.label)
            families.append((name, family.kind, [
                (_sample(name, label, value), number)
                for value, number in sorted(family.series().items())]))
        families.extend(self._polled())
        families.sort(key=lambda family: family[0])
        return [(name, kind, sample, value)
                for name, kind, samples in families
                for sample, value in samples]

    def flat(self) -> dict[str, float]:
        """Every sample as one flat ``sample name -> number`` dict —
        the access log's ``#stats`` trailer, read back by ``repro
        stats``."""
        return {sample: value for _, _, sample, value in self._samples()}

    def snapshot(self) -> dict:
        """The ``/statusz`` body: the samples grouped by type."""
        snapshot: dict[str, dict] = {group: {} for group in
                                     _SNAPSHOT_GROUPS.values()}
        for _, kind, sample, value in self._samples():
            snapshot[_SNAPSHOT_GROUPS[kind]][sample] = value
        return snapshot

    def render_text(self) -> str:
        """The ``/metrics`` scrape body (Prometheus text exposition):
        one ``# TYPE`` line per family, histograms as summaries."""
        lines: list[str] = []
        current = None
        for name, kind, sample, value in self._samples():
            if name != current:
                current = name
                lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{sample} {_number(value)}")
        return "\n".join(lines) + "\n"


def _capped(polled: dict) -> dict[str, dict]:
    """A labeled source's bags with every entity past the first
    :data:`SOURCE_MAX_SERIES` (in sorted order) summed into
    :data:`OTHER_LABEL`."""
    bags = {str(value): bag for value, bag in polled.items()
            if isinstance(bag, dict)}
    entities = sorted(value for value in bags if value)
    capped = {value: bags[value]
              for value in ("", *entities[:SOURCE_MAX_SERIES])
              if value in bags}
    for value in entities[SOURCE_MAX_SERIES:]:
        other = capped.setdefault(OTHER_LABEL, {})
        for key, number in bags[value].items():
            other[key] = other.get(key, 0) + number
    return capped


def _number(value) -> str:
    """Render a metric value without a trailing ``.0`` on whole numbers."""
    if isinstance(value, bool):  # bools are ints; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


#: The default process-wide registry.  The serving stack wires this one
#: unless told otherwise; tests build private registries.
REGISTRY = MetricsRegistry()
