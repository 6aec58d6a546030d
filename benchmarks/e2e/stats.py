"""Slice and percentile arithmetic for the e2e benchmark (stdlib only).

Every gated figure is a *median over slices*: a phase's samples are cut
into equal consecutive slices, the statistic is taken per slice, and the
median of those is reported.  One disturbed slice (a neighbour stealing
the core, a worker recycle) then moves the figure by nothing instead of
dragging a whole-run mean or tail with it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample.

    Nearest-rank returns a value that was actually observed, so "p95 of
    800 samples" has exactly 40 samples at or beyond it — the count the
    choosing-metrics guide asks a reported percentile to have.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def split_slices(values: Sequence, slices: int) -> list[Sequence]:
    """Cut ``values`` into ``slices`` equal consecutive runs.

    The tail that does not fill a slice is dropped, so every slice has
    the same sample count (workload counts are multiples of the slice
    count; the drop only matters for hand-picked counts).
    """
    if slices < 1:
        raise ValueError("need at least one slice")
    size = len(values) // slices
    if size < 1:
        raise ValueError(f"{len(values)} samples cannot fill {slices} slices")
    return [values[i * size:(i + 1) * size] for i in range(slices)]


def rate_slices(boundaries: Sequence[float], per_boundary: int) -> list[float]:
    """Completions per second in each slice of a closed-loop phase.

    ``boundaries[0]`` is the phase start and ``boundaries[i]`` the clock
    when the ``i * per_boundary``-th request completed.
    """
    return [per_boundary / (end - start)
            for start, end in zip(boundaries, boundaries[1:])]


def relative_iqr(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for <2 values).

    The same spread the acceptance rule uses across runs, applied here
    across the slices of one run.
    """
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return abs(third - first) / abs(middle)
