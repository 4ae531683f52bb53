"""Percentiles, segment medians and run-to-run spread.

A timing is reported as a median plus the highest percentile that still
has at least :data:`MIN_BEYOND` samples beyond it; a percentile with
fewer is printed with its count so nobody reads a tail off three points.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Callable, Sequence

#: Samples that must lie beyond a percentile for it to count as supported.
MIN_BEYOND = 10
#: The timed phase is cut into this many equal consecutive segments.
SEGMENTS = 5


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least MIN_BEYOND beyond percentile ``q``."""
    return samples_beyond(n, q) >= MIN_BEYOND


def segments(
    samples: Sequence[tuple[float, float]], start: float, end: float
) -> list[list[float]]:
    """Cut ``(timestamp, value)`` samples into SEGMENTS equal time slices.

    Samples are assigned by timestamp over ``[start, end]``; clients are
    pooled because the caller passes every client's samples together.
    """
    width = (end - start) / SEGMENTS
    out: list[list[float]] = [[] for _ in range(SEGMENTS)]
    for stamp, value in samples:
        index = int((stamp - start) / width) if width > 0 else 0
        out[min(max(index, 0), SEGMENTS - 1)].append(value)
    return out


def segment_median(
    samples: Sequence[tuple[float, float]],
    start: float,
    end: float,
    stat: Callable[[Sequence[float]], float],
    *,
    q: float = 50.0,
) -> float:
    """Median over segments of ``stat``; pooled when a segment is too thin.

    One disturbed segment moves a pooled statistic but not the median of
    five. ``q`` is the percentile ``stat`` computes: if any segment
    cannot support it (fewer than MIN_BEYOND samples beyond), the
    statistic is taken once over the pooled samples instead.
    """
    parts = segments(samples, start, end)
    if all(supported(len(part), q) for part in parts):
        return statistics.median(stat(part) for part in parts)
    return stat([value for _, value in samples])


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the driver's measure)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first`` as a share of ``first``."""
    if first == 0:
        return 0.0 if second == 0 else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
