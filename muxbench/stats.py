"""Exact percentiles and run-to-run spread.

Percentiles are nearest-rank over the raw per-op latencies, never over
histogram buckets, so two runs of one seed agree to the nanosecond.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: a percentile is only *supported* when at least this many samples lie
#: beyond it; below that one outlier decides the value
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Smallest sample with at least ``q`` of the samples at or below it."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def supported(n: int, q: float) -> bool:
    """True when ``n`` samples leave ``MIN_BEYOND`` beyond percentile ``q``."""
    return n - max(1, math.ceil(q * n)) >= MIN_BEYOND


def tail(sorted_values: Sequence[float], q: float) -> Tuple[Optional[float], Optional[float]]:
    """``(value, q_used)`` for percentile ``q`` under the ten-beyond rule.

    ``q_used == q`` when the sample supports it.  Otherwise the value is
    the highest rank that still has ``MIN_BEYOND`` samples beyond it (the
    highest percentile the sample supports) and ``q_used`` says which one
    that is; the report prints such a percentile as ``n/a`` beside the
    stand-in.  A sample too small for any supported rank yields its
    nearest-rank value with ``q_used=None``; an empty one ``(None, None)``.
    """
    n = len(sorted_values)
    if n == 0:
        return None, None
    if supported(n, q):
        return nearest_rank(sorted_values, q), q
    rank = n - MIN_BEYOND
    if rank >= 1:
        return sorted_values[rank - 1], rank / n
    return nearest_rank(sorted_values, q), None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a constant)."""
    q1, q2, q3 = quartiles(values)
    return abs(q3 - q1) / abs(q2) if q2 else 0.0


def max_rel_diff(values: Sequence[float]) -> float:
    """Largest pairwise difference as a share of the smallest magnitude."""
    lo, hi = min(values), max(values)
    if hi == lo:
        return 0.0
    base = min(abs(lo), abs(hi))
    return (hi - lo) / base if base else math.inf
