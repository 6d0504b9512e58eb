"""Latency histograms for simulated operations.

Benchmarks and examples use these to report tail latencies (p50/p99/p999)
without storing every sample: values land in exponentially sized buckets,
so memory stays constant while percentile error stays within one bucket
(~7%, set by ``GROWTH``).  Percentile queries interpolate
linearly *within* the winning bucket, so a quantile moves smoothly with
the sample distribution instead of quantizing to bucket boundaries —
which matters for p999 sweeps, where adjacent load points would otherwise
snap to the same bucket upper bound.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple


class LatencyHistogram:
    """Exponential-bucket histogram over nanosecond latencies."""

    #: each bucket's upper bound is this factor times the previous one's
    GROWTH = 1.07
    _LOG_GROWTH = math.log(GROWTH)
    #: upper bound of bucket 0, which holds every latency below it
    MIN_NS = 10

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0
        self.min_seen_ns = None

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError("negative latency")
        self.count += 1
        self.total_ns += latency_ns
        if latency_ns > self.max_ns:
            self.max_ns = latency_ns
        if self.min_seen_ns is None or latency_ns < self.min_seen_ns:
            self.min_seen_ns = latency_ns
        index = self._bucket_index(latency_ns)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def _bucket_index(self, latency_ns: int) -> int:
        if latency_ns < self.MIN_NS:
            return 0
        return 1 + int(math.log(latency_ns / self.MIN_NS) / self._LOG_GROWTH)

    def _bucket_upper_ns(self, index: int) -> float:
        if index == 0:
            return float(self.MIN_NS)
        return self.MIN_NS * self.GROWTH**index

    def _bucket_lower_ns(self, index: int) -> float:
        if index == 0:
            return 0.0
        return self.MIN_NS * self.GROWTH ** (index - 1)

    # -- queries -----------------------------------------------------------

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """The given quantile in ns, interpolated within its bucket.

        The quantile's rank is located in the exponential bucket list, then
        placed linearly between the bucket's bounds according to how far
        into the bucket's population the rank falls.  The result is clamped
        to the observed [min_seen_ns, max_ns] envelope, so ``percentile(1.0)``
        is exactly the maximum and a single-bucket histogram cannot report
        a value outside what was recorded.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.count == 0:
            return 0.0
        need = math.ceil(self.count * fraction)
        seen = 0
        for index in sorted(self._buckets):
            here = self._buckets[index]
            if seen + here >= need:
                lower = self._bucket_lower_ns(index)
                upper = self._bucket_upper_ns(index)
                value = lower + (upper - lower) * (need - seen) / here
                value = min(value, float(self.max_ns))
                if self.min_seen_ns is not None:
                    value = max(value, float(self.min_seen_ns))
                return value
            seen += here
        return float(self.max_ns)

    def percentiles_ns(self, *fractions: float) -> Dict[str, int]:
        """Rounded-integer quantiles keyed ``p50``/``p99``/``p999``-style.

        Integer ns keeps the values fingerprint-safe (exact comparison in
        the golden drift guard) while staying well within one bucket of
        the true quantile.
        """
        out: Dict[str, int] = {}
        for fraction in fractions:
            key = f"p{fraction * 100:g}".replace(".", "")
            out[key] = round(self.percentile(fraction))
        return out

    def summary_us(self) -> Dict[str, float]:
        """Mean/median/p99/max in microseconds."""
        return {
            "count": self.count,
            "mean_us": self.mean_ns / 1000.0,
            "p50_us": self.percentile(0.50) / 1000.0,
            "p99_us": self.percentile(0.99) / 1000.0,
            "max_us": self.max_ns / 1000.0,
        }

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram into this one."""
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self.total_ns += other.total_ns
        self.max_ns = max(self.max_ns, other.max_ns)
        if other.min_seen_ns is not None:
            if self.min_seen_ns is None:
                self.min_seen_ns = other.min_seen_ns
            else:
                self.min_seen_ns = min(self.min_seen_ns, other.min_seen_ns)

    def buckets(self) -> List[Tuple[float, int]]:
        """(bucket upper bound ns, count) pairs, ascending."""
        return [
            (self._bucket_upper_ns(i), self._buckets[i])
            for i in sorted(self._buckets)
        ]
