"""Disjoint block-interval sets and run-list algebra.

The OCC synchronizer (§2.4) reasons about *which blocks* were written or
moved, and real migrations touch long contiguous extents.  Representing
those block sets as sorted, disjoint, half-open ``[start, end)`` intervals
(the same technique the PM device uses for dirty-line tracking) turns the
per-block bookkeeping — dirty-set recording on the write path, clean-set
computation, retry lists — into O(runs) work instead of O(blocks).

Everything here is host-side bookkeeping: no simulated-clock charges.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, List, Tuple

#: a run as (start_block, length)
Run = Tuple[int, int]
#: an interval as half-open (start, end)
Interval = Tuple[int, int]


class BlockIntervalSet:
    """A mutable set of block numbers stored as disjoint intervals.

    Drop-in for the ``Set[int]`` previously used for
    ``dirty_during_migration``: supports ``add``/``clear``, membership,
    truthiness, iteration and equality against plain sets, while keeping
    interval-level access (:meth:`add_range`, :meth:`remove_range`,
    :meth:`runs`) for the O(runs) OCC path.
    """

    __slots__ = ("_ivals",)

    def __init__(self) -> None:
        self._ivals: List[Interval] = []

    # -- mutation ---------------------------------------------------------

    def add(self, block: int) -> None:
        self.add_range(block, 1)

    def add_range(self, start: int, count: int) -> None:
        """Insert ``[start, start+count)``, merging with neighbours."""
        if count <= 0:
            return
        end = start + count
        ivals = self._ivals
        if not ivals:
            ivals.append((start, end))
            return
        # common case on sequential write streams: extend/append at the tail
        last_start, last_end = ivals[-1]
        if start >= last_start:
            if start > last_end:
                ivals.append((start, end))
            elif end > last_end:
                ivals[-1] = (last_start, end)
            return
        # general case: binary search for the insertion point, then merge
        lo, hi = 0, len(ivals)
        while lo < hi:
            mid = (lo + hi) // 2
            if ivals[mid][1] < start:
                lo = mid + 1
            else:
                hi = mid
        first = lo
        new_start, new_end = start, end
        last = first
        while last < len(ivals) and ivals[last][0] <= new_end:
            new_start = min(new_start, ivals[last][0])
            new_end = max(new_end, ivals[last][1])
            last += 1
        ivals[first:last] = [(new_start, new_end)]

    def remove_range(self, start: int, count: int) -> None:
        """Remove ``[start, start+count)``, splitting intervals as needed."""
        if count <= 0:
            return
        end = start + count
        ivals = self._ivals
        lo, hi = 0, len(ivals)
        while lo < hi:
            mid = (lo + hi) // 2
            if ivals[mid][1] <= start:
                lo = mid + 1
            else:
                hi = mid
        first = lo
        last = first
        replacement: List[Interval] = []
        while last < len(ivals) and ivals[last][0] < end:
            s, e = ivals[last]
            if s < start:
                replacement.append((s, start))
            if e > end:
                replacement.append((end, e))
            last += 1
        if last > first:
            ivals[first:last] = replacement

    def clear(self) -> None:
        self._ivals.clear()

    # -- queries ----------------------------------------------------------

    def runs(self) -> List[Run]:
        """The content as sorted, disjoint (start, length) runs."""
        return [(s, e - s) for s, e in self._ivals]

    def overlap(self, start: int, count: int) -> List[Run]:
        """The content inside ``[start, start+count)`` as sorted runs.

        Equals ``intersect_runs(self.runs(), [(start, count)])`` but costs
        one bisection plus the intervals it returns, not the whole set.
        """
        if count <= 0:
            return []
        end = start + count
        ivals = self._ivals
        i = bisect_right(ivals, (start, end))
        if i and ivals[i - 1][1] > start:
            i -= 1
        out: List[Run] = []
        while i < len(ivals):
            s, e = ivals[i]
            if s >= end:
                break
            s = s if s > start else start
            e = e if e < end else end
            out.append((s, e - s))
            i += 1
        return out

    def __contains__(self, block: int) -> bool:
        ivals = self._ivals
        lo, hi = 0, len(ivals)
        while lo < hi:
            mid = (lo + hi) // 2
            if ivals[mid][1] <= block:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(ivals) and ivals[lo][0] <= block

    def __bool__(self) -> bool:
        return bool(self._ivals)

    def __len__(self) -> int:
        return sum(e - s for s, e in self._ivals)

    def __iter__(self) -> Iterator[int]:
        for s, e in self._ivals:
            yield from range(s, e)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BlockIntervalSet):
            return self._ivals == other._ivals
        if isinstance(other, (set, frozenset)):
            return len(self) == len(other) and all(b in self for b in other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"BlockIntervalSet({self.runs()!r})"


# -- run-list algebra (inputs/outputs sorted, disjoint, merged) ------------


def normalize_runs(runs: Iterable[Run]) -> List[Run]:
    """Sort and merge overlapping/adjacent (start, length) runs."""
    items = sorted((s, s + n) for s, n in runs if n > 0)
    merged: List[Interval] = []
    for s, e in items:
        if merged and s <= merged[-1][1]:
            if e > merged[-1][1]:
                merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return [(s, e - s) for s, e in merged]


def runs_length(runs: Iterable[Run]) -> int:
    """Total number of blocks covered by a run list."""
    return sum(n for _, n in runs)


def subtract_runs(a: List[Run], b: List[Run]) -> List[Run]:
    """Blocks in ``a`` but not in ``b`` (both normalized)."""
    if not b:
        return list(a)
    out: List[Run] = []
    j = 0
    for s, n in a:
        e = s + n
        cur = s
        while j < len(b) and b[j][0] + b[j][1] <= cur:
            j = j + 1
        k = j
        while cur < e:
            if k >= len(b) or b[k][0] >= e:
                out.append((cur, e - cur))
                break
            bs, bn = b[k]
            be = bs + bn
            if bs > cur:
                out.append((cur, bs - cur))
            cur = max(cur, be)
            k += 1
    return out


def intersect_runs(a: List[Run], b: List[Run]) -> List[Run]:
    """Blocks in both ``a`` and ``b`` (both normalized)."""
    out: List[Run] = []
    i = j = 0
    while i < len(a) and j < len(b):
        a_s, a_n = a[i]
        b_s, b_n = b[j]
        a_e, b_e = a_s + a_n, b_s + b_n
        s = max(a_s, b_s)
        e = min(a_e, b_e)
        if s < e:
            out.append((s, e - s))
        if a_e <= b_e:
            i += 1
        else:
            j += 1
    return out
