"""Extent tree: sorted, non-overlapping runs mapping file blocks to targets.

This one structure backs both uses in the reproduction:

* native file systems (XFS/Ext4 style) map file-block ranges to *device*
  block ranges — the target value advances along the run
  (``value_is_offset=True``);
* Mux's Block Lookup Table (§2.2) maps file-block ranges to a *tier id* —
  the value is constant along the run (``value_is_offset=False``).

The tree is maintained sorted by starting file block with strictly
non-overlapping extents; adjacent compatible extents are coalesced.  Python
lists + ``bisect`` give O(log n) lookup and O(n) worst-case insert, which is
the right trade-off at simulation scale (the paper's point is the *design*,
not the constant factor of the kernel implementation).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple


@dataclass
class Extent:
    """A run of ``count`` file blocks starting at ``start`` mapped to ``value``."""

    start: int
    count: int
    value: int

    @property
    def end(self) -> int:
        """One past the last file block of the run."""
        return self.start + self.count

    def value_at(self, block: int, value_is_offset: bool) -> int:
        """Mapped value for one file block inside this extent."""
        if not self.start <= block < self.end:
            raise ValueError(f"block {block} outside extent [{self.start},{self.end})")
        if value_is_offset:
            return self.value + (block - self.start)
        return self.value


class ExtentTree:
    """Sorted non-overlapping extent map with coalescing.

    Point queries go through :meth:`lookup` (one bisection each); a caller
    that already holds its blocks in ascending order — the write-back path
    does — resolves them all with :meth:`lookup_ascending` in one walk.
    """

    def __init__(self, value_is_offset: bool = True) -> None:
        self.value_is_offset = value_is_offset
        self._starts: List[int] = []
        self._extents: List[Extent] = []

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._extents)

    @property
    def mapped_blocks(self) -> int:
        """Total number of mapped file blocks."""
        return sum(e.count for e in self._extents)

    def end_block(self) -> int:
        """One past the highest mapped block (0 when empty)."""
        if not self._extents:
            return 0
        return self._extents[-1].end

    def _index_for(self, block: int) -> int:
        """Index of the extent containing ``block``, or -1."""
        i = bisect_right(self._starts, block) - 1
        if i >= 0 and self._extents[i].start <= block < self._extents[i].end:
            return i
        return -1

    def lookup(self, block: int) -> Optional[int]:
        """Mapped value of one file block, or None if it is a hole."""
        i = self._index_for(block)
        if i < 0:
            return None
        return self._extents[i].value_at(block, self.value_is_offset)

    def lookup_ascending(self, blocks: Sequence[int]) -> List[Optional[int]]:
        """:meth:`lookup` of every block of an *ascending* sequence.

        Precondition: ``blocks`` is sorted (duplicates allowed); anything
        else raises ``ValueError``.  That is what lets one merge walk
        replace a bisection per block: one bisect places a cursor at the
        first block's extent and it only ever moves forward, stepping to
        the next extent or bisecting over the remainder across a gap.
        """
        out: List[Optional[int]] = []
        if not blocks:
            return out
        starts = self._starts
        extents = self._extents
        n = len(extents)
        offset = self.value_is_offset
        prev = blocks[0]
        # the cursor is extent ``i`` = [lo, hi); it starts parked (empty)
        # just before the first block's candidate extent
        i = max(bisect_right(starts, prev) - 1, 0) - 1
        lo = hi = prev
        value = 0
        for block in blocks:
            if block < prev:
                raise ValueError(f"blocks not ascending: {block} after {prev}")
            prev = block
            if block >= hi and i < n:
                i += 1
                if i < n and extents[i].end <= block:
                    i = bisect_right(starts, block, i + 1) - 1
                if i < n:
                    ext = extents[i]
                    lo = ext.start
                    hi = lo + ext.count
                    value = ext.value
            if lo <= block < hi:
                out.append(value + (block - lo) if offset else value)
            else:
                out.append(None)
        return out

    def runs(self, start: int, count: int) -> Iterator[Tuple[int, int, Optional[int]]]:
        """Decompose [start, start+count) into (block, run_len, value) runs.

        Holes are yielded with ``value=None``.  Mapped runs report the value
        of their first block; with ``value_is_offset`` the caller advances
        the value along the run itself.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        # every read walks this: extent bounds and values are read as
        # fields (``Extent.end``/``value_at`` inlined), not through frames
        extents = self._extents
        n = len(extents)
        offset = self.value_is_offset
        pos = start
        end = start + count
        i = bisect_right(self._starts, start) - 1
        if i < 0:
            i = 0
        while pos < end:
            # advance to the extent that could contain pos
            while i < n and extents[i].start + extents[i].count <= pos:
                i += 1
            if i >= n or extents[i].start >= end:
                yield pos, end - pos, None
                return
            ext = extents[i]
            lo = ext.start
            if lo > pos:
                yield pos, lo - pos, None
                pos = lo
            take = min(end, lo + ext.count) - pos
            yield pos, take, ext.value + (pos - lo) if offset else ext.value
            pos += take

    # -- mutation ----------------------------------------------------------------

    def map_range(self, start: int, count: int, value: int) -> None:
        """Map [start, start+count) to ``value``, replacing prior mappings."""
        if count <= 0:
            raise ValueError("count must be positive")
        self.unmap_range(start, count)
        new = Extent(start, count, value)
        i = bisect_right(self._starts, start)
        self._extents.insert(i, new)
        self._starts.insert(i, start)
        self._coalesce_around(i)

    def unmap_range(self, start: int, count: int) -> int:
        """Remove mappings over [start, start+count); returns blocks removed."""
        if count <= 0:
            return 0
        end = start + count
        removed = 0
        i = bisect_right(self._starts, start) - 1
        if i < 0:
            i = 0
        while i < len(self._extents):
            ext = self._extents[i]
            if ext.start >= end:
                break
            if ext.end <= start:
                i += 1
                continue
            # overlap exists; split as needed
            left = None
            right = None
            if ext.start < start:
                left = Extent(ext.start, start - ext.start, ext.value)
            if ext.end > end:
                off = end - ext.start
                rv = ext.value + off if self.value_is_offset else ext.value
                right = Extent(end, ext.end - end, rv)
            removed += min(ext.end, end) - max(ext.start, start)
            del self._extents[i]
            del self._starts[i]
            for piece in (left, right):
                if piece is not None:
                    self._extents.insert(i, piece)
                    self._starts.insert(i, piece.start)
                    i += 1
        return removed

    def _coalesce_around(self, i: int) -> None:
        """Merge extent at index ``i`` with compatible neighbours."""

        def compatible(a: Extent, b: Extent) -> bool:
            if a.end != b.start:
                return False
            if self.value_is_offset:
                return a.value + a.count == b.value
            return a.value == b.value

        # merge with predecessor
        if i > 0 and compatible(self._extents[i - 1], self._extents[i]):
            prev = self._extents[i - 1]
            cur = self._extents[i]
            prev.count += cur.count
            del self._extents[i]
            del self._starts[i]
            i -= 1
        # merge with successor
        if i + 1 < len(self._extents) and compatible(
            self._extents[i], self._extents[i + 1]
        ):
            cur = self._extents[i]
            nxt = self._extents[i + 1]
            cur.count += nxt.count
            del self._extents[i + 1]
            del self._starts[i + 1]

    def copy(self) -> "ExtentTree":
        clone = ExtentTree(self.value_is_offset)
        clone._starts = list(self._starts)
        clone._extents = [Extent(e.start, e.count, e.value) for e in self._extents]
        return clone

    # -- invariants (used by property tests) -----------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if the tree's structural invariants fail."""
        assert self._starts == [e.start for e in self._extents]
        for ext in self._extents:
            assert ext.count > 0, f"empty extent {ext}"
        for a, b in zip(self._extents, self._extents[1:]):
            assert a.end <= b.start, f"overlap between {a} and {b}"
            if self.value_is_offset:
                assert not (
                    a.end == b.start and a.value + a.count == b.value
                ), f"uncoalesced neighbours {a}, {b}"
            else:
                assert not (
                    a.end == b.start and a.value == b.value
                ), f"uncoalesced neighbours {a}, {b}"
