"""Bitmap block allocator with extent (contiguous-run) allocation.

Used by all three native file systems.  XFS builds several of these — one
per allocation group — to model its parallel allocators; Ext4 uses one per
block group; NOVA uses a single allocator over its data region.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import DeviceError, NoSpace


class BitmapAllocator:
    """Allocates device blocks out of [base, base+count) using a bitmap."""

    def __init__(self, base: int, count: int) -> None:
        if count <= 0:
            raise ValueError("allocator needs a positive block count")
        self.base = base
        self.count = count
        self._bitmap = bytearray(count)  # 0 = free, 1 = allocated
        self._free = count
        self._cursor = 0  # next-fit scan position

    # -- queries -----------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return self._free

    @property
    def used_blocks(self) -> int:
        return self.count - self._free

    def is_allocated(self, block: int) -> bool:
        return bool(self._bitmap[self._index(block)])

    def _index(self, block: int) -> int:
        idx = block - self.base
        if not 0 <= idx < self.count:
            raise DeviceError(f"block {block} outside allocator range")
        return idx

    # -- allocation ----------------------------------------------------------

    def alloc_run(self, want: int, hint: Optional[int]) -> Tuple[int, int]:
        """Allocate up to ``want`` contiguous blocks; returns (start, got).

        Uses next-fit from an optional ``hint`` (or the rolling cursor) and
        returns the first free run of ``want`` blocks met walking the
        bitmap once around from there, else the longest shorter run met
        (the earliest of equals).  A run ends at the end of the bitmap —
        it never wraps.  Raises :class:`NoSpace` when nothing is free.
        """
        if want <= 0:
            raise ValueError("want must be positive")
        if self._free == 0:
            raise NoSpace(f"allocator [{self.base},{self.base + self.count}) full")
        # a hint is advisory: "place near here".  Hints just past the end
        # (e.g. next-block hints derived from the last device block) are
        # simply ignored rather than rejected.
        if hint is not None and not self.base <= hint < self.base + self.count:
            hint = None
        bitmap, n = self._bitmap, self.count
        start = self._cursor if hint is None else self._index(hint)
        # the first whole run the walk meets starts at or after ``start``,
        # or, once it wrapped, before it (and may reach past it): one
        # C-level substring search for each half of the walk
        whole = b"\x00" * want
        found = bitmap.find(whole, start)
        if found < 0 and start:
            found = bitmap.find(whole, 0, min(n, start - 1 + want))
        if found >= 0:
            best_start, best_len = found, want
        else:
            best_start, best_len = self._longest_run(start, want)
        if best_len == 0:
            raise NoSpace("no free run found")
        bitmap[best_start : best_start + best_len] = b"\x01" * best_len
        self._free -= best_len
        self._cursor = (best_start + best_len) % n
        return self.base + best_start, best_len

    def _longest_run(self, start: int, want: int) -> Tuple[int, int]:
        """``(index, length)`` of the longest free run shorter than
        ``want`` met walking the bitmap once around from ``start``, the
        first of equals.  A run the walk enters mid-way counts from there;
        one met after the walk wrapped counts whole (it may reach past
        ``start``); no run wraps past the end.

        A run of ``length`` free blocks is met exactly when that many zero
        bytes are found from ``start``, or, after the wrap, starting before
        it — and where the longest length is first found is where its run
        starts.  So the length is binary-searched with C-level substring
        searches, not walked run by run."""
        bitmap, n = self._bitmap, self.count

        def first(length: int) -> int:
            zeros = b"\x00" * length
            found = bitmap.find(zeros, start)
            if found < 0 and start:
                found = bitmap.find(zeros, 0, min(n, start - 1 + length))
            return found

        best_start, best_len = -1, 0
        lo, hi = 1, want - 1  # the longest run met is in [best_len, hi]
        while lo <= hi:
            mid = (lo + hi) // 2
            found = first(mid)
            if found >= 0:
                best_start, best_len = found, mid
                lo = mid + 1
            else:
                hi = mid - 1
        return best_start, best_len

    def alloc_extent(self, count: int, hint: Optional[int] = None) -> List[Tuple[int, int]]:
        """Allocate exactly ``count`` blocks as a list of (start, len) runs.

        Prefers one contiguous run; falls back to multiple runs under
        fragmentation.  Raises :class:`NoSpace` (after rolling back partial
        allocations) if the allocator cannot satisfy the request.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self._free:
            raise NoSpace(
                f"need {count} blocks, only {self._free} free in "
                f"[{self.base},{self.base + self.count})"
            )
        runs: List[Tuple[int, int]] = []
        remaining = count
        try:
            while remaining > 0:
                start, got = self.alloc_run(remaining, hint)
                hint = None
                runs.append((start, got))
                remaining -= got
        except NoSpace:
            for start, got in runs:
                self.free_run(start, got)
            raise
        return runs

    def alloc_block(self) -> int:
        """Allocate a single block."""
        start, _ = self.alloc_run(1, None)
        return start

    def _span(self, start: int, count: int) -> Tuple[int, int]:
        """Bitmap indexes ``[lo, hi)`` of a run that must lie in range."""
        if start < self.base:
            raise DeviceError(f"block {start} outside allocator range")
        end = self.base + self.count
        if start + count > end:
            raise DeviceError(f"block {max(start, end)} outside allocator range")
        return start - self.base, start - self.base + count

    def mark_allocated(self, start: int, count: int) -> None:
        """Force-mark a run allocated (recovery scans rebuilding the bitmap
        from inode block maps; already-set bits are left alone).  All or
        nothing: a run reaching outside the range changes no bit."""
        if count <= 0:
            return
        lo, hi = self._span(start, count)
        self._free -= hi - lo - self._bitmap.count(1, lo, hi)
        self._bitmap[lo:hi] = b"\x01" * (hi - lo)

    # -- freeing ---------------------------------------------------------------

    def _check_free_run(self, start: int, count: int) -> None:
        """Raise what :meth:`free_run` would raise, changing nothing."""
        lo, hi = self._span(start, count)
        free = self._bitmap.find(0, lo, hi)
        if free >= 0:
            raise DeviceError(f"double free of block {self.base + free}")

    def free_run(self, start: int, count: int = 1) -> None:
        """Free ``count`` blocks starting at ``start`` (must be allocated).

        All or nothing: a run with a block out of range or already free
        raises before any bit or the free count changes."""
        if count <= 0:
            return
        self._check_free_run(start, count)
        lo = start - self.base
        self._bitmap[lo : lo + count] = bytes(count)
        self._free += count

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self) -> None:
        assert self._free == self.count - sum(self._bitmap)
        assert 0 <= self._cursor < self.count


class AllocationGroups:
    """A set of independent allocators over one device (XFS-style AGs)."""

    def __init__(self, base: int, total_blocks: int, groups: int) -> None:
        if groups <= 0 or total_blocks < groups:
            raise ValueError("need at least one block per group")
        self.groups: List[BitmapAllocator] = []
        per_group = total_blocks // groups
        cursor = base
        for g in range(groups):
            size = per_group if g < groups - 1 else total_blocks - per_group * (groups - 1)
            self.groups.append(BitmapAllocator(cursor, size))
            cursor += size
        self._next_group = 0

    @property
    def free_blocks(self) -> int:
        return sum(g.free_blocks for g in self.groups)

    def alloc_extent(self, count: int, hint: Optional[int] = None) -> List[Tuple[int, int]]:
        """Allocate ``count`` blocks, preferring one group, spilling across."""
        if count > self.free_blocks:
            raise NoSpace(f"need {count} blocks, only {self.free_blocks} free")
        if hint is not None:
            order = sorted(
                range(len(self.groups)),
                key=lambda g: 0 if self._owns(g, hint) else 1,
            )
        else:
            order = [
                (self._next_group + i) % len(self.groups)
                for i in range(len(self.groups))
            ]
            self._next_group = (self._next_group + 1) % len(self.groups)
        runs: List[Tuple[int, int]] = []
        remaining = count
        for g in order:
            group = self.groups[g]
            if group.free_blocks == 0:
                continue
            take = min(remaining, group.free_blocks)
            got = group.alloc_extent(take, hint if self._owns(g, hint) else None)
            runs.extend(got)
            remaining -= take
            if remaining == 0:
                return runs
        # free_blocks said we had room; spill loop must have satisfied it
        for start, length in runs:
            self.free_run(start, length)
        raise NoSpace("fragmentation prevented allocation")

    def _owns(self, group_index: int, block: Optional[int]) -> bool:
        if block is None:
            return False
        group = self.groups[group_index]
        return group.base <= block < group.base + group.count

    def _spans(self, start: int, count: int):
        """Split a run into ``(group, block, span)`` pieces, one per owning group."""
        block, end = start, start + count
        while block < end:
            for group in self.groups:
                if group.base <= block < group.base + group.count:
                    span = min(end, group.base + group.count) - block
                    yield group, block, span
                    block += span
                    break
            else:
                raise DeviceError(f"block {block} outside all allocation groups")

    def free_run(self, start: int, count: int = 1) -> None:
        """Free a run, routing each span to its owning group.  All or
        nothing: every span is checked before any group changes."""
        spans = list(self._spans(start, count))
        for group, block, span in spans:
            group._check_free_run(block, span)
        for group, block, span in spans:
            group.free_run(block, span)

    def mark_allocated(self, start: int, count: int) -> None:
        """Force-mark a run allocated, routing each span to its owning
        group; a run reaching outside every group changes nothing."""
        for group, block, span in list(self._spans(start, count)):
            group.mark_allocated(block, span)
