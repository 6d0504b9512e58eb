"""Unit + property tests for the block allocators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError, NoSpace
from repro.fscommon.allocator import AllocationGroups, BitmapAllocator


class TestBitmapAllocator:
    def test_alloc_within_range(self):
        alloc = BitmapAllocator(100, 50)
        block = alloc.alloc_block()
        assert 100 <= block < 150
        assert alloc.is_allocated(block)

    def test_free_count(self):
        alloc = BitmapAllocator(0, 10)
        alloc.alloc_extent(4)
        assert alloc.free_blocks == 6
        assert alloc.used_blocks == 4

    def test_contiguous_preferred(self):
        alloc = BitmapAllocator(0, 100)
        runs = alloc.alloc_extent(10)
        assert len(runs) == 1
        assert runs[0][1] == 10

    def test_fragmented_allocation(self):
        alloc = BitmapAllocator(0, 10)
        # allocate everything then free alternating blocks
        alloc.alloc_extent(10)
        for block in range(0, 10, 2):
            alloc.free_run(block, 1)
        runs = alloc.alloc_extent(5)
        assert sum(got for _, got in runs) == 5
        assert len(runs) == 5  # fully fragmented

    def test_exhaustion(self):
        alloc = BitmapAllocator(0, 4)
        alloc.alloc_extent(4)
        with pytest.raises(NoSpace):
            alloc.alloc_block()

    def test_overcommit_rejected_without_partial_alloc(self):
        alloc = BitmapAllocator(0, 4)
        alloc.alloc_extent(2)
        with pytest.raises(NoSpace):
            alloc.alloc_extent(3)
        assert alloc.free_blocks == 2  # rollback left state intact

    def test_double_free_rejected(self):
        alloc = BitmapAllocator(0, 4)
        block = alloc.alloc_block()
        alloc.free_run(block, 1)
        with pytest.raises(DeviceError):
            alloc.free_run(block, 1)

    def test_free_out_of_range(self):
        alloc = BitmapAllocator(10, 4)
        with pytest.raises(DeviceError):
            alloc.free_run(9, 1)

    def test_double_free_in_a_run_changes_nothing(self):
        alloc = BitmapAllocator(100, 16)
        alloc.alloc_run(4, None)  # 100..103
        with pytest.raises(DeviceError, match="double free of block 104"):
            alloc.free_run(102, 4)
        assert alloc.free_blocks == 12
        assert all(alloc.is_allocated(b) for b in range(100, 104))
        alloc.check_invariants()

    def test_free_past_the_end_changes_nothing(self):
        alloc = BitmapAllocator(0, 8)
        alloc.alloc_extent(8)
        with pytest.raises(DeviceError, match="block 8 outside"):
            alloc.free_run(6, 4)
        assert alloc.free_blocks == 0
        alloc.check_invariants()

    def test_mark_allocated_is_all_or_nothing(self):
        alloc = BitmapAllocator(10, 8)
        alloc.mark_allocated(12, 3)
        alloc.mark_allocated(13, 4)  # 13, 14 already set; 15, 16 newly
        assert alloc.free_blocks == 3
        with pytest.raises(DeviceError, match="block 18 outside"):
            alloc.mark_allocated(16, 4)
        with pytest.raises(DeviceError, match="block 9 outside"):
            alloc.mark_allocated(9, 2)
        assert alloc.free_blocks == 3
        alloc.check_invariants()

    def test_hint_respected_when_free(self):
        alloc = BitmapAllocator(0, 100)
        start, got = alloc.alloc_run(5, hint=40)
        assert start == 40
        assert got == 5

    def test_reuse_after_free(self):
        alloc = BitmapAllocator(0, 4)
        runs = alloc.alloc_extent(4)
        alloc.free_run(runs[0][0], runs[0][1])
        assert alloc.free_blocks == 4
        alloc.alloc_extent(4)
        assert alloc.free_blocks == 0


class TestAllocationGroups:
    def test_groups_partition_space(self):
        groups = AllocationGroups(100, 100, 4)
        assert len(groups.groups) == 4
        assert sum(g.count for g in groups.groups) == 100
        assert groups.groups[0].base == 100

    def test_alloc_spills_across_groups(self):
        groups = AllocationGroups(0, 40, 4)
        runs = groups.alloc_extent(35)
        assert sum(got for _, got in runs) == 35
        assert groups.free_blocks == 5

    def test_round_robin_start_group(self):
        groups = AllocationGroups(0, 40, 4)
        first = groups.alloc_extent(1)[0][0]
        second = groups.alloc_extent(1)[0][0]
        # consecutive small allocations land in different groups
        assert first // 10 != second // 10

    def test_free_routed_to_owner(self):
        groups = AllocationGroups(0, 40, 4)
        runs = groups.alloc_extent(25)
        for start, got in runs:
            groups.free_run(start, got)
        assert groups.free_blocks == 40

    def test_mark_allocated_routes_spans_to_owners(self):
        groups = AllocationGroups(0, 40, 4)
        groups.mark_allocated(5, 3)
        groups.mark_allocated(8, 10)  # crosses group 0 -> 1; 8, 9 newly set
        assert [g.free_blocks for g in groups.groups] == [5, 2, 10, 10]
        groups.free_run(5, 13)  # every marked block is really allocated
        assert groups.free_blocks == 40
        with pytest.raises(DeviceError):
            groups.mark_allocated(38, 4)

    def test_free_spanning_groups_is_all_or_nothing(self):
        groups = AllocationGroups(0, 16, 2)
        groups.alloc_extent(6, 0)
        with pytest.raises(DeviceError, match="double free of block 6"):
            groups.free_run(4, 6)  # 4, 5 allocated in group 0; 6.. free
        assert [g.free_blocks for g in groups.groups] == [2, 8]
        for group in groups.groups:
            group.check_invariants()
        with pytest.raises(DeviceError, match="outside all allocation groups"):
            groups.free_run(14, 4)
        assert groups.free_blocks == 10

    def test_mark_allocated_out_of_range_changes_nothing(self):
        groups = AllocationGroups(0, 40, 4)
        with pytest.raises(DeviceError):
            groups.mark_allocated(38, 4)
        assert groups.free_blocks == 40

    def test_exhaustion(self):
        groups = AllocationGroups(0, 8, 2)
        groups.alloc_extent(8)
        with pytest.raises(NoSpace):
            groups.alloc_extent(1)

    def test_hint_prefers_owning_group(self):
        groups = AllocationGroups(0, 40, 4)
        runs = groups.alloc_extent(2, hint=25)
        assert 20 <= runs[0][0] < 30

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AllocationGroups(0, 2, 4)


# ---------------------------------------------------------------------------
# property-based: allocator never double-allocates, accounting exact
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 12)),
        max_size=50,
    )
)
def test_bitmap_allocator_model(ops):
    alloc = BitmapAllocator(0, 64)
    owned = []  # list of (start, count) runs we hold
    for op, n in ops:
        if op == "alloc":
            try:
                runs = alloc.alloc_extent(n)
            except NoSpace:
                assert alloc.free_blocks < n
                continue
            for run in runs:
                owned.append(run)
        elif owned:
            start, count = owned.pop()
            alloc.free_run(start, count)
    alloc.check_invariants()
    held = sum(count for _, count in owned)
    assert alloc.used_blocks == held
    # no overlap among held runs
    blocks = []
    for start, count in owned:
        blocks.extend(range(start, start + count))
    assert len(blocks) == len(set(blocks))
    for block in blocks:
        assert alloc.is_allocated(block)


class WalkingAllocator(BitmapAllocator):
    """The fallback search as a walk over every free run, one Python step
    per run: the reference the production search must equal."""

    def _longest_run(self, start, want):
        bitmap, n = self._bitmap, self.count
        idx, left = start, n
        best_start, best_len = -1, 0
        while left > 0:
            limit = min(n, idx + left)
            free = bitmap.find(0, idx, limit)
            if free < 0:
                left -= limit - idx
                idx = limit % n
                continue
            used = bitmap.find(1, free)
            run_len = (n if used < 0 else used) - free
            if run_len > best_len:
                best_start, best_len = free, run_len
            left -= free - idx + run_len
            idx = (free + run_len) % n
        return best_start, best_len


@settings(max_examples=400, deadline=None)
@given(
    bits=st.lists(st.booleans(), min_size=1, max_size=120),
    hint=st.integers(0, 130),
    want=st.integers(1, 40),
)
def test_alloc_run_equals_the_walking_reference(bits, hint, want):
    """Every fragmentation, hint and size: the same run, bitmap and cursor
    as the walk over every free run."""
    pair = [BitmapAllocator(0, len(bits)), WalkingAllocator(0, len(bits))]
    for alloc in pair:
        for block, used in enumerate(bits):
            if used:
                alloc.mark_allocated(block, 1)
    outcomes = []
    for alloc in pair:
        try:
            got = alloc.alloc_run(want, hint if hint < len(bits) else None)
        except NoSpace:
            got = None
        outcomes.append((got, bytes(alloc._bitmap), alloc._cursor, alloc.free_blocks))
    assert outcomes[0] == outcomes[1]
