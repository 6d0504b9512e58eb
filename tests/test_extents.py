"""Unit + property tests for the extent tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fscommon.extents import Extent, ExtentTree


class TestOffsetTree:
    """value_is_offset=True: file block -> device block mapping."""

    def test_map_and_lookup(self):
        tree = ExtentTree()
        tree.map_range(10, 5, 100)
        assert tree.lookup(10) == 100
        assert tree.lookup(14) == 104
        assert tree.lookup(15) is None
        assert tree.lookup(9) is None

    def test_coalesce_adjacent_contiguous(self):
        tree = ExtentTree()
        tree.map_range(0, 4, 100)
        tree.map_range(4, 4, 104)
        assert len(tree) == 1
        assert tree.lookup(7) == 107

    def test_no_coalesce_when_values_jump(self):
        tree = ExtentTree()
        tree.map_range(0, 4, 100)
        tree.map_range(4, 4, 200)
        assert len(tree) == 2

    def test_overwrite_splits(self):
        tree = ExtentTree()
        tree.map_range(0, 10, 100)
        tree.map_range(3, 4, 500)
        assert tree.lookup(2) == 102
        assert tree.lookup(3) == 500
        assert tree.lookup(6) == 503
        assert tree.lookup(7) == 107
        tree.check_invariants()

    def test_unmap_middle(self):
        tree = ExtentTree()
        tree.map_range(0, 10, 100)
        removed = tree.unmap_range(4, 2)
        assert removed == 2
        assert tree.lookup(4) is None
        assert tree.lookup(5) is None
        assert tree.lookup(3) == 103
        assert tree.lookup(6) == 106

    def test_unmap_nothing(self):
        tree = ExtentTree()
        assert tree.unmap_range(0, 100) == 0

    def test_runs_with_holes(self):
        tree = ExtentTree()
        tree.map_range(2, 3, 100)
        tree.map_range(8, 2, 200)
        runs = list(tree.runs(0, 12))
        assert runs == [
            (0, 2, None),
            (2, 3, 100),
            (5, 3, None),
            (8, 2, 200),
            (10, 2, None),
        ]

    def test_runs_partial_extent(self):
        tree = ExtentTree()
        tree.map_range(0, 10, 100)
        assert list(tree.runs(3, 4)) == [(3, 4, 103)]

    def test_end_block(self):
        tree = ExtentTree()
        assert tree.end_block() == 0
        tree.map_range(5, 5, 0)
        assert tree.end_block() == 10

    def test_mapped_blocks(self):
        tree = ExtentTree()
        tree.map_range(0, 3, 0)
        tree.map_range(10, 2, 50)
        assert tree.mapped_blocks == 5

    def test_copy_independent(self):
        tree = ExtentTree()
        tree.map_range(0, 4, 0)
        clone = tree.copy()
        clone.unmap_range(0, 4)
        assert tree.lookup(0) == 0
        assert clone.lookup(0) is None

    def test_invalid_count(self):
        tree = ExtentTree()
        with pytest.raises(ValueError):
            tree.map_range(0, 0, 0)

    def test_extent_value_at(self):
        ext = Extent(10, 5, 100)
        assert ext.value_at(12, True) == 102
        assert ext.value_at(12, False) == 100
        with pytest.raises(ValueError):
            ext.value_at(20, True)


class TestTierTree:
    """value_is_offset=False: file block -> tier id (BLT mode)."""

    def test_coalesce_same_value(self):
        tree = ExtentTree(value_is_offset=False)
        tree.map_range(0, 4, 1)
        tree.map_range(4, 4, 1)
        assert len(tree) == 1

    def test_no_coalesce_different_value(self):
        tree = ExtentTree(value_is_offset=False)
        tree.map_range(0, 4, 1)
        tree.map_range(4, 4, 2)
        assert len(tree) == 2

    def test_value_constant_along_run(self):
        tree = ExtentTree(value_is_offset=False)
        tree.map_range(0, 8, 3)
        assert tree.lookup(0) == 3
        assert tree.lookup(7) == 3

    def test_split_preserves_value(self):
        tree = ExtentTree(value_is_offset=False)
        tree.map_range(0, 10, 2)
        tree.unmap_range(4, 2)
        assert tree.lookup(3) == 2
        assert tree.lookup(6) == 2
        tree.check_invariants()


# ---------------------------------------------------------------------------
# property-based tests: tree vs a flat dict model
# ---------------------------------------------------------------------------

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["map", "unmap"]),
        st.integers(min_value=0, max_value=200),  # start
        st.integers(min_value=1, max_value=50),  # count
        st.integers(min_value=0, max_value=1000),  # value
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy, offset_mode=st.booleans())
def test_tree_matches_flat_model(ops, offset_mode):
    tree = ExtentTree(value_is_offset=offset_mode)
    model = {}
    for op, start, count, value in ops:
        if op == "map":
            tree.map_range(start, count, value)
            for i in range(count):
                model[start + i] = value + i if offset_mode else value
        else:
            tree.unmap_range(start, count)
            for i in range(count):
                model.pop(start + i, None)
    tree.check_invariants()
    for block in range(0, 260):
        assert tree.lookup(block) == model.get(block), f"block {block}"
    assert tree.mapped_blocks == len(model)


@settings(max_examples=100, deadline=None)
@given(ops=ops_strategy)
def test_runs_cover_range_exactly(ops):
    tree = ExtentTree()
    for op, start, count, value in ops:
        if op == "map":
            tree.map_range(start, count, value)
        else:
            tree.unmap_range(start, count)
    runs = list(tree.runs(0, 300))
    # runs partition [0, 300) without gaps or overlaps
    pos = 0
    for start, count, _ in runs:
        assert start == pos
        assert count > 0
        pos += count
    assert pos == 300


@settings(max_examples=200, deadline=None)
@given(
    ops=ops_strategy,
    offset_mode=st.booleans(),
    # holes, blocks before the first and past the last extent, duplicates
    # and the empty list all come out of a sorted draw over a wider range
    blocks=st.lists(st.integers(min_value=0, max_value=300), max_size=40).map(sorted),
)
def test_lookup_ascending_equals_lookup_per_block(ops, offset_mode, blocks):
    tree = ExtentTree(value_is_offset=offset_mode)
    for op, start, count, value in ops:
        if op == "map":
            tree.map_range(start + 20, count, value)  # leave room before the first
        else:
            tree.unmap_range(start + 20, count)
    assert tree.lookup_ascending(blocks) == [tree.lookup(b) for b in blocks]


def test_lookup_ascending_rejects_descending_input():
    tree = ExtentTree()
    tree.map_range(0, 10, 100)
    with pytest.raises(ValueError):
        tree.lookup_ascending([5, 4])
