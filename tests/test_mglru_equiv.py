"""Equivalence of the generation-number MGLRU against the scalar reference.

The production :class:`~repro.core.mglru.MultiGenLru` numbers generations
monotonically (deque + base counter) so an age step renumbers only the
merged generation.  The original implementation shifted a list of
generations and rebuilt the whole key->index map on every age — O(total
population), but trivially correct.  That implementation is inlined here
verbatim as ``ScalarMglru`` (the same embedded-oracle pattern as
``ScalarOccSynchronizer`` in tests/test_occ_runs.py) and both are driven
through identical operation interleavings: every eviction sequence, touch
and remove return value, generation index and length must match exactly.

A separate test pins the complexity claim: an age step must not write to
``_where`` entries outside the merged generation, and cache file
invalidation must never iterate the global slot table.
"""

from collections import OrderedDict
from typing import Dict, Generic, Hashable, List, Optional, TypeVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mglru import MultiGenLru

K = TypeVar("K", bound=Hashable)


class ScalarMglru(Generic[K]):
    """The original list-shifting MGLRU, kept verbatim as the oracle."""

    def __init__(self, capacity: int, num_generations: int = 4) -> None:
        self.capacity = capacity
        self.num_generations = num_generations
        self._gens: List["OrderedDict[K, None]"] = [
            OrderedDict() for _ in range(num_generations)
        ]
        self._where: Dict[K, int] = {}
        self.ages = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, key: K) -> bool:
        return key in self._where

    @property
    def generation_sizes(self) -> List[int]:
        return [len(g) for g in self._gens]

    def generation_of(self, key: K) -> Optional[int]:
        return self._where.get(key)

    def touch(self, key: K) -> bool:
        gen = self._where.get(key)
        if gen is None:
            return False
        if gen != 0:
            del self._gens[gen][key]
            self._gens[0][key] = None
            self._where[key] = 0
        else:
            self._gens[0].move_to_end(key)
        return True

    def insert(self, key: K) -> List[K]:
        if key in self._where:
            self.touch(key)
            return []
        evicted: List[K] = []
        while len(self._where) >= self.capacity:
            victim = self._evict_one()
            if victim is None:
                break
            evicted.append(victim)
        self._gens[0][key] = None
        self._where[key] = 0
        if len(self._gens[0]) > max(1, self.capacity // self.num_generations):
            self.age()
        return evicted

    def remove(self, key: K) -> bool:
        gen = self._where.pop(key, None)
        if gen is None:
            return False
        del self._gens[gen][key]
        return True

    def age(self) -> None:
        oldest = self._gens[-1]
        second = self._gens[-2]
        for key in second:
            oldest[key] = None
            self._where[key] = self.num_generations - 1
        merged = oldest
        self._gens = [OrderedDict()] + self._gens[:-2] + [merged]
        for gen_index, gen in enumerate(self._gens):
            for key in gen:
                self._where[key] = gen_index
        self.ages += 1

    def _evict_one(self) -> Optional[K]:
        for gen_index in range(self.num_generations - 1, -1, -1):
            gen = self._gens[gen_index]
            if gen:
                key, _ = gen.popitem(last=False)
                del self._where[key]
                self.evictions += 1
                return key
        return None


def assert_equivalent(fast: MultiGenLru, oracle: ScalarMglru, keys) -> None:
    assert len(fast) == len(oracle)
    assert fast.generation_sizes == oracle.generation_sizes
    assert fast.ages == oracle.ages
    assert fast.evictions == oracle.evictions
    for key in keys:
        assert (key in fast) == (key in oracle)
        assert fast.generation_of(key) == oracle.generation_of(key)
    # the oldest-first eviction order itself must be identical: drain both
    fast_order = [fast._evict_one() for _ in range(len(fast))]
    oracle_order = [oracle._evict_one() for _ in range(len(oracle))]
    assert fast_order == oracle_order


def drive(ops, capacity, gens):
    fast = type("Mglru", (MultiGenLru,), {"NUM_GENERATIONS": gens})(capacity)
    oracle = ScalarMglru(capacity, num_generations=gens)
    keys = set()
    for op, key in ops:
        keys.add(key)
        if op == "insert":
            assert fast.insert(key) == oracle.insert(key)
        elif op == "touch":
            assert fast.touch(key) == oracle.touch(key)
        elif op == "remove":
            assert fast.remove(key) == oracle.remove(key)
        else:
            fast.age()
            oracle.age()
        fast.check_invariants()
    assert_equivalent(fast, oracle, keys)


class TestDirectedEquivalence:
    def test_fill_evict_sequence(self):
        ops = [("insert", i) for i in range(50)]
        drive(ops, capacity=8, gens=4)

    def test_touch_survival_pattern(self):
        ops = []
        for i in range(20):
            ops.append(("insert", i))
            if i % 3 == 0:
                ops.append(("touch", i // 2))
        drive(ops, capacity=6, gens=3)

    def test_explicit_ages_between_inserts(self):
        ops = []
        for i in range(30):
            ops.append(("insert", i % 11))
            if i % 4 == 0:
                ops.append(("age", 0))
            if i % 7 == 0:
                ops.append(("remove", i % 5))
        drive(ops, capacity=5, gens=4)

    def test_reinsert_is_touch(self):
        ops = [("insert", 1), ("insert", 2), ("insert", 1), ("age", 0),
               ("insert", 1), ("insert", 3), ("insert", 4), ("insert", 5)]
        drive(ops, capacity=3, gens=2)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "touch", "remove", "age"]),
            st.integers(0, 40),
        ),
        max_size=120,
    ),
    capacity=st.integers(1, 20),
    gens=st.integers(2, 6),
)
def test_mglru_matches_scalar_reference(ops, capacity, gens):
    drive(ops, capacity, gens)


# ---------------------------------------------------------------------------
# complexity pins: age() and invalidate_file must not scale with population
# ---------------------------------------------------------------------------


class WriteCountingDict(dict):
    """Counts __setitem__ calls — the work an age step does on _where."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("population", [400, 4000])
def test_age_writes_bounded_by_merged_generation(population):
    lru = MultiGenLru(population)
    for i in range(population):
        lru.insert(i)
    counting = WriteCountingDict(lru._where)
    lru._where = counting
    merged = len(lru._gens[0]) + len(lru._gens[1])
    counting.writes = 0
    lru.age()
    # only the old-oldest generation's keys are renumbered; with the old
    # list-shifting implementation this would be >= population
    assert counting.writes <= merged
    assert counting.writes < population
    lru.check_invariants()


def test_age_write_count_independent_of_other_generations():
    """Same merged-generation size, 10x population: identical age cost."""

    def age_writes(population: int) -> int:
        lru = MultiGenLru(population * 2)
        for i in range(population):
            lru.insert(i)
        # push everything out of the two oldest generations, then age with
        # empty oldest pair: the merge itself is O(0) regardless of size
        for _ in range(lru.NUM_GENERATIONS):
            lru.age()
        for i in range(population):
            lru.touch(i)
        counting = WriteCountingDict(lru._where)
        lru._where = counting
        counting.writes = 0
        lru.age()
        return counting.writes

    assert age_writes(100) == age_writes(1000) == 0
