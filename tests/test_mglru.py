"""Unit + property tests for Multi-generational LRU."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mglru import MultiGenLru


def mglru(capacity, generations):
    """An MGLRU whose class constant says ``generations`` generations."""
    cls = type("Mglru", (MultiGenLru,), {"NUM_GENERATIONS": generations})
    return cls(capacity)


class TestBasics:
    def test_insert_and_contains(self):
        lru = MultiGenLru(4)
        lru.insert("a")
        assert "a" in lru
        assert len(lru) == 1

    def test_insert_idempotent(self):
        lru = MultiGenLru(4)
        lru.insert("a")
        lru.insert("a")
        assert len(lru) == 1

    def test_new_entries_in_youngest(self):
        lru = MultiGenLru(8)
        lru.insert("a")
        assert lru.generation_of("a") == 0

    def test_touch_missing(self):
        lru = MultiGenLru(4)
        assert lru.touch("ghost") is False

    def test_remove(self):
        lru = MultiGenLru(4)
        lru.insert("a")
        assert lru.remove("a") is True
        assert "a" not in lru
        assert lru.remove("a") is False

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MultiGenLru(0)


class TestEviction:
    def test_capacity_enforced(self):
        lru = MultiGenLru(4)
        for i in range(10):
            lru.insert(i)
        assert len(lru) == 4

    def test_eviction_returns_victims(self):
        lru = MultiGenLru(2)
        assert lru.insert("a") == []
        assert lru.insert("b") == []
        evicted = lru.insert("c")
        assert evicted == ["a"]

    def test_eviction_prefers_oldest_generation(self):
        lru = mglru(8, 2)
        for i in range(8):
            lru.insert(i)
        # whatever was aged into older generations goes first
        victims = lru.insert("new")
        assert victims
        assert all(v in range(8) for v in victims)

    def test_touched_entries_survive(self):
        lru = MultiGenLru(4)
        for key in ("a", "b", "c", "d"):
            lru.insert(key)
        lru.touch("a")  # promote back to youngest
        lru.insert("e")
        assert "a" in lru

    def test_eviction_counter(self):
        lru = MultiGenLru(2)
        lru.insert("a")
        lru.insert("b")
        lru.insert("c")
        assert lru.evictions == 1


class TestAging:
    def test_age_shifts_generations(self):
        lru = mglru(100, 3)
        lru.insert("a")
        lru.age()
        assert lru.generation_of("a") == 1
        lru.age()
        assert lru.generation_of("a") == 2
        lru.age()
        assert lru.generation_of("a") == 2  # stays in the oldest

    def test_age_counter(self):
        lru = MultiGenLru(100)
        before = lru.ages
        lru.age()
        assert lru.ages == before + 1

    def test_auto_aging_on_insert_pressure(self):
        lru = MultiGenLru(16)
        for i in range(16):
            lru.insert(i)
        assert lru.ages > 0

    def test_touch_after_age_promotes(self):
        lru = MultiGenLru(100)
        lru.insert("a")
        lru.age()
        lru.touch("a")
        assert lru.generation_of("a") == 0


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "touch", "remove", "age"]), st.integers(0, 30)),
        max_size=80,
    ),
    capacity=st.integers(1, 16),
    gens=st.integers(2, 5),
)
def test_mglru_invariants(ops, capacity, gens):
    lru = mglru(capacity, gens)
    live = set()
    for op, key in ops:
        if op == "insert":
            evicted = lru.insert(key)
            live.add(key)
            live -= set(evicted)
        elif op == "touch":
            assert lru.touch(key) == (key in live)
        elif op == "remove":
            assert lru.remove(key) == (key in live)
            live.discard(key)
        else:
            lru.age()
        lru.check_invariants()
    assert {k for k in live} == {k for k in live if k in lru}
    assert len(lru) == len(live)
