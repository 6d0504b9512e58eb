"""Unit tests for the deterministic RNG."""

from repro.sim.rng import DeterministicRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.randint(0, 10**9) for _ in range(5)] != [
            b.randint(0, 10**9) for _ in range(5)
        ]

    def test_fork_is_deterministic(self):
        a = DeterministicRng(42).fork("workload")
        b = DeterministicRng(42).fork("workload")
        assert a.randint(0, 10**9) == b.randint(0, 10**9)

    def test_fork_labels_independent(self):
        base = DeterministicRng(42)
        a = base.fork("x")
        b = base.fork("y")
        assert [a.randint(0, 10**9) for _ in range(4)] != [
            b.randint(0, 10**9) for _ in range(4)
        ]


class TestHelpers:
    def test_choice_and_shuffle(self):
        rng = DeterministicRng(5)
        items = list(range(10))
        assert rng.choice(items) in items
        rng.shuffle(items)
        assert sorted(items) == list(range(10))

    def test_seed_property(self):
        assert DeterministicRng(9).seed == 9
