"""Multi-generational LRU (§2.5).

"We use Multi-generational LRU for cache replacement, which is also the
algorithm Linux uses for its page caches."

The model keeps ``NUM_GENERATIONS`` ordered generations; new entries enter
the youngest generation, accessed entries are promoted back to it, and
eviction takes the head (least recent) of the *oldest* non-empty
generation.  Aging shifts every generation down one step whenever the
youngest generation grows past its share of the capacity, which is the
essential behaviour of the kernel's lru_gen: recency is tracked in coarse
generation buckets rather than by precise list reordering.

Generations are numbered *monotonically*: ``_gens`` is a deque ordered
oldest-first and ``_base`` is the absolute generation number of its head,
so an age step is "pop the two oldest, merge, renumber only the merged
keys, push an empty youngest" — O(merged generation).  The naive
list-shifting formulation re-labels every key in ``_where`` on every age,
which is O(total population) and shows up directly on the cache fill path
(inserts auto-age under pressure).  ``tests/test_mglru_equiv.py`` pins
this implementation against the scalar list-shifting reference.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Generic, Hashable, List, Optional, TypeVar

K = TypeVar("K", bound=Hashable)


class MultiGenLru(Generic[K]):
    """Fixed-capacity multi-generational LRU over hashable keys."""

    #: generations kept (the oldest two merge on every age step)
    NUM_GENERATIONS = 4

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: leftmost = oldest generation; absolute number of the head
        #: generation is ``_base`` and numbers increase rightward
        self._gens: Deque["OrderedDict[K, None]"] = deque(
            OrderedDict() for _ in range(self.NUM_GENERATIONS)
        )
        self._base = 0
        #: key -> absolute (monotonic) generation number
        self._where: Dict[K, int] = {}
        self.ages = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, key: K) -> bool:
        return key in self._where

    @property
    def _youngest(self) -> int:
        return self._base + self.NUM_GENERATIONS - 1

    @property
    def generation_sizes(self) -> List[int]:
        """Sizes youngest-first (index 0 = youngest)."""
        return [len(g) for g in reversed(self._gens)]

    def generation_of(self, key: K) -> Optional[int]:
        """Relative generation index (0 = youngest), or None."""
        seq = self._where.get(key)
        if seq is None:
            return None
        return self._youngest - seq

    # -- operations --------------------------------------------------------

    def touch(self, key: K) -> bool:
        """Record an access: promote to the youngest generation.

        Returns False if the key is not cached.
        """
        seq = self._where.get(key)
        if seq is None:
            return False
        youngest = self._youngest
        if seq != youngest:
            del self._gens[seq - self._base][key]
            self._gens[-1][key] = None
            self._where[key] = youngest
        else:
            self._gens[-1].move_to_end(key)
        return True

    def insert(self, key: K) -> List[K]:
        """Insert ``key`` (idempotent: re-insert = touch); returns evictees."""
        where = self._where
        if key in where:
            self.touch(key)
            return []
        evicted: List[K] = []
        capacity = self.capacity
        while len(where) >= capacity:
            victim = self._evict_one()
            if victim is None:
                break
            evicted.append(victim)
        youngest = self._gens[-1]
        youngest[key] = None
        where[key] = self._base + self.NUM_GENERATIONS - 1
        if len(youngest) > max(1, capacity // self.NUM_GENERATIONS):
            self.age()
        return evicted

    def resize(self, capacity: int) -> List[K]:
        """Change the capacity; returns the keys a shrink evicted, oldest
        first (the victims an insert at the new capacity would take)."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        evicted: List[K] = []
        while len(self._where) > capacity:
            evicted.append(self._evict_one())
        return evicted

    def remove(self, key: K) -> bool:
        """Explicitly drop a key (invalidation)."""
        seq = self._where.pop(key, None)
        if seq is None:
            return False
        del self._gens[seq - self._base][key]
        return True

    def age(self) -> None:
        """Shift every generation one step older; oldest two merge.

        Only the keys of the merged generation are renumbered (the
        survivors of the old oldest generation move up to the merged
        number; the second-oldest's keys already carry it), so an age
        costs O(merged generation) — middle generations and their
        ``_where`` entries are untouched.
        """
        oldest = self._gens.popleft()
        second = self._gens.popleft()
        merged_no = self._base + 1
        for key in oldest:
            self._where[key] = merged_no
        # second-oldest keys append after the oldest's (preserving the
        # oldest-first eviction order of the scalar reference); their
        # _where entries already equal merged_no
        for key in second:
            oldest[key] = None
        self._gens.appendleft(oldest)
        self._gens.append(OrderedDict())
        self._base += 1
        self.ages += 1

    def _evict_one(self) -> Optional[K]:
        for gen in self._gens:  # oldest first
            if gen:
                key, _ = gen.popitem(last=False)
                del self._where[key]
                self.evictions += 1
                return key
        return None

    # -- invariants (property tests) -------------------------------------------

    def check_invariants(self) -> None:
        assert len(self._where) <= self.capacity
        assert len(self._gens) == self.NUM_GENERATIONS
        seen: Dict[K, int] = {}
        for offset, gen in enumerate(self._gens):
            for key in gen:
                assert key not in seen, (
                    f"{key!r} in generations {seen[key]} and {self._base + offset}"
                )
                seen[key] = self._base + offset
        assert seen == self._where
