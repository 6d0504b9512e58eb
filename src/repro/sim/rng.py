"""Deterministic random number generation for workloads and policies.

Everything random in the reproduction (workload offsets, policy tie-breaks,
fault injection) draws from a :class:`DeterministicRng` seeded explicitly,
so every test and benchmark run is reproducible bit-for-bit.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A thin, explicitly seeded wrapper around :class:`random.Random`.

    The wrapper exists so that (a) call sites never reach for the global
    ``random`` module by accident, and (b) substreams can be forked for
    independent components without correlating their draws.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent substream keyed by ``label``.

        Python's built-in ``hash`` on strings is salted per process, which
        would make forked streams (and any goldens derived from them)
        irreproducible across runs; crc32 gives a stable derivation.
        """
        sub_seed = (self._seed * 0x9E3779B1 + zlib.crc32(label.encode("utf-8"))) & 0x7FFF_FFFF_FFFF_FFFF
        return DeterministicRng(sub_seed)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def choice(self, items: Sequence[T]) -> T:
        return self._random.choice(items)

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)
