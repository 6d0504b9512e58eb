"""Consistent hashing of directory subtrees onto shards.

The classic Karger ring with virtual nodes: each shard owns ``VNODES``
points on a 64-bit circle, a key maps to the first point clockwise from
its hash.  Adding or removing one shard therefore remaps only the keys
whose arc the new/old shard's points cover — about ``1/N`` of the
namespace — which is the property that makes shard membership changes
cheap (only the moved subtrees need data migration).

Hashes come from ``blake2b``, so placement is deterministic across
processes and Python versions (``hash()`` is salted per process and must
never leak into simulated behaviour).
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b
from typing import Dict, List, Tuple

from repro.errors import InvalidArgument

#: ring points per shard; more points even out the shards' shares of the keys
VNODES = 64


def _point(data: str) -> int:
    """Deterministic 64-bit position on the circle."""
    return int.from_bytes(blake2b(data.encode(), digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring mapping string keys to integer shard ids."""

    def __init__(self) -> None:
        #: sorted circle positions and the shard owning each
        self._points: List[Tuple[int, int]] = []
        self._nodes: Dict[int, None] = {}

    def add_node(self, node_id: int) -> None:
        if node_id in self._nodes:
            raise InvalidArgument(f"shard {node_id} already on the ring")
        self._nodes[node_id] = None
        for v in range(VNODES):
            self._points.append((_point(f"shard-{node_id}#vn-{v}"), node_id))
        self._points.sort()

    def remove_node(self, node_id: int) -> None:
        if node_id not in self._nodes:
            raise InvalidArgument(f"shard {node_id} is not on the ring")
        del self._nodes[node_id]
        self._points = [(p, n) for p, n in self._points if n != node_id]

    def nodes(self) -> List[int]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def node_for(self, key: str) -> int:
        """The shard owning ``key`` (first ring point clockwise)."""
        if not self._points:
            raise InvalidArgument("hash ring has no shards")
        h = _point(f"key:{key}")
        idx = bisect_right(self._points, (h, 2**64))
        if idx == len(self._points):
            idx = 0  # wrap around the circle
        return self._points[idx][1]

    def spread(self, keys: List[str]) -> Dict[int, int]:
        """Key count per shard — balance diagnostics for tests/benchmarks."""
        out: Dict[int, int] = {n: 0 for n in self._nodes}
        for key in keys:
            out[self.node_for(key)] += 1
        return out
