"""Transcript test: ``LruTieringPolicy`` against the scanning version it replaced.

``ReferenceLru`` keeps the earlier bookkeeping: ``forget`` scanned the whole
recency map and rebuilt the promotion list, and planning popped promotions
off the head of a list.  The policy now keeps a per-ino chunk index, a
deque and a per-ino count of queued promotions.  Hypothesis drives both
through the same sequences of accesses, forgets and planning rounds and
checks identical orders, identical recency order and identical queues.
"""

from __future__ import annotations

from typing import Dict, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.health import HealthState
from repro.core.policies import CHUNK_BLOCKS, LruTieringPolicy
from repro.core.policy import FileView, MigrationOrder, TierState, writable_tiers
from repro.devices.profile import DeviceKind

MIB = 1024 * 1024


class ReferenceLru(LruTieringPolicy):
    """The earlier recency/promotion bookkeeping, verbatim in behaviour."""

    def __init__(self) -> None:
        super().__init__()
        self._promotions = []

    def on_access(self, ino, block_start, count, tier_id, kind):
        first_chunk = block_start // CHUNK_BLOCKS
        last_chunk = (block_start + count - 1) // CHUNK_BLOCKS
        for chunk in range(first_chunk, last_chunk + 1):
            key = (ino, chunk)
            self._recency.pop(key, None)
            self._recency[key] = tier_id
        if tier_id != 0 and kind == "read":
            self._promotions.append(
                MigrationOrder(
                    ino=ino,
                    block_start=first_chunk * CHUNK_BLOCKS,
                    count=(last_chunk - first_chunk + 1) * CHUNK_BLOCKS,
                    src_tier=tier_id,
                    dst_tier=max(0, tier_id - 1),
                    reason="promote-on-access",
                )
            )

    def forget(self, ino):
        for key in [k for k in self._recency if k[0] == ino]:
            del self._recency[key]
        self._promotions = [o for o in self._promotions if o.ino != ino]

    def plan_migrations(self, tiers, files):
        orders = []
        by_rank = sorted(writable_tiers(tiers), key=lambda t: t.rank)
        tier_by_id = {t.tier_id: t for t in by_rank}
        if not by_rank:
            return orders
        residence: Dict[Tuple[int, int], int] = {}
        for view in files:
            for start, count, tier in view.runs:
                if tier is None:
                    continue
                for chunk in range(
                    start // CHUNK_BLOCKS, (start + count - 1) // CHUNK_BLOCKS + 1
                ):
                    residence[(view.ino, chunk)] = tier
        for idx, tier in enumerate(by_rank):
            if tier.utilization <= self.HIGH_WATERMARK:
                continue
            if idx + 1 >= len(by_rank):
                continue
            dst = by_rank[idx + 1]
            bytes_to_free = int(
                (tier.utilization - self.LOW_WATERMARK) * tier.total_bytes
            )
            freed = 0
            for key in list(self._recency):
                if freed >= bytes_to_free or len(orders) >= self.MAX_ORDERS:
                    break
                ino, chunk = key
                if residence.get(key) != tier.tier_id:
                    continue
                orders.append(
                    MigrationOrder(
                        ino=ino,
                        block_start=chunk * CHUNK_BLOCKS,
                        count=CHUNK_BLOCKS,
                        src_tier=tier.tier_id,
                        dst_tier=dst.tier_id,
                        reason="lru-evict",
                    )
                )
                freed += CHUNK_BLOCKS * 4096
                self._recency[key] = dst.tier_id
        while self._promotions and len(orders) < self.MAX_ORDERS:
            order = self._promotions.pop(0)
            dst = tier_by_id.get(order.dst_tier)
            if dst is None or dst.utilization >= self.HIGH_WATERMARK:
                continue
            orders.append(order)
        return orders


def _tier(tier_id: int, free_mib: int) -> TierState:
    return TierState(
        tier_id=tier_id,
        name=f"t{tier_id}",
        rank=tier_id,
        kind=DeviceKind.SOLID_STATE,
        free_bytes=free_mib * MIB,
        total_bytes=64 * MIB,
        health=HealthState.HEALTHY,
    )


INOS = st.integers(1, 6)
TIER = st.integers(0, 2)
STEPS = st.one_of(
    st.tuples(
        st.just("access"), INOS, st.integers(0, 6 * CHUNK_BLOCKS),
        st.integers(1, 3 * CHUNK_BLOCKS), TIER, st.sampled_from(["read", "write"]),
    ),
    st.tuples(st.just("forget"), INOS),
    # free MiB per tier (tier 0 past the high watermark when small), and
    # where each file's first chunks live
    st.tuples(
        st.just("plan"),
        st.tuples(st.integers(0, 64), st.integers(0, 64), st.integers(0, 64)),
        st.lists(st.tuples(INOS, TIER, st.integers(1, 4)), max_size=6),
        st.integers(1, 8),
    ),
)


def _apply(policy, step):
    if step[0] == "access":
        _, ino, start, count, tier, kind = step
        return policy.on_access(ino, start, count, tier, kind)
    if step[0] == "forget":
        return policy.forget(step[1])
    _, free, placed, max_orders = step
    policy.MAX_ORDERS = max_orders
    tiers = [_tier(t, f) for t, f in enumerate(free)]
    views = [
        FileView(
            ino=ino,
            path=f"/f{ino}",
            size=chunks * CHUNK_BLOCKS * 4096,
            blocks_by_tier={tier: chunks * CHUNK_BLOCKS},
            runs=((0, chunks * CHUNK_BLOCKS, tier),),
        )
        for ino, tier, chunks in placed
    ]
    return policy.plan_migrations(tiers, views)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(STEPS, max_size=40))
def test_lru_transcript_matches_reference(steps):
    new, ref = LruTieringPolicy(), ReferenceLru()
    for step in steps:
        assert _apply(new, step) == _apply(ref, step), step
        assert list(new._recency.items()) == list(ref._recency.items())
        assert list(new._promotions) == ref._promotions
        # the indexes describe exactly what the two structures hold
        assert {i: c for i, c in new._chunks.items()} == _chunks_of(new._recency)
        assert new._queued == _count_queued(ref._promotions)


def _chunks_of(recency) -> Dict[int, set]:
    out: Dict[int, set] = {}
    for ino, chunk in recency:
        out.setdefault(ino, set()).add(chunk)
    return out


def _count_queued(promotions) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for order in promotions:
        out[order.ino] = out.get(order.ino, 0) + 1
    return out
