"""Built-in tiering policies.

* :class:`LruTieringPolicy` — the policy the paper's evaluation uses
  (§3.1): "a simple LRU policy that evicts cold data to the slower device
  if no space left on faster devices, and promotes data back upon access".
* :class:`TpfsPolicy` — the TPFS placement rule §2.1 cites as expressible
  in "a function that returns different device IDs based on the I/O size,
  synchronicity, and access history".
* :class:`HotColdPolicy` — whole-file hot/cold classification with decay,
  the scheme Ziggurat-style tiered file systems employ.
* :class:`PinnedPolicy` — static routing to one tier (used by the overhead
  benchmarks, where every request targets a single device).
* :class:`PressureAwarePolicy` — queue/health-fed placement: routes write
  bursts around saturated or SUSPECT tiers using the sampled
  ``TierState.pressure`` signals, demotes off backlogged tiers, and
  defers migrations toward hot channels.  Hysteresis (separate spill and
  resume thresholds) keeps placement from flapping at the boundary.
* :class:`MirrorPolicy` — pressure-aware tiering plus MOST-style mirrors
  of hot read-mostly files on the fastest healthy tier.

The policies are built from three collaborators, each defined once:
:class:`SizeRule` (the TPFS size/synchronicity → rank rule),
:class:`HeatMap` (per-file access tally with decay) and
:class:`PressureRouter` (hysteresis routing around loaded tiers).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.health import HealthState
from repro.core.policy import (
    FileView,
    MigrationOrder,
    MirrorOrder,
    PlacementRequest,
    Policy,
    TierState,
    fastest_with_room,
    register_policy,
    tier_load,
    writable_tiers,
)
from repro.errors import PolicyError

#: granularity of recency tracking, in blocks (64 blocks = 256 KiB chunks)
CHUNK_BLOCKS = 64


class SizeRule:
    """The TPFS size/synchronicity rule: which rank a write *aims* at.

    Small or synchronous writes aim at the fastest tier (rank 0), medium
    writes at rank 1, large writes at rank 2 — judged on the mean of the
    file's last ``history_window`` write sizes (the "access history"
    input §2.1 names).
    """

    def __init__(
        self,
        small_io_bytes: int = 64 * 1024,
        medium_io_bytes: int = 1024 * 1024,
        history_window: int = 8,
    ) -> None:
        self.small_io_bytes = small_io_bytes
        self.medium_io_bytes = medium_io_bytes
        self.history_window = history_window
        #: per-file recent write sizes
        self._history: Dict[int, List[int]] = {}

    def base_rank(self, request: PlacementRequest) -> int:
        history = self._history.setdefault(request.ino, [])
        history.append(request.length)
        del history[: -self.history_window]
        avg = sum(history) / len(history)
        if request.synchronous or avg <= self.small_io_bytes:
            return 0
        if avg <= self.medium_io_bytes:
            return 1
        return 2

    def forget(self, ino: int) -> None:
        self._history.pop(ino, None)


class HeatMap:
    """Per-file access tally with exponential decay."""

    #: :meth:`cool_all` drops tallies that decayed below this
    FORGET_BELOW = 0.05

    def __init__(self, decay: float = 0.8) -> None:
        self.decay = decay
        self._heat: Dict[int, float] = {}

    def touch(self, ino: int) -> None:
        self._heat[ino] = self._heat.get(ino, 0.0) + 1.0

    def get(self, ino: int) -> float:
        return self._heat.get(ino, 0.0)

    def cool(self, ino: int) -> float:
        """Decay one file's heat; returns its heat *before* the decay."""
        heat = self._heat.get(ino, 0.0)
        if heat:
            self._heat[ino] = heat * self.decay
        return heat

    def cool_all(self) -> None:
        """Decay every file, dropping entries below ``FORGET_BELOW``."""
        for ino in list(self._heat):
            self._heat[ino] *= self.decay
            if self._heat[ino] < self.FORGET_BELOW:
                del self._heat[ino]

    def forget(self, ino: int) -> None:
        self._heat.pop(ino, None)


@register_policy("lru")
class LruTieringPolicy(Policy):
    """LRU block-chunk tiering: fill fast tiers, demote cold, promote hot."""

    def __init__(
        self,
        high_watermark: float = 0.90,
        low_watermark: float = 0.75,
        promote_on_access: bool = True,
        max_orders_per_plan: int = 64,
    ) -> None:
        if not 0 < low_watermark <= high_watermark <= 1:
            raise PolicyError("watermarks must satisfy 0 < low <= high <= 1")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.promote_on_access = promote_on_access
        self.max_orders_per_plan = max_orders_per_plan
        #: LRU recency: (ino, chunk) -> tier of last-known residence;
        #: most-recently-used at the end
        self._recency: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        #: ino -> its chunks in ``_recency``, so ``forget`` touches only them
        self._chunks: Dict[int, Set[int]] = {}
        #: promotion requests gathered from on_access, oldest first
        self._promotions: Deque[MigrationOrder] = deque()
        #: ino -> its orders in ``_promotions`` (no entry: none queued)
        self._queued: Dict[int, int] = {}

    # -- placement --------------------------------------------------------

    def place_write(self, request: PlacementRequest, tiers: List[TierState]) -> int:
        return fastest_with_room(tiers, request.length).tier_id

    # -- recency tracking -----------------------------------------------------

    def on_access(
        self,
        ino: int,
        block_start: int,
        count: int,
        tier_id: int,
        kind: str,
        now: float,
    ) -> None:
        first_chunk = block_start // CHUNK_BLOCKS
        last_chunk = (block_start + count - 1) // CHUNK_BLOCKS
        chunks = self._chunks.setdefault(ino, set())
        for chunk in range(first_chunk, last_chunk + 1):
            key = (ino, chunk)
            self._recency.pop(key, None)
            self._recency[key] = tier_id
            chunks.add(chunk)
        if self.promote_on_access and tier_id != 0 and kind == "read":
            self._queued[ino] = self._queued.get(ino, 0) + 1
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

    def forget(self, ino: int) -> None:
        for chunk in self._chunks.pop(ino, ()):
            del self._recency[(ino, chunk)]
        if self._queued.pop(ino, 0):
            self._promotions = deque(o for o in self._promotions if o.ino != ino)

    # -- planning ---------------------------------------------------------------

    def plan_migrations(
        self, tiers: List[TierState], files: Iterable[FileView]
    ) -> List[MigrationOrder]:
        orders: List[MigrationOrder] = []
        # never plan migrations INTO a suspect/offline tier
        by_rank = sorted(writable_tiers(tiers), key=lambda t: t.rank)
        tier_by_id = {t.tier_id: t for t in by_rank}
        if not by_rank:
            return orders

        # residence truth from the BLT views (recency map may be stale)
        residence: Dict[Tuple[int, int], int] = {}
        for view in files:
            for start, count, tier in view.runs:
                if tier is None:
                    continue
                for chunk in range(start // CHUNK_BLOCKS, (start + count - 1) // CHUNK_BLOCKS + 1):
                    residence[(view.ino, chunk)] = tier

        # demotions: for each overfull tier, evict coldest chunks downward
        for idx, tier in enumerate(by_rank):
            if tier.utilization <= self.high_watermark:
                continue
            if idx + 1 >= len(by_rank):
                continue  # slowest tier has nowhere to demote
            dst = by_rank[idx + 1]
            bytes_to_free = int(
                (tier.utilization - self.low_watermark) * tier.total_bytes
            )
            freed = 0
            for key in list(self._recency):  # oldest first
                if freed >= bytes_to_free or len(orders) >= self.max_orders_per_plan:
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
                # after demotion this chunk lives on dst
                self._recency[key] = dst.tier_id

        # promotions gathered from accesses, space permitting
        while self._promotions and len(orders) < self.max_orders_per_plan:
            order = self._promotions.popleft()
            left = self._queued[order.ino] - 1
            if left:
                self._queued[order.ino] = left
            else:
                del self._queued[order.ino]
            dst = tier_by_id.get(order.dst_tier)
            if dst is None or dst.utilization >= self.high_watermark:
                continue
            orders.append(order)
        return orders


@register_policy("tpfs")
class TpfsPolicy(Policy):
    """TPFS-style placement: small/sync writes to PM, large writes downhill."""

    def __init__(
        self,
        small_io_bytes: int = 64 * 1024,
        medium_io_bytes: int = 1024 * 1024,
        history_window: int = 8,
    ) -> None:
        self.sizes = SizeRule(small_io_bytes, medium_io_bytes, history_window)

    def place_write(self, request: PlacementRequest, tiers: List[TierState]) -> int:
        base_rank = self.sizes.base_rank(request)
        by_rank = sorted(writable_tiers(tiers), key=lambda t: t.rank)
        if not by_rank:
            raise PolicyError("no writable tier (all offline)")

        def pick(rank: int) -> TierState:
            rank = min(rank, len(by_rank) - 1)
            tier = by_rank[rank]
            if tier.free_bytes < request.length and rank + 1 < len(by_rank):
                return pick(rank + 1)
            return tier

        return pick(base_rank).tier_id

    def forget(self, ino: int) -> None:
        self.sizes.forget(ino)


@register_policy("hotcold")
class HotColdPolicy(Policy):
    """Whole-file temperature with exponential decay; hot files float up."""

    def __init__(
        self,
        hot_threshold: float = 4.0,
        cold_threshold: float = 0.5,
        decay: float = 0.8,
        max_orders_per_plan: int = 32,
    ) -> None:
        self.hot_threshold = hot_threshold
        self.cold_threshold = cold_threshold
        self.max_orders_per_plan = max_orders_per_plan
        self.heat = HeatMap(decay)

    def place_write(self, request: PlacementRequest, tiers: List[TierState]) -> int:
        return fastest_with_room(tiers, request.length).tier_id

    def on_access(
        self, ino: int, block_start: int, count: int, tier_id: int, kind: str, now: float
    ) -> None:
        self.heat.touch(ino)

    def forget(self, ino: int) -> None:
        self.heat.forget(ino)

    def plan_migrations(
        self, tiers: List[TierState], files: Iterable[FileView]
    ) -> List[MigrationOrder]:
        by_rank = sorted(writable_tiers(tiers), key=lambda t: t.rank)
        if not by_rank:
            return []
        fastest, slowest = by_rank[0], by_rank[-1]
        orders: List[MigrationOrder] = []
        for view in files:
            heat = self.heat.cool(view.ino)
            if len(orders) >= self.max_orders_per_plan:
                break
            if heat >= self.hot_threshold:
                for start, count, tier in view.runs:
                    if tier is not None and tier != fastest.tier_id:
                        orders.append(
                            MigrationOrder(
                                view.ino, start, count, tier, fastest.tier_id, "hot"
                            )
                        )
            elif heat <= self.cold_threshold and heat > 0:
                for start, count, tier in view.runs:
                    if tier is not None and tier != slowest.tier_id:
                        orders.append(
                            MigrationOrder(
                                view.ino, start, count, tier, slowest.tier_id, "cold"
                            )
                        )
        return orders


class PressureRouter:
    """Hysteresis routing around loaded, SUSPECT or full tiers.

    Keeps a per-tier *avoid* flag with hysteresis: a tier is avoided once
    its sampled per-channel load reaches ``spill_load`` and stays avoided
    until the load decays to ``resume_load``, so placement does not flap
    when the load hovers at one threshold.

    Saturation spills go *uphill only* (toward a cool, roomy, faster
    tier): absorbing a burst at memory speed and demoting later is a
    transient cost, while spilling a soon-to-be-read block downhill turns
    one hot minute into a permanent 8 ms read.  With no cool faster tier
    the write stays at its base tier and eats the queue — bounded, and
    strictly better than trading it for a slow placement.  A base tier
    that is SUSPECT, full or missing is different: those writes must move
    somewhere, so routing falls back to the nearest healthy non-avoided
    tier in either direction.  OFFLINE tiers are never candidates.
    """

    def __init__(self, spill_load: float = 0.75, resume_load: float = 0.3) -> None:
        if resume_load >= spill_load:
            raise PolicyError("resume_load must be below spill_load")
        self.spill_load = spill_load
        self.resume_load = resume_load
        #: tiers currently routed around (hysteresis state)
        self._avoiding: Dict[int, bool] = {}
        #: placements that left the base-rank tier because of pressure
        self.pressure_spills = 0
        #: migration orders dropped because their target channel was hot
        self.deferred_orders = 0

    def observe(self, tiers: List[TierState]) -> None:
        """Advance the avoid flags from this round's sampled loads."""
        for t in tiers:
            load = tier_load(t)
            if self._avoiding.get(t.tier_id):
                if load <= self.resume_load:
                    del self._avoiding[t.tier_id]
            elif load >= self.spill_load:
                self._avoiding[t.tier_id] = True

    def _avoided(self, tier_id: int) -> bool:
        return self._avoiding.get(tier_id, False)

    def is_cool(self, tier: TierState) -> bool:
        """Whether ``tier`` may receive migration traffic right now."""
        return (
            not self._avoided(tier.tier_id)
            and tier_load(tier) < self.spill_load
            and tier.health is HealthState.HEALTHY
        )

    def route(
        self,
        base_rank: int,
        tiers: List[TierState],
        length: int,
        reserve_fraction: float = 0.02,
    ) -> int:
        """Pick a tier near ``base_rank``, spilling around pressure."""
        self.observe(tiers)
        candidates = writable_tiers(tiers)
        if not candidates:
            raise PolicyError("no writable tier (all offline)")

        def roomy(t: TierState) -> bool:
            reserve = int(t.total_bytes * reserve_fraction)
            return t.free_bytes - reserve >= length

        base = next((t for t in candidates if t.rank == base_rank), None)
        if base is not None and base.health is HealthState.HEALTHY and roomy(base):
            if not self._avoided(base.tier_id):
                return base.tier_id
            # saturation spill: only a cool, roomy, *faster* tier
            uphill = [
                t
                for t in candidates
                if t.rank < base_rank
                and t.health is HealthState.HEALTHY
                and not self._avoided(t.tier_id)
                and roomy(t)
            ]
            if uphill:
                self.pressure_spills += 1
                return min(
                    uphill,
                    key=lambda t: (base_rank - t.rank, tier_load(t), t.rank),
                ).tier_id
            return base.tier_id  # nowhere cool and faster: eat the queue
        # base tier SUSPECT, full or unregistered: the write must move —
        # nearest healthy non-avoided tier in either direction wins
        pool = [t for t in candidates if roomy(t)] or candidates

        def key(t: TierState):
            health = 0 if t.health is HealthState.HEALTHY else 1
            avoiding = 1 if self._avoided(t.tier_id) else 0
            dist = abs(t.rank - base_rank)
            return (health, avoiding, dist, tier_load(t), t.rank)

        return min(pool, key=key).tier_id


@register_policy("pressure")
class PressureAwarePolicy(Policy):
    """Queue/health-fed placement with pressure-deferred migrations.

    Placement starts from :class:`SizeRule` (small or sync writes aim at
    the fastest tier, large writes downhill) and then routes around
    saturated or SUSPECT tiers via its :class:`PressureRouter`.
    Migration planning demotes the coldest resident files off any tier
    whose load reaches ``demote_load``, promotes hot files to the fastest
    tier only while it is cool, and drops (defers) any order whose
    destination is currently avoided or above ``spill_load``.
    """

    defer_hot_migrations = True

    def __init__(
        self,
        spill_load: float = 0.75,
        resume_load: float = 0.3,
        demote_load: float = 1.5,
        demote_util: float = 0.85,
        promote_util: float = 0.5,
        small_io_bytes: int = 64 * 1024,
        medium_io_bytes: int = 1024 * 1024,
        history_window: int = 8,
        hot_threshold: float = 4.0,
        cold_threshold: float = 0.5,
        decay: float = 0.8,
        max_orders_per_plan: int = 32,
        demote_files_per_plan: int = 4,
        promote_files_per_plan: int = 2,
    ) -> None:
        self.router = PressureRouter(spill_load, resume_load)
        self.sizes = SizeRule(small_io_bytes, medium_io_bytes, history_window)
        self.heat = HeatMap(decay)
        self.demote_load = demote_load
        self.demote_util = demote_util
        self.promote_util = promote_util
        self.promote_files_per_plan = promote_files_per_plan
        self.hot_threshold = hot_threshold
        self.cold_threshold = cold_threshold
        self.max_orders_per_plan = max_orders_per_plan
        self.demote_files_per_plan = demote_files_per_plan

    # -- placement --------------------------------------------------------

    def place_write(self, request: PlacementRequest, tiers: List[TierState]) -> int:
        return self.router.route(
            self.sizes.base_rank(request), tiers, request.length
        )

    def on_access(
        self, ino: int, block_start: int, count: int, tier_id: int, kind: str, now: float
    ) -> None:
        self.heat.touch(ino)

    def forget(self, ino: int) -> None:
        self.sizes.forget(ino)
        self.heat.forget(ino)

    # -- planning ---------------------------------------------------------

    def plan_migrations(
        self, tiers: List[TierState], files: Iterable[FileView]
    ) -> List[MigrationOrder]:
        router = self.router
        router.observe(tiers)
        writable = sorted(writable_tiers(tiers), key=lambda t: t.rank)
        if not writable:
            return []
        views = list(files)
        heats = {view.ino: self.heat.cool(view.ino) for view in views}
        orders: List[MigrationOrder] = []
        fastest = writable[0]

        # demotions: drain files off tiers that need relief.  Two distinct
        # triggers: a backlogged or SUSPECT tier sheds its genuinely cold
        # files (heat-gated — moving warm data off a busy tier just moves
        # the heat), while a tier past the capacity watermark sheds its
        # coldest residents *unconditionally*, because a full fast tier
        # can no longer absorb the next burst and absorption is worth
        # more than any individual file's placement.
        relieving: List[Tuple[TierState, bool]] = []
        for t in tiers:
            if t.health is HealthState.OFFLINE:
                continue
            if tier_load(t) >= self.demote_load or t.health is HealthState.SUSPECT:
                relieving.append((t, True))
            elif t.utilization >= self.demote_util and any(
                d.rank > t.rank for d in writable
            ):
                relieving.append((t, False))
        for src, cold_gated in relieving:
            dsts = [
                t
                for t in writable
                if t.tier_id != src.tier_id and router.is_cool(t)
            ]
            if not dsts:
                router.deferred_orders += 1
                continue
            dst = min(
                dsts,
                key=lambda t: (0 if t.rank > src.rank else 1, tier_load(t), t.rank),
            )
            resident = [
                v
                for v in views
                if (not cold_gated or heats[v.ino] <= self.cold_threshold)
                and any(r[2] == src.tier_id for r in v.runs)
            ]
            resident.sort(key=lambda v: (heats[v.ino], v.ino))
            for view in resident[: self.demote_files_per_plan]:
                if len(orders) >= self.max_orders_per_plan:
                    break
                for start, count, tier in view.runs:
                    if tier == src.tier_id:
                        orders.append(
                            MigrationOrder(
                                view.ino,
                                start,
                                count,
                                src.tier_id,
                                dst.tier_id,
                                reason="pressure-demote",
                            )
                        )

        # promotions: hot files float to the fastest tier, but only while
        # its channels are cool — promoting into a burst makes the tail —
        # and only while it has headroom: a fast tier filled to the brim
        # with promoted files cannot absorb the next burst, and absorption
        # is the cheaper way to cut the tail.  ``promote_files_per_plan``
        # rations the copy traffic each round so promotions trickle into
        # cool windows instead of warring with foreground I/O.
        if router.is_cool(fastest) and fastest.utilization < self.promote_util:
            hot = [v for v in views if heats[v.ino] >= self.hot_threshold]
            hot.sort(key=lambda v: (-heats[v.ino], v.ino))
            promoted = 0
            for view in hot:
                if (
                    promoted >= self.promote_files_per_plan
                    or len(orders) >= self.max_orders_per_plan
                ):
                    break
                moved = False
                for start, count, tier in view.runs:
                    if tier is not None and tier != fastest.tier_id:
                        moved = True
                        orders.append(
                            MigrationOrder(
                                view.ino,
                                start,
                                count,
                                tier,
                                fastest.tier_id,
                                reason="pressure-promote",
                            )
                        )
                if moved:
                    promoted += 1
        else:
            router.deferred_orders += 1
        return orders[: self.max_orders_per_plan]


@register_policy("mirror")
class MirrorPolicy(PressureAwarePolicy):
    """Mirror-optimized tiering (MOST): replicate hot read-mostly files.

    Placement and demotion follow :class:`PressureAwarePolicy`; on top,
    :meth:`plan_mirrors` grants the hottest read-heavy small files a
    mirror on the fastest healthy tier, so their reads serve at PM/SSD
    speed even while the authoritative copy stays (or demotes) downhill.
    Mirrors are reclaimed when the file cools, when the mirror tier needs
    the capacity back (``reclaim_util``), or when the tier goes OFFLINE.

    Promotion orders *into* a file's mirror tier are suppressed — the
    mirror already serves reads there, so moving authority up as well
    would just burn copy bandwidth and fast-tier capacity twice.
    """

    def __init__(
        self,
        mirror_heat: float = 3.0,
        mirror_read_fraction: float = 0.6,
        max_file_bytes: int = 4 * 1024 * 1024,
        mirror_budget_fraction: float = 0.5,
        reclaim_util: float = 0.85,
        mirrors_per_plan: int = 4,
        **kwargs: object,
    ) -> None:
        super().__init__(**kwargs)
        self.mirror_heat = mirror_heat
        self.mirror_read_fraction = mirror_read_fraction
        self.max_file_bytes = max_file_bytes
        self.mirror_budget_fraction = mirror_budget_fraction
        self.reclaim_util = reclaim_util
        self.mirrors_per_plan = mirrors_per_plan
        #: per-file read/write op counts, decayed alongside the heat map
        self._reads = HeatMap(self.heat.decay)
        self._writes = HeatMap(self.heat.decay)
        #: ino -> tier currently holding this file's mirror
        self._mirrored_on: Dict[int, int] = {}

    def on_access(
        self, ino: int, block_start: int, count: int, tier_id: int, kind: str, now: float
    ) -> None:
        super().on_access(ino, block_start, count, tier_id, kind, now)
        (self._reads if kind == "read" else self._writes).touch(ino)

    def forget(self, ino: int) -> None:
        super().forget(ino)
        self._reads.forget(ino)
        self._writes.forget(ino)
        self._mirrored_on.pop(ino, None)

    def _read_fraction(self, ino: int) -> float:
        reads = self._reads.get(ino)
        writes = self._writes.get(ino)
        total = reads + writes
        return reads / total if total else 0.0

    def plan_mirrors(
        self, tiers: List[TierState], files: Iterable[FileView]
    ) -> List[MirrorOrder]:
        views = list(files)
        by_id = {t.tier_id: t for t in tiers}
        heats = {v.ino: self.heat.get(v.ino) for v in views}
        self._reads.cool_all()
        self._writes.cool_all()
        orders: List[MirrorOrder] = []

        # reclaim first: capacity freed this round funds the adds below
        for ino, tier_id in list(self._mirrored_on.items()):
            tier = by_id.get(tier_id)
            if tier is None or tier.health is HealthState.OFFLINE:
                orders.append(MirrorOrder(ino, tier_id, "drop", "tier-gone"))
                del self._mirrored_on[ino]
            elif heats.get(ino, self.heat.get(ino)) <= self.cold_threshold:
                orders.append(MirrorOrder(ino, tier_id, "drop", "cooled"))
                del self._mirrored_on[ino]
        # space pressure on the mirror tier: shed the coldest mirrors
        for tier_id in set(self._mirrored_on.values()):
            tier = by_id.get(tier_id)
            if tier is None or tier.utilization < self.reclaim_util:
                continue
            victims = sorted(
                (ino for ino, t in self._mirrored_on.items() if t == tier_id),
                key=lambda ino: (heats.get(ino, 0.0), ino),
            )
            for ino in victims[: self.mirrors_per_plan]:
                orders.append(MirrorOrder(ino, tier_id, "drop", "reclaim"))
                del self._mirrored_on[ino]

        fastest = next(
            (
                t
                for t in sorted(tiers, key=lambda t: t.rank)
                if t.health is HealthState.HEALTHY
            ),
            None,
        )
        if fastest is None:
            return orders
        budget = int(fastest.free_bytes * self.mirror_budget_fraction)
        candidates = [
            v
            for v in views
            if v.ino not in self._mirrored_on
            and 0 < v.size <= self.max_file_bytes
            and heats.get(v.ino, 0.0) >= self.mirror_heat
            and self._read_fraction(v.ino) >= self.mirror_read_fraction
        ]
        candidates.sort(key=lambda v: (-heats.get(v.ino, 0.0), v.ino))
        added = 0
        for view in candidates:
            if added >= self.mirrors_per_plan or budget < view.size:
                break
            mapped = sum(view.blocks_by_tier.values())
            on_fastest = view.blocks_by_tier.get(fastest.tier_id, 0)
            if mapped == 0 or on_fastest * 2 >= mapped:
                continue  # already (mostly) living on the fast tier
            orders.append(
                MirrorOrder(view.ino, fastest.tier_id, "add", "hot-read-mostly")
            )
            self._mirrored_on[view.ino] = fastest.tier_id
            budget -= view.size
            added += 1
        return orders

    def plan_migrations(
        self, tiers: List[TierState], files: Iterable[FileView]
    ) -> List[MigrationOrder]:
        orders = super().plan_migrations(tiers, files)
        kept: List[MigrationOrder] = []
        for order in orders:
            if self._mirrored_on.get(order.ino) == order.dst_tier:
                self.router.deferred_orders += 1
                continue
            kept.append(order)
        return kept


@register_policy("pinned")
class PinnedPolicy(Policy):
    """Static routing: every write goes to one fixed tier.

    Mirrors the paper's overhead experiments, where "the I/O request is
    always directed to the target devices"; also useful for tests.
    """

    def __init__(self, tier_id: int = 0) -> None:
        self.tier_id = tier_id

    def place_write(self, request: PlacementRequest, tiers: List[TierState]) -> int:
        if not any(t.tier_id == self.tier_id for t in tiers):
            raise PolicyError(f"pinned tier {self.tier_id} is not registered")
        return self.tier_id
