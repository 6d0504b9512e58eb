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
    has_room,
    register_policy,
    tier_load,
    writable_tiers,
)
from repro.errors import PolicyError

#: granularity of recency tracking, in blocks (64 blocks = 256 KiB chunks)
CHUNK_BLOCKS = 64

#: whole-file heat at or above which a file is hot, and at or below which
#: (but above zero) it is cold — :class:`HotColdPolicy`,
#: :class:`PressureAwarePolicy` and :class:`MirrorPolicy`'s mirror reclaim
HOT_THRESHOLD = 4.0
COLD_THRESHOLD = 0.5
#: cap on the migration orders one heat-driven planning round returns
MAX_ORDERS_PER_PLAN = 32


class SizeRule:
    """The TPFS size/synchronicity rule: which rank a write *aims* at.

    Small or synchronous writes aim at the fastest tier (rank 0), medium
    writes at rank 1, large writes at rank 2 — judged on the mean of the
    file's last ``HISTORY_WINDOW`` write sizes (the "access history"
    input §2.1 names).
    """

    SMALL_IO_BYTES = 64 * 1024
    MEDIUM_IO_BYTES = 1024 * 1024
    HISTORY_WINDOW = 8

    def __init__(self) -> None:
        #: per-file recent write sizes
        self._history: Dict[int, List[int]] = {}

    def base_rank(self, request: PlacementRequest) -> int:
        history = self._history.setdefault(request.ino, [])
        history.append(request.length)
        del history[: -self.HISTORY_WINDOW]
        avg = sum(history) / len(history)
        if request.synchronous or avg <= self.SMALL_IO_BYTES:
            return 0
        if avg <= self.MEDIUM_IO_BYTES:
            return 1
        return 2

    def forget(self, ino: int) -> None:
        self._history.pop(ino, None)


class HeatMap:
    """Per-file access tally with exponential decay."""

    #: factor each cooling step multiplies a tally by
    DECAY = 0.8
    #: :meth:`cool_all` drops tallies that decayed below this
    FORGET_BELOW = 0.05

    def __init__(self) -> None:
        self._heat: Dict[int, float] = {}

    def touch(self, ino: int) -> None:
        self._heat[ino] = self._heat.get(ino, 0.0) + 1.0

    def get(self, ino: int) -> float:
        return self._heat.get(ino, 0.0)

    def cool(self, ino: int) -> float:
        """Decay one file's heat; returns its heat *before* the decay."""
        heat = self._heat.get(ino, 0.0)
        if heat:
            self._heat[ino] = heat * self.DECAY
        return heat

    def cool_all(self) -> None:
        """Decay every file, dropping entries below ``FORGET_BELOW``."""
        for ino in list(self._heat):
            self._heat[ino] *= self.DECAY
            if self._heat[ino] < self.FORGET_BELOW:
                del self._heat[ino]

    def forget(self, ino: int) -> None:
        self._heat.pop(ino, None)


@register_policy("lru")
class LruTieringPolicy(Policy):
    """LRU block-chunk tiering: fill fast tiers, demote cold, promote hot."""

    #: a tier above this utilisation demotes its coldest chunks ...
    HIGH_WATERMARK = 0.90
    #: ... until it is back down to this one
    LOW_WATERMARK = 0.75
    #: cap on the migration orders one planning round returns
    MAX_ORDERS = 64

    def __init__(self) -> None:
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
        if tier_id != 0 and kind == "read":
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
            if tier.utilization <= self.HIGH_WATERMARK:
                continue
            if idx + 1 >= len(by_rank):
                continue  # slowest tier has nowhere to demote
            dst = by_rank[idx + 1]
            bytes_to_free = int(
                (tier.utilization - self.LOW_WATERMARK) * tier.total_bytes
            )
            freed = 0
            for key in list(self._recency):  # oldest first
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
                # after demotion this chunk lives on dst
                self._recency[key] = dst.tier_id

        # promotions gathered from accesses, space permitting
        while self._promotions and len(orders) < self.MAX_ORDERS:
            order = self._promotions.popleft()
            left = self._queued[order.ino] - 1
            if left:
                self._queued[order.ino] = left
            else:
                del self._queued[order.ino]
            dst = tier_by_id.get(order.dst_tier)
            if dst is None or dst.utilization >= self.HIGH_WATERMARK:
                continue
            orders.append(order)
        return orders


@register_policy("tpfs")
class TpfsPolicy(Policy):
    """TPFS-style placement: small/sync writes to PM, large writes downhill."""

    def __init__(self) -> None:
        self.sizes = SizeRule()

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

    def __init__(self) -> None:
        self.heat = HeatMap()

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
            if len(orders) >= MAX_ORDERS_PER_PLAN:
                break
            if heat >= HOT_THRESHOLD:
                for start, count, tier in view.runs:
                    if tier is not None and tier != fastest.tier_id:
                        orders.append(
                            MigrationOrder(
                                view.ino, start, count, tier, fastest.tier_id, "hot"
                            )
                        )
            elif heat <= COLD_THRESHOLD and heat > 0:
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
    its sampled per-channel load reaches ``SPILL_LOAD`` and stays avoided
    until the load decays to ``RESUME_LOAD``, so placement does not flap
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

    SPILL_LOAD = 0.75
    RESUME_LOAD = 0.3

    def __init__(self) -> None:
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
                if load <= self.RESUME_LOAD:
                    del self._avoiding[t.tier_id]
            elif load >= self.SPILL_LOAD:
                self._avoiding[t.tier_id] = True

    def _avoided(self, tier_id: int) -> bool:
        return self._avoiding.get(tier_id, False)

    def is_cool(self, tier: TierState) -> bool:
        """Whether ``tier`` may receive migration traffic right now."""
        return (
            not self._avoided(tier.tier_id)
            and tier_load(tier) < self.SPILL_LOAD
            and tier.health is HealthState.HEALTHY
        )

    def route(self, base_rank: int, tiers: List[TierState], length: int) -> int:
        """Pick a tier near ``base_rank``, spilling around pressure."""
        self.observe(tiers)
        candidates = writable_tiers(tiers)
        if not candidates:
            raise PolicyError("no writable tier (all offline)")

        base = next((t for t in candidates if t.rank == base_rank), None)
        if (
            base is not None
            and base.health is HealthState.HEALTHY
            and has_room(base, length)
        ):
            if not self._avoided(base.tier_id):
                return base.tier_id
            # saturation spill: only a cool, roomy, *faster* tier
            uphill = [
                t
                for t in candidates
                if t.rank < base_rank
                and t.health is HealthState.HEALTHY
                and not self._avoided(t.tier_id)
                and has_room(t, length)
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
        pool = [t for t in candidates if has_room(t, length)] or candidates

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
    whose load reaches ``DEMOTE_LOAD``, promotes hot files to the fastest
    tier only while it is cool, and drops (defers) any order whose
    destination is currently avoided or above ``PressureRouter.SPILL_LOAD``.
    """

    defer_hot_migrations = True

    #: a tier whose load reaches this sheds its cold files
    DEMOTE_LOAD = 1.5
    #: a tier at least this full sheds its coldest files, hot or not
    DEMOTE_UTIL = 0.85
    #: promotions stop once the fastest tier is this full
    PROMOTE_UTIL = 0.5
    #: files one planning round may demote off each relieved tier
    DEMOTE_FILES_PER_PLAN = 4
    #: files one planning round may promote
    PROMOTE_FILES_PER_PLAN = 2

    def __init__(self) -> None:
        self.router = PressureRouter()
        self.sizes = SizeRule()
        self.heat = HeatMap()

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
            if tier_load(t) >= self.DEMOTE_LOAD or t.health is HealthState.SUSPECT:
                relieving.append((t, True))
            elif t.utilization >= self.DEMOTE_UTIL and any(
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
                if (not cold_gated or heats[v.ino] <= COLD_THRESHOLD)
                and any(r[2] == src.tier_id for r in v.runs)
            ]
            resident.sort(key=lambda v: (heats[v.ino], v.ino))
            for view in resident[: self.DEMOTE_FILES_PER_PLAN]:
                if len(orders) >= MAX_ORDERS_PER_PLAN:
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
        # is the cheaper way to cut the tail.  ``PROMOTE_FILES_PER_PLAN``
        # rations the copy traffic each round so promotions trickle into
        # cool windows instead of warring with foreground I/O.
        if router.is_cool(fastest) and fastest.utilization < self.PROMOTE_UTIL:
            hot = [v for v in views if heats[v.ino] >= HOT_THRESHOLD]
            hot.sort(key=lambda v: (-heats[v.ino], v.ino))
            promoted = 0
            for view in hot:
                if (
                    promoted >= self.PROMOTE_FILES_PER_PLAN
                    or len(orders) >= MAX_ORDERS_PER_PLAN
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
        return orders[:MAX_ORDERS_PER_PLAN]


@register_policy("mirror")
class MirrorPolicy(PressureAwarePolicy):
    """Mirror-optimized tiering (MOST): replicate hot read-mostly files.

    Placement and demotion follow :class:`PressureAwarePolicy`; on top,
    :meth:`plan_mirrors` grants the hottest read-heavy small files a
    mirror on the fastest healthy tier, so their reads serve at PM/SSD
    speed even while the authoritative copy stays (or demotes) downhill.
    Mirrors are reclaimed when the file cools, when the mirror tier needs
    the capacity back (``RECLAIM_UTIL``), or when the tier goes OFFLINE.

    Promotion orders *into* a file's mirror tier are suppressed — the
    mirror already serves reads there, so moving authority up as well
    would just burn copy bandwidth and fast-tier capacity twice.
    """

    #: a file this hot (and read-mostly) earns a mirror
    MIRROR_HEAT = 3.0
    #: share of a file's accesses that must be reads for it to earn one
    MIRROR_READ_FRACTION = 0.6
    #: files larger than this are never mirrored
    MAX_FILE_BYTES = 4 * 1024 * 1024
    #: share of the fastest tier's free space one round may grant
    MIRROR_BUDGET_FRACTION = 0.5
    #: a mirror tier this full sheds its coldest mirrors
    RECLAIM_UTIL = 0.85
    #: mirrors one round may add, and may reclaim per tier
    MIRRORS_PER_PLAN = 4

    def __init__(self) -> None:
        super().__init__()
        #: per-file read/write op counts, decayed alongside the heat map
        self._reads = HeatMap()
        self._writes = HeatMap()
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
            elif heats.get(ino, self.heat.get(ino)) <= COLD_THRESHOLD:
                orders.append(MirrorOrder(ino, tier_id, "drop", "cooled"))
                del self._mirrored_on[ino]
        # space pressure on the mirror tier: shed the coldest mirrors
        for tier_id in set(self._mirrored_on.values()):
            tier = by_id.get(tier_id)
            if tier is None or tier.utilization < self.RECLAIM_UTIL:
                continue
            victims = sorted(
                (ino for ino, t in self._mirrored_on.items() if t == tier_id),
                key=lambda ino: (heats.get(ino, 0.0), ino),
            )
            for ino in victims[: self.MIRRORS_PER_PLAN]:
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
        budget = int(fastest.free_bytes * self.MIRROR_BUDGET_FRACTION)
        candidates = [
            v
            for v in views
            if v.ino not in self._mirrored_on
            and 0 < v.size <= self.MAX_FILE_BYTES
            and heats.get(v.ino, 0.0) >= self.MIRROR_HEAT
            and self._read_fraction(v.ino) >= self.MIRROR_READ_FRACTION
        ]
        candidates.sort(key=lambda v: (-heats.get(v.ino, 0.0), v.ino))
        added = 0
        for view in candidates:
            if added >= self.MIRRORS_PER_PLAN or budget < view.size:
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
