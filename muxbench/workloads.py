"""The five workloads: what each generates, builds and is frozen at.

Frozen constants
----------------
Each open-loop workload fixes three offered rates and one latency limit.
The limit is 2x the ``mid``-phase value of ``limit_metric`` measured at
the seed commit, rounded to one significant figure; the rates were chosen
so that at the seed commit ``lo`` and ``mid`` meet the limit and ``hi``
(about twice the saturation rate) does not.  Later PRs move the measured
numbers, never these constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import build_cluster
from repro.stack import build_stack

from muxbench import gen
from muxbench.drivers import RingRig, VfsRig

#: share of an open-loop workload's timed ops per phase: latencies are
#: read from ``mid``, so it gets the samples; ``lo`` and ``hi`` only have
#: to show which side of the limit they fall on
PHASE_SHARES = (0.15, 0.70, 0.15)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str  # "open" | "closed"
    #: ops in the timed window at ``--seconds 10``, all phases together
    ops: int
    warm_ops: int
    plan: Callable[["Workload", int, List[int], bool], gen.Plan]
    build: Callable[["Workload", gen.Plan, bool], object]
    #: open loop only: ``(phase, ops per simulated second)``
    rates: Tuple[Tuple[str, float], ...] = ()
    limit_metric: Optional[str] = None
    limit_us: Optional[float] = None

    def phase_ops(self, seconds: float, smoke: bool, share: float = 1.0) -> List[int]:
        """Op count of each timed phase: fixed per ``--seconds`` value, never
        time-boxed, so simulated numbers are exact.  ``--smoke`` runs 1 %;
        ``share`` scales further (the traced pass runs a quarter)."""
        total = self.ops * seconds / 10.0 * (0.01 if smoke else 1.0) * share
        shares = PHASE_SHARES if self.loop == "open" else (1.0,)
        return [max(40, round(total * s)) for s in shares]

    def warm_count(self, smoke: bool) -> int:
        return max(20, round(self.warm_ops * (0.01 if smoke else 1.0)))


def _shrink(count: int, smoke: bool, floor: int) -> int:
    """Smoke runs populate an eighth of the files."""
    return max(floor, count // 8) if smoke else count


def _phases(w: Workload, ops: List[int]) -> List[Tuple[str, float, int]]:
    return [(name, rate, n) for (name, rate), n in zip(w.rates, ops)]


# -- 1 ----------------------------------------------------------------------


def _plan_zipf(w: Workload, seed: int, ops: List[int], smoke: bool) -> gen.Plan:
    return gen.zipf_read_cold(
        seed,
        files=_shrink(160, smoke, 8),
        file_blocks=256,
        io_blocks=4,
        warm_ops=w.warm_count(smoke),
        phases=_phases(w, ops),
    )


def _single_mux_rig(stack) -> RingRig:
    return RingRig(
        stack.clock, [stack], stack.mux, [stack.mux], ["/z"],
        ring_depth=8, pin_tier=stack.tier_ids["hdd"],
    )


def _build_zipf(w: Workload, plan: gen.Plan, smoke: bool) -> RingRig:
    return _single_mux_rig(build_stack(policy="mirror"))


# -- 2 ----------------------------------------------------------------------


def _plan_burst(w: Workload, seed: int, ops: List[int], smoke: bool) -> gen.Plan:
    return gen.burst_write_fsync(
        seed,
        files=_shrink(96, smoke, 8),
        file_blocks=256,
        read_blocks=4,
        write_blocks=16,
        burst=8,
        warm_ops=w.warm_count(smoke),
        phases=_phases(w, ops),
    )


def _build_burst(w: Workload, plan: gen.Plan, smoke: bool) -> RingRig:
    return _single_mux_rig(build_stack(policy="pressure", cache_write_back=True))


# -- 3 ----------------------------------------------------------------------

FILESERVER_DIRS = 16


def _plan_fileserver(w: Workload, seed: int, ops: List[int], smoke: bool) -> gen.Plan:
    return gen.fileserver_sync(
        seed,
        dirs=FILESERVER_DIRS,
        start_files=_shrink(400, smoke, 24),
        chunk_blocks=4,
        warm_ops=w.warm_count(smoke),
        run_ops=ops[0],
    )


def _build_fileserver(w: Workload, plan: gen.Plan, smoke: bool) -> VfsRig:
    dirs = [f"/mux/srv/d{d:02d}" for d in range(FILESERVER_DIRS)]
    return VfsRig(build_stack(), dirs, chunk_blocks=4, maintain_every=256)


# -- 4 ----------------------------------------------------------------------

META_FANOUT = 8


def _plan_meta(w: Workload, seed: int, ops: List[int], smoke: bool) -> gen.Plan:
    return gen.meta_churn(
        seed,
        dirs=META_FANOUT * META_FANOUT,
        start_files=_shrink(5000, smoke, 128),
        warm_ops=w.warm_count(smoke),
        run_ops=ops[0],
    )


def _build_meta(w: Workload, plan: gen.Plan, smoke: bool) -> VfsRig:
    dirs = [
        f"/mux/tree/a{a}/b{b}" for a in range(META_FANOUT) for b in range(META_FANOUT)
    ]
    return VfsRig(build_stack(), dirs, chunk_blocks=0, maintain_every=0)


# -- 5 ----------------------------------------------------------------------

CLUSTER_SHARDS = 4
CLUSTER_TENANTS = 8
#: tenants 0 and 4 share shard 0 and carry three times the traffic of the
#: others; after the first phase tenant 4's subtree is shipped to shard 1
CLUSTER_WEIGHTS = (3, 1, 1, 1, 3, 1, 1, 1)
CLUSTER_RELOCATE = (4, 1)
CLUSTER_ROOT = "/tenants"


def _plan_cluster(w: Workload, seed: int, ops: List[int], smoke: bool) -> gen.Plan:
    return gen.cluster_tenants(
        seed,
        tenants=CLUSTER_TENANTS,
        shards=CLUSTER_SHARDS,
        files_per_tenant=6,
        file_blocks=32,
        warm_ops=w.warm_count(smoke),
        phases=_phases(w, ops),
        weights=CLUSTER_WEIGHTS,
    )


def _build_cluster(w: Workload, plan: gen.Plan, smoke: bool) -> RingRig:
    # single-tier HDD shards with the cache off: the golden
    # ``cluster_scaleout`` rig, where the shard itself is the bottleneck
    cluster = build_cluster(shards=CLUSTER_SHARDS, tiers=["hdd"], enable_cache=False)
    front = cluster.mux
    # tenant i goes on shard i % shards: take the seed-derived candidate
    # names in order, keeping those the hash ring maps where needed
    names: List[Optional[str]] = [None] * CLUSTER_TENANTS
    for name in plan.names:
        shard = front.subtree_owner(f"{CLUSTER_ROOT[1:]}/{name}")
        for tenant in range(shard, CLUSTER_TENANTS, CLUSTER_SHARDS):
            if names[tenant] is None:
                names[tenant] = name
                break
        if None not in names:
            break
    if None in names:
        raise RuntimeError("candidate tenant names do not cover every shard")
    return RingRig(
        cluster.clock,
        cluster.shards,
        front,
        [],
        [f"{CLUSTER_ROOT}/{name}" for name in names],
        ring_depth=8,
        cluster=front,
        relocate=CLUSTER_RELOCATE,
    )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="zipf_read_cold",
        why="open-loop zipf reads over 160 MiB pinned to HDD, larger than every cache: loads ring, "
        "read routing, SCM and page caches, mirrors and the HDD timeline; bypasses namespace and journal",
        loop="open",
        ops=90_000,
        warm_ops=12_000,
        plan=_plan_zipf,
        build=_build_zipf,
        rates=(("lo", 100.0), ("mid", 200.0), ("hi", 2400.0)),
        limit_metric="sim_read_p99_us",
        limit_us=70_000.0,
    ),
    Workload(
        name="burst_write_fsync",
        why="open-loop bursts of 8 x 64 KiB writes + fsync over a read floor, write set far larger "
        "than the write-back cache: loads absorb, destage, journal commit and device flush",
        loop="open",
        ops=22_000,
        warm_ops=6_000,
        plan=_plan_burst,
        build=_build_burst,
        rates=(("lo", 80.0), ("mid", 160.0), ("hi", 640.0)),
        limit_metric="sim_fsync_p99_us",
        limit_us=300_000.0,
    ),
    Workload(
        name="fileserver_sync",
        why="closed-loop fileserver mix through stack.vfs with foreground OCC migration: loads "
        "placement, NOVA log append, allocator and namespace; bypasses ring and async engine",
        loop="closed",
        ops=8_000,
        warm_ops=2_000,
        plan=_plan_fileserver,
        build=_build_fileserver,
    ),
    Workload(
        name="meta_churn",
        why="closed-loop pure namespace churn, zero data bytes: loads vfs path resolution, dentry "
        "cache, metadata and journal records; bypasses the data path, so a data-path change predicts no move",
        loop="closed",
        ops=100_000,
        warm_ops=15_000,
        plan=_plan_meta,
        build=_build_meta,
    ),
    Workload(
        name="cluster_tenants",
        why="open-loop tenants on a 4-shard cluster of HDD shards with cross-shard renames and a "
        "rebalance: the only workload that runs hash routing, ring fan-out, two-phase rename and the wire",
        loop="open",
        ops=60_000,
        warm_ops=26_000,
        plan=_plan_cluster,
        build=_build_cluster,
        rates=(("lo", 100.0), ("mid", 200.0), ("hi", 800.0)),
        limit_metric="sim_fsync_p99_us",
        limit_us=300_000.0,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
