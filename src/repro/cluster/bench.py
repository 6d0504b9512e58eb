"""Open-loop load against a ClusterMux: the scale-out measurement rig.

Reuses the deterministic arrival machinery of
:mod:`repro.bench.multi_tenant` and the harness of
:mod:`repro.bench.openloop` (pre-generated Poisson/zipf schedules,
per-tenant async rings, latency from *intended* arrival) but drives a
:class:`~repro.cluster.cluster.ClusterMux` instead of a single Mux, and
reports **makespan throughput**: the same offered schedule replayed
against 1/2/4 shards finishes in less simulated time exactly in
proportion to how well the shards' device timelines overlap.  Population
setup runs before the measured window so the scaling ratio measures the
data path, not mkdirs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.multi_tenant import TENANT_ROOT, TenantSpec, replay_schedule
from repro.bench.openloop import MultiTenantResult, populate
from repro.cluster.cluster import ClusterMux
from repro.cluster.hashring import HashRing

#: every tenant's async window on the cluster
RING_DEPTH = 8


def colocated_tenant_names(
    ring: HashRing, root_key: str, count: int
) -> Tuple[List[str], int]:
    """Deterministically pick ``count`` tenant names whose subtrees all
    hash to one shard — the recipe for a deliberate hotspot.

    Probes ``hot0, hot1, ...`` and keeps the ones landing on the shard
    the first probe chose.  Returns ``(names, shard_id)``.
    """
    target: Optional[int] = None
    names: List[str] = []
    probe = 0
    while len(names) < count:
        name = f"hot{probe}"
        probe += 1
        shard = ring.node_for(f"{root_key}/{name}")
        if target is None:
            target = shard
        if shard == target:
            names.append(name)
    return names, target


def balanced_tenant_names(ring: HashRing, root_key: str, count: int) -> List[str]:
    """Deterministically pick ``count`` tenant names ``t<probe>`` spreading evenly
    across the ring's shards (round-robin over probe results).

    A handful of tenants over a consistent-hash ring is dominated by
    placement luck; a real deployment has enough subtrees that the law
    of large numbers evens the spread.  This helper recovers that regime
    with few tenants, so scaling benchmarks measure shard overlap rather
    than hash variance — using only the public ring mapping.
    """
    per_shard: Dict[int, List[str]] = {n: [] for n in ring.nodes()}
    quota = count // len(ring)
    extra = count % len(ring)
    probe = 0
    picked = 0
    while picked < count:
        name = f"t{probe}"
        probe += 1
        shard = ring.node_for(f"{root_key}/{name}")
        limit = quota + (1 if shard < extra else 0)
        if len(per_shard[shard]) < limit:
            per_shard[shard].append(name)
            picked += 1
    names = [n for bucket in per_shard.values() for n in bucket]
    names.sort(key=lambda n: int(n[1:]))
    return names


def run_cluster_load(
    cluster: ClusterMux,
    specs: List[TenantSpec],
    duration_ns: int,
    population_tier: Optional[str],
) -> MultiTenantResult:
    """Replay the open-loop schedule against ``cluster``.

    Identical measurement discipline to
    :func:`repro.bench.multi_tenant.run_multi_tenant` — same schedule,
    same population helper, same ring driver — so single-Mux and cluster
    numbers are directly comparable.  The population is idempotent
    (``reuse``): a hotspot run can be replayed after a rebalance against
    the already-moved subtrees.  The number that must scale with shard
    count is ``result.completed_ops / result.makespan_ns``.
    """
    if not cluster.exists(TENANT_ROOT):
        cluster.mkdir(TENANT_ROOT)
    tier = (
        cluster.shards[0].stack.tier_ids[population_tier]
        if population_tier is not None
        else None
    )
    handles = [
        populate(
            cluster, f"{TENANT_ROOT}/{spec.name}", spec.files, spec.file_bytes,
            tier, durable=True, reuse=True,
        )
        for spec in specs
    ]
    cluster.sync()
    return replay_schedule(cluster, specs, handles, duration_ns, RING_DEPTH, 0)
