"""Open-loop load against a ClusterMux: the scale-out measurement rig.

Reuses the deterministic arrival machinery of
:mod:`repro.bench.multi_tenant` (pre-generated Poisson/zipf schedules,
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

from repro.bench.multi_tenant import (
    MultiTenantResult,
    TenantSpec,
    generate_schedule,
    _drive_open_loop,
    _PAYLOAD_BYTE,
)
from repro.cluster.cluster import ClusterMux
from repro.cluster.hashring import HashRing


def colocated_tenant_names(
    ring: HashRing, root_key: str, count: int, prefix: str = "hot"
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
        name = f"{prefix}{probe}"
        probe += 1
        shard = ring.node_for(f"{root_key}/{name}")
        if target is None:
            target = shard
        if shard == target:
            names.append(name)
    return names, target


def balanced_tenant_names(
    ring: HashRing, root_key: str, count: int, prefix: str = "t"
) -> List[str]:
    """Deterministically pick ``count`` tenant names spreading evenly
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
        name = f"{prefix}{probe}"
        probe += 1
        shard = ring.node_for(f"{root_key}/{name}")
        limit = quota + (1 if shard < extra else 0)
        if len(per_shard[shard]) < limit:
            per_shard[shard].append(name)
            picked += 1
    names = [n for bucket in per_shard.values() for n in bucket]
    names.sort(key=lambda n: int(n[len(prefix):]))
    return names


def run_cluster_load(
    cluster: ClusterMux,
    specs: List[TenantSpec],
    duration_ns: int,
    ring_depth: int = 8,
    seed: int = 2026,
    root: str = "/tenants",
    population_tier: Optional[int] = None,
    durable_population: bool = True,
) -> Tuple[MultiTenantResult, int]:
    """Replay the open-loop schedule against ``cluster``.

    Identical measurement discipline to
    :func:`repro.bench.multi_tenant.run_multi_tenant` — the clock
    advances to each op's intended arrival, submissions overlap through
    per-tenant cluster rings, latency is completion minus intended
    arrival — so single-Mux and cluster numbers are directly comparable.
    Returns the result plus the **makespan** (ns of simulated time from
    the first measured op to the last drained completion); aggregate
    throughput is ``completed_ops / makespan``, the number that must
    scale with shard count.
    """
    events = generate_schedule(specs, duration_ns, seed)

    # -- population (unmeasured; idempotent so a hotspot run can be
    # replayed after a rebalance against the already-moved subtrees) -----
    if not cluster.exists(root):
        cluster.mkdir(root)
    handles: List[List] = []
    for spec in specs:
        if not cluster.exists(f"{root}/{spec.name}"):
            cluster.mkdir(f"{root}/{spec.name}")
        payload = bytes([_PAYLOAD_BYTE]) * spec.file_bytes
        tenant_handles = []
        for i in range(spec.files):
            path = f"{root}/{spec.name}/f{i}"
            if population_tier is not None:
                if not cluster.exists(path):
                    cluster.close(cluster.create(path))
                cluster.set_placement(path, population_tier)
                cluster.write_file(path, payload)
                cluster.set_placement(path, None)
            else:
                cluster.write_file(path, payload)
            handle = cluster.open(path)
            if durable_population:
                cluster.fsync(handle)
            tenant_handles.append(handle)
        handles.append(tenant_handles)
    cluster.sync()

    results, _, makespan_ns = _drive_open_loop(
        cluster, specs, events, handles, ring_depth
    )
    for tenant_handles in handles:
        for handle in tenant_handles:
            cluster.close(handle)

    result = MultiTenantResult(
        tenants=results,
        offered_ops=len(events),
        duration_ns=duration_ns,
        ring_depth=ring_depth,
    )
    return result, makespan_ns
