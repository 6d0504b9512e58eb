"""Counters read at layer boundaries, and the per-layer metrics built on them.

Counts come from the program's own public statistics objects
(``dev.stats``, ``dev.timeline``, ``cache.stats``, ``page_cache.stats``,
``journal.stats``, ``engine.stats``, ``mirrors.stats``, ``mux.stats``,
the cluster and wire counters); times come from the tracer's spans.
Every counter is deterministic for a seed, so a host-only optimisation
must leave each of them exactly equal.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from muxbench.metrics import BACKGROUND_LAYERS, LAYERS, TIERS, per_layer_metrics


def collect_counters(rig) -> Dict[str, int]:
    """Flat, summed-over-shards snapshot of every counter the report uses
    (a ``defaultdict``: a layer the stack does not have counts 0)."""
    c: Dict[str, int] = defaultdict(int)

    def add(key: str, amount: int) -> None:
        c[key] += amount

    for stack in rig.stacks:
        for tier, dev in stack.devices.items():
            snap = dev.stats.snapshot()
            for key in ("read_ops", "write_ops", "flush_ops", "bytes_read",
                        "bytes_written", "seeks"):
                add(f"dev.{tier}.{key}", snap[key])
            add("dev.bytes_written", snap["bytes_written"])
            line = dev.timeline.snapshot()
            for key in ("fg_ops", "bg_ops", "wait_ns", "busy_ns"):
                add(f"dev.{tier}.{key}", line[key])
        for fs in stack.filesystems.values():
            pages = getattr(fs, "page_cache", None)
            if pages is not None:
                add("pagecache.hit", pages.stats.get("hit"))
                add("pagecache.miss", pages.stats.get("miss"))
            journal = getattr(fs, "journal", None)
            if journal is not None:
                add("journal.commits", journal.stats.get("commits"))
                add("journal.blocks", journal.stats.get("journal_blocks"))
    for mux in (stack.mux for stack in rig.stacks):
        if mux.cache is not None:
            for key in ("hit", "miss", "write_hit", "destaged_blocks"):
                add(f"cache.{key}", mux.cache.stats.get(key))
        for key in ("blocks_moved", "occ_attempts", "conflicts"):
            add(f"migration.{key}", mux.engine.stats.get(key))
        add("mirror.blocks_synced", mux.mirrors.stats.get("blocks_synced"))
        add("mux.reads_from_mirror", mux.stats.get("reads_from_mirror"))
        add("mux.read", mux.stats.get("read"))
    add("policy.orders", rig.orders)
    cluster = getattr(rig, "cluster", None)
    if cluster is not None:
        add("cluster.cross_shard_renames", cluster.stats.get("cross_shard_renames"))
        add("cluster.subtrees_moved", cluster.stats.get("subtrees_moved"))
        for shard in cluster.shards:
            add("nfs.bytes_on_wire", shard.wire.stats.get("bytes_on_wire"))
    return c


def channels(rig) -> Dict[str, int]:
    """Device channels per tier, summed over shards (for utilisation)."""
    out = {tier: 0 for tier in TIERS}
    for stack in rig.stacks:
        for tier, dev in stack.devices.items():
            out[tier] += dev.timeline.nchannels
    return out


def fingerprint(rig) -> Dict[str, object]:
    """Simulated fingerprint: final clock plus every device's statistics."""
    devices = {}
    for index, stack in enumerate(rig.stacks):
        for tier, dev in sorted(stack.devices.items()):
            devices[f"s{index}.{tier}"] = dev.stats.snapshot()
    return {"now_ns": rig.clock.now_ns, "devices": devices}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run, traced_cpu_us_per_op: float, untraced_cpu_us_per_op: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    A measure that does not apply to the workload (a cache that is off, a
    tier the stack does not have) is 0, not missing.
    """
    c = run.counters
    ops = run.attempted
    kops = ops / 1000.0
    user = run.user_bytes_written
    sim_ns = sum(p.makespan_ns for p in run.phases)
    totals = run.trace.layer_totals()
    host_total = sum(t.host_self_ns for t in totals.values())
    sim_total = sum(
        t.sim_self_ns for layer, t in totals.items() if layer not in BACKGROUND_LAYERS
    )
    out: Dict[str, float] = {}
    for layer in LAYERS:
        t = totals[layer]
        out[f"{layer}.calls_per_op"] = t.calls / ops
        out[f"{layer}.host_self_us_per_op"] = t.host_self_ns / 1000.0 / ops
        out[f"{layer}.host_self_share"] = _ratio(t.host_self_ns, host_total)
        if layer not in BACKGROUND_LAYERS:
            out[f"{layer}.sim_self_us_per_op"] = t.sim_self_ns / 1000.0 / ops
    out["core.mux.sim_overhead_share"] = _ratio(totals["core.mux"].sim_self_ns, sim_total)
    out["core.ring.late_submit_share"] = sum(p.late_submits for p in run.phases) / ops
    out["core.ring.max_inflight"] = float(run.ring_max_inflight)
    out["core.cache.hit_ratio"] = _ratio(c["cache.hit"], c["cache.hit"] + c["cache.miss"])
    out["core.cache.write_hit_ratio"] = _ratio(c["cache.write_hit"] * 4096, user)
    out["core.cache.destaged_blocks_per_kop"] = c["cache.destaged_blocks"] / kops
    out["fscommon.pagecache.hit_ratio"] = _ratio(
        c["pagecache.hit"], c["pagecache.hit"] + c["pagecache.miss"]
    )
    out["fscommon.journal.commits_per_kop"] = c["journal.commits"] / kops
    out["fscommon.journal.bytes_per_user_byte"] = _ratio(c["journal.blocks"] * 4096, user)
    out["core.migration.blocks_moved_per_kop"] = c["migration.blocks_moved"] / kops
    out["core.migration.abort_ratio"] = _ratio(
        c["migration.conflicts"], c["migration.occ_attempts"]
    )
    out["core.mirror.read_share"] = _ratio(c["mux.reads_from_mirror"], c["mux.read"])
    out["core.mirror.blocks_synced_per_kop"] = c["mirror.blocks_synced"] / kops
    out["core.policy.orders_per_kop"] = c["policy.orders"] / kops
    lanes = run.channels
    for tier in TIERS:
        d = f"dev.{tier}."
        ios = c[d + "read_ops"] + c[d + "write_ops"] + c[d + "flush_ops"]
        out[f"devices.{tier}.ios_per_op"] = ios / ops
        out[f"devices.{tier}.bytes_per_user_byte"] = _ratio(
            c[d + "bytes_read"] + c[d + "bytes_written"], user
        )
        out[f"devices.{tier}.utilisation"] = _ratio(c[d + "busy_ns"], sim_ns * lanes[tier])
        out[f"devices.{tier}.queue_wait_share"] = _ratio(
            c[d + "wait_ns"], c[d + "wait_ns"] + c[d + "busy_ns"]
        )
        out[f"devices.{tier}.flushes_per_kop"] = c[d + "flush_ops"] / kops
        out[f"devices.{tier}.bg_io_share"] = _ratio(
            c[d + "bg_ops"], c[d + "bg_ops"] + c[d + "fg_ops"]
        )
    out["devices.hdd.seeks_per_kop"] = c["dev.hdd.seeks"] / kops
    out["cluster.cross_shard_op_share"] = c["cluster.cross_shard_renames"] / ops
    out["cluster.subtrees_moved"] = float(c["cluster.subtrees_moved"])
    out["fs.nfs.wire_bytes_per_user_byte"] = _ratio(c["nfs.bytes_on_wire"], user)
    out["tracing.overhead_pct"] = (
        (traced_cpu_us_per_op / untraced_cpu_us_per_op - 1.0) * 100.0
        if untraced_cpu_us_per_op
        else 0.0
    )
    assert list(out) == [m.name for m in per_layer_metrics()]
    return out
