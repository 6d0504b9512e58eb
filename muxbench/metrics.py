"""Metric names, units, directions and regression bounds.

``BENCHMARK.json`` at the repo root carries the same table for the
driver; ``tests/test_muxbench_contract.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import List, NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: share of the parent's median by which the metric may worsen
    bound: float
    #: simulated-clock metrics repeat exactly for one seed
    exact: bool
    #: listed in BENCHMARK.json ``end_to_end`` (steady across seeds, always
    #: a number); the others are printed and recorded but not gated, because
    #: across seeds a per-class tail percentile moves more than any bound
    gate: bool = True


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25, False),
    Metric("host_ops_per_s", "1/s", "higher", 0.25, False),
    Metric("host_cpu_us_per_op", "us", "lower", 0.25, False),
    Metric("host_peak_rss_mib", "MiB", "lower", 0.25, False),
    Metric("sim_ops_per_s", "1/sim_s", "higher", 0.10, True),
    Metric("sim_rate_ok_kops", "kops/sim_s", "higher", 0.10, True),
    Metric("sim_lat_mean_us", "sim_us", "lower", 0.25, True),
    Metric("sim_lat_p99_us", "sim_us", "lower", 0.25, True),
    Metric("ok_op_share", "ratio", "higher", 0.001, True),
    Metric("write_amp", "ratio", "lower", 0.15, True),
    Metric("sim_lat_p999_us", "sim_us", "lower", 0.0, True, False),
    Metric("sim_read_p50_us", "sim_us", "lower", 0.0, True, False),
    Metric("sim_read_p99_us", "sim_us", "lower", 0.0, True, False),
    Metric("sim_read_p999_us", "sim_us", "lower", 0.0, True, False),
    Metric("sim_write_p50_us", "sim_us", "lower", 0.0, True, False),
    Metric("sim_write_p99_us", "sim_us", "lower", 0.0, True, False),
    Metric("sim_fsync_p99_us", "sim_us", "lower", 0.0, True, False),
    Metric("sim_meta_p50_us", "sim_us", "lower", 0.0, True, False),
    Metric("sim_meta_p99_us", "sim_us", "lower", 0.0, True, False),
    Metric("failed_op_share", "ratio", "lower", 0.0, True, False),
]

GATED: List[Metric] = [m for m in END_TO_END if m.gate]

#: per-class latency metric -> (op class, percentile)
LATENCY_METRICS = {
    "sim_read_p50_us": ("read", 0.50),
    "sim_read_p99_us": ("read", 0.99),
    "sim_read_p999_us": ("read", 0.999),
    "sim_write_p50_us": ("write", 0.50),
    "sim_write_p99_us": ("write", 0.99),
    "sim_fsync_p99_us": ("fsync", 0.99),
    "sim_meta_p50_us": ("meta", 0.50),
    "sim_meta_p99_us": ("meta", 0.99),
}

#: the layers of the traced pass, in report order
LAYERS = (
    "vfs",
    "core.ring",
    "core.mux",
    "core.cache",
    "core.policy",
    "core.migration",
    "core.mirror",
    "fs.nova",
    "fs.xfs",
    "fs.ext4",
    "fscommon.pagecache",
    "fscommon.journal",
    "devices.pm",
    "devices.ssd",
    "devices.hdd",
    "cluster",
    "fs.nfs",
)

#: layers whose work runs on background clock frames; their simulated
#: cost is read from the devices' ``bg_ops``/``busy_ns`` instead
BACKGROUND_LAYERS = ("core.policy", "core.migration", "core.mirror")

TIERS = ("pm", "ssd", "hdd")


def per_layer_metrics() -> List[Metric]:
    """Every ``<layer>.<measure>`` name of the traced pass, with its unit."""
    out: List[Metric] = []

    def add(name: str, unit: str, better: str = "lower") -> None:
        out.append(Metric(name, unit, better, 0.0, False))

    for layer in LAYERS:
        add(f"{layer}.calls_per_op", "count")
        add(f"{layer}.host_self_us_per_op", "us")
        add(f"{layer}.host_self_share", "ratio")
        if layer not in BACKGROUND_LAYERS:
            add(f"{layer}.sim_self_us_per_op", "sim_us")
    add("core.mux.sim_overhead_share", "ratio")
    add("core.ring.late_submit_share", "ratio")
    add("core.ring.max_inflight", "count")
    add("core.cache.hit_ratio", "ratio", "higher")
    add("core.cache.write_hit_ratio", "ratio", "higher")
    add("core.cache.destaged_blocks_per_kop", "count")
    add("fscommon.pagecache.hit_ratio", "ratio", "higher")
    add("fscommon.journal.commits_per_kop", "count")
    add("fscommon.journal.bytes_per_user_byte", "ratio")
    add("core.migration.blocks_moved_per_kop", "count")
    add("core.migration.abort_ratio", "ratio")
    add("core.mirror.read_share", "ratio", "higher")
    add("core.mirror.blocks_synced_per_kop", "count")
    add("core.policy.orders_per_kop", "count")
    for tier in TIERS:
        add(f"devices.{tier}.ios_per_op", "count")
        add(f"devices.{tier}.bytes_per_user_byte", "ratio")
        add(f"devices.{tier}.utilisation", "ratio")
        add(f"devices.{tier}.queue_wait_share", "ratio")
        add(f"devices.{tier}.flushes_per_kop", "count")
        add(f"devices.{tier}.bg_io_share", "ratio")
    add("devices.hdd.seeks_per_kop", "count")
    add("cluster.cross_shard_op_share", "ratio")
    add("cluster.subtrees_moved", "count")
    add("fs.nfs.wire_bytes_per_user_byte", "ratio")
    add("tracing.overhead_pct", "%")
    return out
