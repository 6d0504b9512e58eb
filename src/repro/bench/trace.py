"""``python -m repro.bench trace``: counters dump for one mixed workload.

Runs a seeded mixed workload against a (optionally fault-injected) Mux
stack, drives migrations through ``migrate_now``, and prints the
retry/backoff telemetry each migration accumulated, followed by the
cache, engine, scheduler and device counters and the per-tier pressure
gauges the run left behind.  ``--cluster`` prints per-shard and
rebalance counters for a two-shard cluster instead.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.bench.harness import pop_flag_value, reject_unknown

USAGE = (
    "usage: python -m repro.bench trace [--no-faults] [--write-back] "
    "[--readahead-bg] [--cluster] [--ops N] [--seed N]"
)
_SWITCHES = ("--no-faults", "--write-back", "--readahead-bg", "--cluster")


def _run_mixed(
    ops: int,
    seed: int,
    faulty: bool,
    write_back: bool = False,
    readahead_bg: bool = False,
):
    from repro.bench.workloads import metadata_churn, metadata_tree
    from repro.core.policy import MigrationOrder
    from repro.devices.faults import FaultConfig
    from repro.stack import build_stack

    faults = None
    if faulty:
        faults = {
            "ssd": FaultConfig(
                read_error_p=0.05, write_error_p=0.25, transient_fraction=1.0
            )
        }
    stack = build_stack(
        faults=faults,
        fault_seed=seed,
        cache_write_back=write_back,
        readahead_background=readahead_bg,
    )
    mux = stack.mux
    mux.mkdir("/t")
    blob = b"\xa5" * 65536
    handles = []
    for i in range(6):
        handle = mux.create(f"/t/f{i}")
        mux.write(handle, 0, blob)
        handles.append(handle)
    live = metadata_tree(mux, files=40)
    metadata_churn(mux, stack.clock, files=40, operations=ops, live=live)
    blocks = len(blob) // mux.block_size
    pm, ssd = stack.tier_ids["pm"], stack.tier_ids["ssd"]
    migrations = []
    for i, handle in enumerate(handles):
        result = mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, blocks, pm, ssd, reason="trace")
        )
        migrations.append((f"/t/f{i}", result))
    for handle in handles:
        # read the migrated blocks back (fills the SCM cache), then
        # overwrite a slice — with --write-back those writes are absorbed
        # in place and the close destages them in coalesced runs
        mux.read(handle, 0, len(blob))
        mux.write(handle, 0, b"\x5a" * 8192)
        mux.close(handle)
    if readahead_bg:
        # sequential single-block scan of an SSD-resident file: the demand
        # block stays on foreground time while the speculative tail
        # prefetches on background channels (readahead_bg_blocks)
        scan = mux.create("/t/scan")
        scan_bytes = 4 * len(blob)
        mux.write(scan, 0, b"\xc3" * scan_bytes)
        scan_blocks = scan_bytes // mux.block_size
        result = mux.engine.migrate_now(
            MigrationOrder(scan.ino, 0, scan_blocks, pm, ssd, reason="trace")
        )
        migrations.append(("/t/scan", result))
        stack.drop_page_caches()
        bs = mux.block_size
        for block in range(scan_blocks):
            mux.read(scan, block * bs, bs)
        mux.close(scan)
    return stack, migrations


def _cluster_report(ops: int, seed: int) -> int:
    """``trace --cluster``: per-shard queue/backlog/ops + rebalance counters."""
    from repro.bench.multi_tenant import TenantSpec
    from repro.cluster.bench import run_cluster_load
    from repro.cluster.cluster import build_cluster

    cluster = build_cluster(shards=2).mux
    specs = [
        TenantSpec(
            name=f"t{i}",
            mean_interarrival_ns=30_000,
            files=4,
            file_bytes=256 * 1024,
            read_fraction=0.7,
        )
        for i in range(4)
    ]
    duration = max(1_000_000, ops * 30_000)
    result = run_cluster_load(
        cluster, specs, duration_ns=duration, ring_depth=8, seed=seed
    )
    print(
        f"cluster: shards={len(cluster.shards)} "
        f"ops={result.completed_ops} makespan={result.makespan_ns / 1e9:.6f} sim-s"
    )
    for row in cluster.shard_report():
        print(
            f"  shard s{row['shard']}: ops={row['ops']} queued={row['queued']} "
            f"backlog={row['backlog']} load={row['load']} "
            f"wire_rpcs={row['wire_rpcs']} wire_bytes={row['wire_bytes']}"
        )
    moved = cluster.rebalance(max_moves=2, imbalance=1.0)
    counters = cluster.rebalance_counters()
    fields = " ".join(f"{k}={v}" for k, v in counters.items())
    print(f"rebalance: moves={moved['moves']} {fields}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ops = int(pop_flag_value(argv, "--ops", USAGE) or 600)
        seed = int(pop_flag_value(argv, "--seed", USAGE) or 2025)
    except ValueError as exc:
        print(f"{exc}; {USAGE}", file=sys.stderr)
        return 2
    reject_unknown(argv, _SWITCHES, USAGE)
    faulty = "--no-faults" not in argv
    write_back = "--write-back" in argv
    readahead_bg = "--readahead-bg" in argv
    if "--cluster" in argv:
        return _cluster_report(ops, seed)

    stack, migrations = _run_mixed(ops, seed, faulty, write_back, readahead_bg)
    if stack.mux.cache is not None:
        counters = stack.mux.cache.cache_counters()
        print(
            "cache: "
            f"hit={counters.get('hit', 0)} miss={counters.get('miss', 0)} "
            f"evict={counters.get('evict', 0)} "
            f"write_hit={counters.get('write_hit', 0)} "
            f"destage_runs={counters.get('destage_runs', 0)} "
            f"destaged_blocks={counters.get('destaged_blocks', 0)} "
            f"dirty_blocks={counters.get('dirty_blocks', 0)} "
            f"destage_lost={counters.get('destage_lost', 0)}"
        )

    label = "faulty ssd" if faulty else "no faults"
    print(f"migrations ({label}):")
    for path, result in migrations:
        print(
            f"  {path}: moved={result.moved_blocks} retries={result.retries} "
            f"backoff_ns={result.backoff_ns} gave_up={result.gave_up}"
        )
    engine = stack.mux.engine.stats
    print(
        f"engine totals: migrations={engine.get('migrations')} "
        f"retries={engine.get('retries')} backoff_ns={engine.get('backoff_ns')} "
        f"gave_up={engine.get('gave_up')}"
    )
    mirrors = stack.mux.mirrors.stats
    print(
        "fairness: "
        f"wb_deadline_destages={stack.mux.stats.get('wb_deadline_destages')} "
        f"mirror_defer_ticks={mirrors.get('defer_ticks')} "
        f"mirror_deadline_promotions={mirrors.get('deadline_promotions')} "
        f"mirror_blocks_synced={mirrors.get('blocks_synced')}"
    )

    sched = stack.mux.scheduler.snapshot()
    tiers = ", ".join(
        f"t{tid}:{n}" for tid, n in sched["tier_dispatches"].items()
    )
    print(
        f"scheduler: dispatches={sched['dispatches']} merges={sched['merges']} "
        f"batches={sched['batches']} per-tier=[{tiers}]"
    )
    now_ns = stack.clock.now_ns
    for name, device in sorted(stack.devices.items()):
        tl = device.timeline.snapshot()
        print(
            f"device {name}: channels={tl['channels']} fg_ops={tl['fg_ops']} "
            f"bg_ops={tl['bg_ops']} max_queued={tl['max_queued']} "
            f"wait_ns={tl['wait_ns']} "
            f"util={device.timeline.utilization(now_ns):.4f}"
        )
    ra_blocks = {
        name: fs.readahead_bg_blocks
        for name, fs in sorted(stack.filesystems.items())
        if getattr(fs, "readahead_bg_blocks", 0)
    }
    if readahead_bg or ra_blocks:
        per_fs = ", ".join(f"{n}:{v}" for n, v in ra_blocks.items()) or "none"
        print(
            f"readahead: bg_blocks={sum(ra_blocks.values())} per-fs=[{per_fs}]"
        )
    monitor = stack.mux.pressure
    monitor.sample(now_ns, force=True)
    names = {tid: name for name, tid in stack.tier_ids.items()}
    print("pressure:")
    for tier_id, gauges in monitor.snapshot().items():
        fields = " ".join(f"{k}={v}" for k, v in gauges.items())
        print(f"  tier {names.get(tier_id, tier_id)}: {fields}")

    return 0
