"""``python -m repro.bench trace``: counters dump for one mixed workload.

Runs a seeded mixed workload against a fault-injected Mux stack with the
write-back SCM cache and background readahead on, drives migrations
through ``migrate_now``, and prints the retry/backoff telemetry each
migration accumulated, followed by the cache, engine, scheduler, device
and readahead counters and the per-tier pressure gauges the run left
behind; then per-shard and rebalance counters for a two-shard cluster.
``--no-faults`` runs the mixed workload without fault injection.
"""

from __future__ import annotations

from typing import List

from repro.bench.harness import reject_unknown

USAGE = "usage: python -m repro.bench trace [--no-faults]"
#: metadata-churn operations of the mixed workload
OPS = 600


def _run_mixed(faulty: bool):
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
        faults=faults, cache_write_back=True, readahead_background=True
    )
    mux = stack.mux
    mux.mkdir("/t")
    blob = b"\xa5" * 65536
    handles = []
    for i in range(6):
        handle = mux.create(f"/t/f{i}")
        mux.write(handle, 0, blob)
        handles.append(handle)
    metadata_churn(mux, stack.clock, metadata_tree(mux, 40, ""), OPS, "")
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
        # overwrite a slice — the write-back cache absorbs those writes in
        # place and the close destages them in coalesced runs
        mux.read(handle, 0, len(blob))
        mux.write(handle, 0, b"\x5a" * 8192)
        mux.close(handle)
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


def _cluster_report() -> None:
    """Per-shard queue/backlog/ops + rebalance counters of a two-shard cluster."""
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
    result = run_cluster_load(cluster, specs, OPS * 30_000, None)
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


def main(argv: List[str]) -> int:
    reject_unknown(argv, ("--no-faults",), USAGE)
    faulty = "--no-faults" not in argv

    stack, migrations = _run_mixed(faulty)
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
    cache = stack.mux.cache
    print(
        f"cache slots: backed={cache.backed_blocks} cap={cache.capacity_blocks} "
        f"shrunk={counters.get('shrunk', 0)}"
    )
    print(
        f"cache fills: filled={counters.get('fill', 0)} "
        f"refused={counters.get('refused', 0)} "
        f"hits_per_fill={cache.hits_per_fill():.2f}"
    )
    mirrors = stack.mux.mirrors
    print(
        f"mirror reads: synced_blocks={mirrors.stats.get('blocks_synced')} "
        f"served_blocks={mirrors.stats.get('blocks_served')} "
        f"reads_per_synced_block={mirrors.reads_per_synced_block():.2f}"
    )
    meta = stack.mux.meta.stats
    dax = meta.get("dax_flushes")
    print(
        f"metafile: records={meta.get('records')} dax_appends={dax} "
        f"write_appends={meta.get('flushes') - dax} "
        f"growth_writes={meta.get('growth_writes')} bytes={meta.get('bytes')}"
    )
    written = stack.mux.pm_bytes_by_cause()
    print("pm bytes written: " + " ".join(f"{k}={v}" for k, v in written.items()))

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
        timeline = device.timeline
        tl = timeline.snapshot()
        print(
            f"device {name}: channels={tl['channels']} fg_ops={tl['fg_ops']} "
            f"bg_ops={tl['bg_ops']} max_queued={tl['max_queued']} "
            f"wait_ns={tl['wait_ns']} fg_wait_ns={timeline.fg_wait_ns} "
            f"bg_wait_ns={timeline.bg_wait_ns} "
            f"util={timeline.utilization(now_ns):.4f}"
        )
    ra_blocks = {
        name: fs.readahead_bg_blocks
        for name, fs in sorted(stack.filesystems.items())
        if getattr(fs, "readahead_bg_blocks", 0)
    }
    per_fs = ", ".join(f"{n}:{v}" for n, v in ra_blocks.items()) or "none"
    print(f"readahead: bg_blocks={sum(ra_blocks.values())} per-fs=[{per_fs}]")
    print("page caches:")
    for name, fs in sorted(stack.filesystems.items()):
        page_cache = getattr(fs, "page_cache", None)
        if page_cache is not None:
            pc = page_cache.stats
            print(
                f"  {name}: hit={pc.get('hit')} miss={pc.get('miss')} "
                f"evict={pc.get('evict')} evict_dirty={pc.get('evict_dirty')} "
                f"wb_runs={pc.get('wb_runs')} wb_blocks={pc.get('wb_blocks')}"
            )
    monitor = stack.mux.pressure
    monitor.sample(now_ns, force=True)
    names = {tid: name for name, tid in stack.tier_ids.items()}
    print("pressure:")
    for tier_id, gauges in monitor.snapshot().items():
        fields = " ".join(f"{k}={v}" for k, v in gauges.items())
        print(f"  tier {names.get(tier_id, tier_id)}: {fields}")

    _cluster_report()
    return 0
