"""Every option earns its place: the knob census as a test.

A parameter with a default is an option someone must be able to reason
about.  It stays a parameter only when

* two callers that are not tests pass it different values ("two callers"),
* ROADMAP settles it ("settled"),
* it describes the deployment — a device, a network link, the shared
  simulated clock ("deployment"), or
* it is a signature ROADMAP fixes as behaviour or that muxbench calls —
  the ``FileSystem``/``VFS`` calls' ``mode``/``flags``/``out_off``,
  ``open_ring(depth)``, the ring's ``wait``/``inflight``/``quiesce``
  ("contract").

Anything else is a named constant or a parameter without a default: a
test that needs another value overrides the constant with ``monkeypatch``.
The census walks the AST of every ``def`` under ``src/repro`` — methods,
module functions and nested functions, ``bench/`` and ``tools/``
included — for every parameter with a default, and must equal
:data:`ALLOWED`, so a new knob anywhere fails here until someone
justifies it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: "module:Qualname.param" (``__init__`` dropped: ``Owner.param``) -> why it
#: is a parameter and not a constant
ALLOWED = {
    # -- constructors --------------------------------------------------
    "core/cache.py:ScmCacheManager.write_back":
        "two callers: the cache controller passes the stack's write-back flag, "
        "built both ways by the goldens",
    "core/metadata.py:CollectiveInode.blt":
        "two callers: files get a BLT from the stack's factory, directories none",
    "core/metadata.py:CollectiveInode.initial_tier":
        "two callers: files start on their placed tier, the root on none",
    "core/mux.py:MuxFileSystem.policy":
        "two callers: the wallclock duels build one stack per registered policy",
    "core/mux.py:MuxFileSystem.blt_factory": "settled: ByteArrayBlt stays",
    "core/mux.py:MuxFileSystem.enable_cache":
        "two callers: the cache ablation and the cache-less stacks",
    "core/mux.py:MuxFileSystem.cache_write_back":
        "two callers: the write-back golden and burst_write_fsync",
    "core/mux.py:MuxFileSystem.scheduler":
        "settled: IoScheduler(enabled=, parallel=) stays",
    "core/occ.py:OccSynchronizer.force_lock":
        "two callers: the OCC ablation runs with and without the lock",
    "core/policies.py:PinnedPolicy.tier_id":
        "two callers: the overhead benchmarks pin each tier in turn",
    "core/scheduler.py:IoScheduler.enabled": "settled: the scheduler ablation",
    "core/scheduler.py:IoScheduler.parallel": "settled: the dispatch-model golden",
    "devices/base.py:DeviceTimeline.knee_depth":
        "deployment: the device profile's saturation knee",
    "devices/base.py:DeviceTimeline.knee_penalty":
        "deployment: the device profile's saturation knee",
    "devices/base.py:Device.block_size": "deployment: device geometry",
    "devices/cxl.py:CxlSsd.profile": "deployment: the device profile",
    "devices/cxl.py:CxlSsd.block_size": "deployment: device geometry",
    "devices/cxl.py:ArchivalDevice.profile": "deployment: the device profile",
    "devices/cxl.py:ArchivalDevice.block_size": "deployment: device geometry",
    "devices/hdd.py:HardDiskDrive.profile": "deployment: the device profile",
    "devices/hdd.py:HardDiskDrive.block_size": "deployment: device geometry",
    "devices/pm.py:PersistentMemoryDevice.profile": "deployment: the device profile",
    "devices/pm.py:PersistentMemoryDevice.block_size": "deployment: device geometry",
    "devices/ssd.py:SolidStateDrive.profile": "deployment: the device profile",
    "devices/ssd.py:SolidStateDrive.block_size": "deployment: device geometry",
    "errors.py:DeviceIoError.message": "two callers: every raise site says what failed",
    "errors.py:DeviceIoError.transient":
        "two callers: the fault injector raises transient and permanent errors",
    "errors.py:FsError.message": "two callers: every raise site says what failed",
    "fs/nfs.py:NetworkFileSystem.rtt_us": "deployment: the network link",
    "fs/nfs.py:NetworkFileSystem.bandwidth": "deployment: the network link",
    "fscommon/extents.py:ExtentTree.value_is_offset":
        "two callers: the native block map maps offsets, the BLT maps tiers",
    "sim/tasks.py:Task.name":
        "two callers: the runner names its tasks, the cluster's are anonymous",
    "sim/tasks.py:Task.clock":
        "two callers: the runner's tasks run on its clock, the cluster's on none",
    "sim/tasks.py:Task.background":
        "two callers: migrations run in the background, cluster copies do not",
    "sim/tasks.py:TaskRunner.clock": "deployment: the shared simulated clock",
    "strata/fs.py:StrataFileSystem.pin_target":
        "two callers: the overhead benchmarks pin Strata to each device",
    # -- composition roots ---------------------------------------------
    "stack.py:build_stack.tiers":
        "two callers: single-tier overhead stacks and HDD-only cluster shards",
    "stack.py:build_stack.capacities": "two callers: the paper runners size each tier",
    "stack.py:build_stack.policy":
        "two callers: the wallclock duels build one stack per registered policy",
    "stack.py:build_stack.enable_cache":
        "two callers: the cache ablation and the cache-less stacks",
    "stack.py:build_stack.cache_write_back":
        "two callers: the write-back golden and burst_write_fsync",
    "stack.py:build_stack.scheduler": "settled: IoScheduler(enabled=, parallel=) stays",
    "stack.py:build_stack.blt_factory": "settled: ByteArrayBlt stays",
    "stack.py:build_stack.clock": "two callers: cluster shards share one clock",
    "stack.py:build_stack.faults": "two callers: bench trace and the fault-storm golden",
    "stack.py:build_stack.profiles": "deployment: device profile overrides",
    "stack.py:build_stack.readahead_background": "settled: readahead_background stays",
    "stack.py:build_stack.pressure_interval_ns":
        "two callers: the pressure duel samples every 10 us, the rest every 20 us",
    "cluster/cluster.py:build_cluster.shards":
        "two callers: bench trace builds 2 shards, cluster_tenants 4",
    "cluster/cluster.py:build_cluster.clock": "deployment: the shared simulated clock",
    # -- the file-system interface: ROADMAP fixes these signatures -------
    **{
        f"{module}:{owner}.{call}": "contract: the FileSystem/VFS call signature"
        for module, owner in (
            ("vfs/interface.py", "FileSystem"),
            ("vfs/vfs.py", "VFS"),
            ("fscommon/basefs.py", "NativeFileSystem"),
            ("core/mux.py", "MuxFileSystem"),
            ("cluster/cluster.py", "ClusterMux"),
            ("fs/nfs.py", "NetworkFileSystem"),
        )
        for call in ("create.mode", "open.flags", "mkdir.mode", "read_into.out_off")
        if not (call == "read_into.out_off" and owner in ("MuxFileSystem", "NetworkFileSystem"))
    },
    "core/mux.py:MuxFileSystem.open_ring.depth": "contract: muxbench opens its rings",
    "cluster/cluster.py:ClusterMux.open_ring.depth": "contract: muxbench opens its rings",
    "core/ring.py:IoRing.inflight.ino": "contract: the ring's inflight(ino=None)",
    "core/ring.py:IoRing.wait.submission": "contract: the ring's wait(submission=None)",
    "core/ring.py:IoRing.quiesce.ino": "contract: the ring's quiesce(ino=None)",
    # -- methods ---------------------------------------------------------
    "cluster/cluster.py:ClusterMux.rebalance.imbalance":
        "two callers: bench trace forces a rebalance at 1.0, cluster_scaleout keeps 2.0",
    "core/bookkeeper.py:MuxMetaWriter.note.flush":
        "two callers: namespace changes flush at once, data records on the interval",
    "core/bookkeeper.py:MuxMetaWriter.flush.durable":
        "two callers: fsync writes the records without their own flush",
    "core/cachectl.py:CacheController.destage_blocks.defer_offline":
        "two callers: eviction and migration destage now, fsync/close/budget defer",
    "core/cachectl.py:CacheController.destage_blocks.background":
        "two callers: the write-back budget destages in the background",
    "core/cachectl.py:CacheController.destage_file.durable":
        "two callers: fsync's tier fsyncs follow the destage, close makes it durable",
    "core/cachectl.py:CacheController.destage_all.durable":
        "two callers: sync's tier syncs follow the destage, retire makes it durable",
    "core/cachectl.py:CacheController.destage_all.background":
        "two callers: the budget may destage in the background, sync does not",
    "core/metadata.py:CollectiveInode.stat.blocks":
        "two callers: directories have no blocks, files report their BLT's",
    "core/metadata.py:CollectiveInode.stat.stale_attrs":
        "two callers: getattr flags attributes whose affinitive tier is offline",
    "core/migration.py:MigrationEngine.submit.defer_while_hot":
        "two callers: maintain_async asks the policy, direct submits never defer",
    "core/mirror.py:MirrorEngine.drop_mirror.punch":
        "two callers: drop_tier forwards its punch, a policy drop punches",
    "core/mux.py:MuxFileSystem.add_tier.rank":
        "two callers: new_device_types ranks the CXL and archival tiers by hand",
    "core/mux.py:MuxFileSystem._fan_out.dispatch_ns":
        "two callers: writes pay the dispatch, fsync does not",
    "core/pressure.py:PressureMonitor.sample.force":
        "two callers: a burst forces a sample, the per-op path honours the interval",
    "core/tierfiles.py:TierFiles._call.args":
        "two callers: the tier door forwards each call's own arguments",
    "core/tierfiles.py:TierFiles._call.inode":
        "two callers: data calls carry the collective inode, namespace calls none",
    "core/tierfiles.py:TierFiles._call.create":
        "two callers: placed writes create the backing file, reads do not",
    "core/tierfiles.py:TierFiles._call.dispatch":
        "two callers: split requests charge the dispatch once per tier",
    "core/tierfiles.py:TierFiles.close.tier_id":
        "two callers: unlink closes one tier's handle, close every tier's",
    "core/tierfiles.py:TierFiles.read.create":
        "two callers: mirror syncs read into a backing file they may create",
    "core/tierfiles.py:TierFiles.read.dispatch":
        "two callers: split reads charge the dispatch once per tier",
    "core/tierfiles.py:TierFiles.write.dispatch":
        "two callers: split writes charge the dispatch once per tier",
    "devices/base.py:Device.read_blocks.count":
        "two callers: single-block metadata reads and extent reads",
    "devices/faults.py:FaultInjector.check_write.torn_units":
        "two callers: multi-block writes tear in units, single blocks do not",
    "devices/pm.py:PersistentMemoryDevice.flush_range.ops":
        "two callers: a run flush counts one op per store",
    "fs/nfs.py:NetworkFileSystem._rpc.payload_bytes":
        "two callers: data RPCs carry their bytes, metadata RPCs none",
    "fscommon/allocator.py:BitmapAllocator.alloc_extent.hint":
        "two callers: allocation groups pass their hint, the journaled FS none",
    "fscommon/allocator.py:BitmapAllocator.free_run.count":
        "two callers: single-block frees and extent frees",
    "fscommon/allocator.py:AllocationGroups.alloc_extent.hint":
        "two callers: XFS appends near the file's last block, new files start anywhere",
    "fscommon/allocator.py:AllocationGroups.free_run.count":
        "two callers: single-block frees and extent frees",
    "fscommon/journaledfs.py:Allocator.alloc_extent.hint":
        "two callers: the protocol of the two allocators above",
    "fscommon/journaledfs.py:Allocator.free_run.count":
        "two callers: the protocol of the two allocators above",
    "fscommon/basefs.py:NativeFileSystem._note_writeback_error.lost":
        "two callers: a dropped writeback names its lost runs, a kept one none",
    "sim/clock.py:SimClock.push_frame.start_ns":
        "two callers: the ring starts a frame at its submission, the rest now",
    "sim/clock.py:SimClock.push_frame.background":
        "two callers: migrations and destages run in background frames",
    "sim/stats.py:CounterSet.add.amount": "two callers: counters count ops and bytes",
    "sim/stats.py:DeviceStats.record_read.ops":
        "two callers: run reads count one op per block",
    "sim/stats.py:DeviceStats.record_write.ops":
        "two callers: run writes count one op per block",
    "sim/stats.py:DeviceStats.record_flush.ops":
        "two callers: run flushes count one op per store",
    "sim/tasks.py:TaskRunner.tick.gate":
        "two callers: the migration engine gates its ticks, drain does not",
    "tools/crashexplore.py:explore.verbose":
        "two callers: the CLI's --verbose and the wallclock crash-matrix guard",
    "tools/fsck.py:_check_directory_tree.walk.depth":
        "two callers: the walk recurses one level deeper",
    "vfs/interface.py:WritebackLedger.note.lost":
        "two callers: a dropped writeback names its lost runs, a kept one none",
    # -- the bench lane --------------------------------------------------
    "bench/harness.py:build_strata.capacities":
        "two callers: examples/macro_workloads sizes its tiers, the paper runners not",
    "bench/harness.py:build_strata.pin_target":
        "two callers: Fig. 3 pins Strata to each device, the macro runs do not",
    "bench/harness.py:build_pinned_mux.tiers":
        "two callers: the overhead runners build one tier, Fig. 3 all three",
    "bench/harness.py:build_pinned_mux.capacities":
        "two callers: the overhead runners size their one tier, Fig. 3 not",
    "bench/harness.py:build_pinned_mux.enable_cache":
        "two callers: Fig. 3 turns the SCM cache off, the overhead runners keep it",
    "bench/macro.py:fileserver.files":
        "two callers: examples run the default shape, the wallclock smoke a small one",
    "bench/macro.py:fileserver.operations":
        "two callers: examples run the default shape, the wallclock smoke a small one",
    "bench/macro.py:webserver.files":
        "two callers: examples run the default shape, the wallclock smoke a small one",
    "bench/macro.py:webserver.operations":
        "two callers: examples run the default shape, the wallclock smoke a small one",
    "bench/macro.py:varmail.operations":
        "two callers: examples run the default shape, the wallclock smoke a small one",
    "bench/multi_tenant.py:run_multi_tenant.population_tier":
        "two callers: the policy duel pins its population, the depth sweep not",
    "bench/multi_tenant.py:run_multi_tenant.maintain_every":
        "two callers: the policy duel maintains, the depth sweep freezes placement",
    "bench/multi_tenant.py:run_multi_tenant.durable_population":
        "two callers: the policy duel fsyncs its population, the depth sweep not",
    "bench/openloop.py:populate.reuse":
        "two callers: the cluster replays a population after a rebalance",
    "bench/openloop.py:settle.converge":
        "two callers: between phases plan once more, at a window's end only finish",
    "bench/tracereplay.py:replay_trace.warm_passes":
        "two callers: the mirror duel warms up, trace_replay does not",
    "bench/tracereplay.py:replay_trace.drop_page_caches":
        "two callers: the mirror duel drops the page caches, trace_replay does not",
    "bench/wallclock.py:_mux_fingerprint.extended":
        "two callers: cache_writeback pins the write-back counters too",
    "bench/wallclock.py:_result.events":
        "two callers: some workloads report events, most only a fingerprint",
    "bench/wallclock.py:_trace_duel.counters":
        "two callers: the mirror duel pins mirror counters, trace_replay none",
}

REASONS = ("two callers:", "settled:", "deployment:", "contract:")


def _defaulted(args: ast.arguments):
    positional = args.posonlyargs + args.args
    yield from positional[len(positional) - len(args.defaults):]
    yield from (a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _defs(node, owners=()):
    """``(qualname parts, def)`` of every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defs(child, owners + (child.name,))
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield owners + (child.name,), child
            yield from _defs(child, owners + (child.name,))
        else:
            yield from _defs(child, owners)


def census():
    """Every defaulted parameter of every ``def`` in the tree."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for parts, fn in _defs(ast.parse(path.read_text())):
            owner = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            found |= {f"{rel}:{owner}.{a.arg}" for a in _defaulted(fn.args)}
    return found


def test_census_equals_the_allow_list():
    found = census()
    assert sorted(found - set(ALLOWED)) == [], "new option: make it a constant or justify it"
    assert sorted(set(ALLOWED) - found) == [], "allow-list entry for a removed option"


def test_every_entry_names_its_justification():
    assert [k for k, why in ALLOWED.items() if not why.startswith(REASONS)] == []
