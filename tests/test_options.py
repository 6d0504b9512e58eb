"""Every option earns its place: the knob census as a test.

A constructor or builder parameter with a default is an option someone
must be able to reason about.  It stays a parameter only when

* two callers that are not tests pass it different values ("two callers"),
* ROADMAP settles it ("settled"), or
* it describes the deployment — a device, a network link, the shared
  simulated clock ("deployment").

Anything else is a named constant: a test that needs another value
overrides the class constant in a subclass or with ``monkeypatch``.  The
census walks the AST of ``src/repro`` (outside ``bench/`` and ``tools/``)
for every ``__init__`` parameter with a default, plus every parameter of
the ``build_*`` composition roots, and must equal :data:`ALLOWED` — so a
new knob fails here until someone justifies it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: "module:Owner.param" -> why it is a parameter and not a constant
ALLOWED = {
    # -- constructors --------------------------------------------------
    "cluster/cluster.py:ClusterRing.depth":
        "two callers: ring depth, one knob with IoRing's",
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
    "core/ring.py:IoRing.depth":
        "two callers: the multi-tenant golden opens rings at depth 1 and 8",
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
    "stack.py:build_stack.fault_seed": "two callers: bench trace passes its --seed",
    "stack.py:build_stack.profiles": "deployment: device profile overrides",
    "stack.py:build_stack.readahead_background": "settled: readahead_background stays",
    "stack.py:build_stack.pressure_interval_ns":
        "two callers: the pressure duel samples every 10 us, the rest every 20 us",
    "cluster/cluster.py:build_cluster.shards":
        "two callers: bench trace builds 2 shards, cluster_tenants 4",
    "cluster/cluster.py:build_cluster.clock": "deployment: the shared simulated clock",
}

REASONS = ("two callers:", "settled:", "deployment:")


def _defaulted(args: ast.arguments):
    positional = args.posonlyargs + args.args
    yield from positional[len(positional) - len(args.defaults):]
    yield from (a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def census():
    """Every defaulted ``__init__`` and ``build_*`` parameter in the tree."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(("bench/", "tools/")):
            continue
        tree = ast.parse(path.read_text())
        owners = [
            (cls.name, fn)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
        ]
        owners += [
            (fn.name, fn)
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("build_")
        ]
        for owner, fn in owners:
            found |= {f"{rel}:{owner}.{a.arg}" for a in _defaulted(fn.args)}
    return found


def test_census_equals_the_allow_list():
    found = census()
    assert sorted(found - set(ALLOWED)) == [], "new option: make it a constant or justify it"
    assert sorted(set(ALLOWED) - found) == [], "allow-list entry for a removed option"


def test_every_entry_names_its_justification():
    assert [k for k, why in ALLOWED.items() if not why.startswith(REASONS)] == []
