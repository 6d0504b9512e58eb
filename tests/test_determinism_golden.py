"""Golden determinism tests for the batched (run-level) data path.

The PR-1 span batching rewired *how bytes move* (one device access per
run, one copy into the output buffer) but must not change *what the
timing model charges*.  These tests pin complete simulated fingerprints
— final ``clock.now_ns``, per-device :class:`DeviceStats` snapshots and
SCM-cache hit/miss counters — of two fixed workloads to golden values
recorded when the scalar per-block path was still in place.

The numbers are simulated, so they are machine-independent: any diff
here means a data-path change altered the timing model (or charge
order/granularity) and is a regression, not noise.  If a PR changes the
timing model *on purpose*, regenerate the goldens and say so in the
commit message.
"""

from repro.bench.harness import build_strata
from repro.bench.macro import fileserver
from repro.core.policy import MigrationOrder
from repro.stack import build_stack

# Regenerated for the parallel I/O engine: split reads/writes/fsyncs now
# overlap across tiers, so only now_ns moved (39077547 -> 38739094); every
# per-device counter and the cache counters are bit-identical, confirming
# the engine changed time accounting, not the op sequence.  Regenerated
# again when SCM cache fills moved behind the read (a miss returns when the
# tier answers, the fill lands on background time): now_ns 38739094 ->
# 38698112, every device and cache counter unchanged.  Regenerated when
# the metafile moved to DAX appends on its PM home: only PM moved.  Its
# four appends read 3 fewer blocks (none copies its block on write) and
# make 15 stores, not 12 (records and header apart, plus 3 per growth
# write into each of the log's two blocks, against 3 per copy-on-write
# append); 7,408 fewer bytes written; now_ns 38698112 -> 38689365.  HDD,
# SSD and cache counters unchanged.
MUX_GOLDEN = {
    "now_ns": 38689365,
    "devices": {
        "hdd": {
            "read_ops": 0,
            "write_ops": 7,
            "flush_ops": 0,
            "bytes_read": 0,
            "bytes_written": 548864,
            "busy_ns": 32670181,
            "seeks": 5,
        },
        "pm": {
            "read_ops": 840,
            "write_ops": 472,
            "flush_ops": 651,
            "bytes_read": 3440640,
            "bytes_written": 18423352,
            "busy_ns": 5484549,
            "seeks": 0,
        },
        "ssd": {
            "read_ops": 0,
            "write_ops": 6,
            "flush_ops": 2,
            "bytes_read": 0,
            "bytes_written": 282624,
            "busy_ns": 236640,
            "seeks": 0,
        },
    },
    "cache": {"hit": 427, "miss": 194},
}

STRATA_GOLDEN = {
    "now_ns": 3981980,
    "devices": {
        "hdd": {
            "read_ops": 0,
            "write_ops": 0,
            "flush_ops": 0,
            "bytes_read": 0,
            "bytes_written": 0,
            "busy_ns": 0,
            "seeks": 0,
        },
        "pm": {
            "read_ops": 272,
            "write_ops": 2213,
            "flush_ops": 2683,
            "bytes_read": 1114112,
            "bytes_written": 7028288,
            "busy_ns": 2264080,
            "seeks": 0,
        },
        "ssd": {
            "read_ops": 0,
            "write_ops": 0,
            "flush_ops": 0,
            "bytes_read": 0,
            "bytes_written": 0,
            "busy_ns": 0,
            "seeks": 0,
        },
    },
}


def run_mux_workload() -> dict:
    """Fixed mux workload: patterned writes, migration to the slow tiers,
    cached re-reads (miss then hit), an unaligned overwrite (cache
    invalidation), truncate and fsync."""
    stack = build_stack()
    mux = stack.mux
    mux.mkdir("/g")
    h = mux.create("/g/a")
    blob = bytes(range(256)) * 64  # 16 KiB pattern
    for i in range(64):  # 1 MiB file
        mux.write(h, i * 16384, blob)
    # push the body to the slow tiers so reads split across sub-requests
    # and the SCM cache engages (hdd/ssd are cacheable, pm is not)
    mux.engine.migrate_now(
        MigrationOrder(h.ino, 0, 128, stack.tier_id("pm"), stack.tier_id("hdd"))
    )
    mux.engine.migrate_now(
        MigrationOrder(h.ino, 128, 64, stack.tier_id("pm"), stack.tier_id("ssd"))
    )
    for _ in range(3):  # re-reads: cache misses, then hit runs
        mux.read(h, 0, 64 * 16384)
    mux.write(h, 5000, b"x" * 123456)  # unaligned overwrite: invalidations
    mux.read(h, 4096, 300000)
    mux.truncate(h, 700000)
    mux.fsync(h)
    mux.close(h)
    return {
        "now_ns": stack.clock.now_ns,
        "devices": {
            name: dev.stats.snapshot() for name, dev in sorted(stack.devices.items())
        },
        "cache": {
            "hit": stack.mux.cache.stats.get("hit"),
            "miss": stack.mux.cache.stats.get("miss"),
        },
    }


def run_strata_workload() -> dict:
    """Fixed Strata stack workload: a small deterministic fileserver mix."""
    strata = build_strata()
    fileserver(strata.fs, strata.clock, files=4, operations=60)
    return {
        "now_ns": strata.clock.now_ns,
        "devices": {
            name: dev.stats.snapshot() for name, dev in sorted(strata.devices.items())
        },
    }


class TestGoldenFingerprints:
    def test_mux_stack_matches_golden(self):
        observed = run_mux_workload()
        assert observed["now_ns"] == MUX_GOLDEN["now_ns"]
        assert observed["devices"] == MUX_GOLDEN["devices"]
        assert observed["cache"] == MUX_GOLDEN["cache"]

    def test_strata_stack_matches_golden(self):
        observed = run_strata_workload()
        assert observed["now_ns"] == STRATA_GOLDEN["now_ns"]
        assert observed["devices"] == STRATA_GOLDEN["devices"]

    def test_mux_workload_repeatable(self):
        assert run_mux_workload() == run_mux_workload()
