"""Ablation (§3.1): Strata's log-then-digest write path vs NOVA's direct
DAX path on persistent memory.

The paper attributes Strata's PM deficit to exactly this: "Strata first
writes data to a log on persistent memory and then digests the log to
actual file blocks ... such logging is not necessary on persistent memory
devices", causing write amplification.
"""

from repro.bench import workloads
from repro.bench.harness import build_strata
from repro.bench.workloads import sequential_write
from repro.devices.pm import PersistentMemoryDevice
from repro.fs.nova import NovaFileSystem
from repro.sim.clock import SimClock

MIB = 1024 * 1024


def strata_pm_write() -> dict:
    stack = build_strata(pin_target="pm")
    pm = stack.devices["pm"]
    user_bytes = 16 * MIB
    before = pm.stats.bytes_written
    t0 = stack.clock.now_ns
    result = sequential_write(stack.fs, stack.clock, "/f", user_bytes)
    stack.fs.digest()  # land everything in its final PM home
    elapsed = (stack.clock.now_ns - t0) / 1e9
    return {
        "mb_s": (user_bytes / 1e6) / elapsed,
        "write_amp": (pm.stats.bytes_written - before) / user_bytes,
    }


def nova_pm_write() -> dict:
    clock = SimClock()
    pm = PersistentMemoryDevice("pm0", 64 * MIB, clock)
    nova = NovaFileSystem("nova", pm, clock)
    user_bytes = 16 * MIB
    before = pm.stats.bytes_written
    result = sequential_write(nova, clock, "/f", user_bytes)
    return {
        "mb_s": result.mb_per_s,
        "write_amp": (pm.stats.bytes_written - before) / user_bytes,
    }


def test_ablation_strata_log_write_amplification(benchmark, monkeypatch):
    # 1 MiB writes and no fsync until the end: the log, not the journal
    monkeypatch.setattr(workloads, "STREAM_IO_BYTES", MIB)
    monkeypatch.setattr(workloads, "SEQ_FSYNC_EVERY", 0)

    def run():
        return {"strata": strata_pm_write(), "nova": nova_pm_write()}

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        f"PM writes: NOVA {result['nova']['mb_s']:.0f} MB/s "
        f"(amp {result['nova']['write_amp']:.2f}x) vs "
        f"Strata {result['strata']['mb_s']:.0f} MB/s "
        f"(amp {result['strata']['write_amp']:.2f}x)"
    )
    for system, stats in result.items():
        benchmark.extra_info[f"{system}_mb_s"] = round(stats["mb_s"], 1)
        benchmark.extra_info[f"{system}_write_amp"] = round(stats["write_amp"], 2)

    # log-then-digest doubles PM traffic; NOVA stays near 1x (COW only)
    assert result["strata"]["write_amp"] > 1.8
    assert result["nova"]["write_amp"] < 1.3
    assert result["nova"]["mb_s"] > result["strata"]["mb_s"]
