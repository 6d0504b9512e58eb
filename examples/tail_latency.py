#!/usr/bin/env python3
"""Tail latency under background migration.

Mean throughput hides what tiered storage does to the *tail*.  We run the
same read workload twice — once quiescent, once while the policy runner
migrates cold data in the background — and compare p50/p99/max of the
simulated read latencies.  The OCC design's promise (§2.4) is
that migration stays off the critical path; the p99 shows by how much.

Run:  python examples/tail_latency.py
"""

from repro import build_stack
from repro.core.policy import MigrationOrder
from repro.sim.histogram import LatencyHistogram
from repro.sim.rng import DeterministicRng

MIB = 1024 * 1024
BS = 4096


def run_reads(mux, clock, handle, iterations, rng, migration_task=None):
    latencies = LatencyHistogram()
    size = mux.getattr(handle.path).size
    for i in range(iterations):
        offset = rng.randint(0, size - 64)
        started_ns = clock.now_ns
        mux.read(handle, offset, 64)
        latencies.record(clock.now_ns - started_ns)
        if migration_task is not None:
            migration_task.step()  # background migration makes progress
    return latencies.summary_us()


def show(label, summary):
    print(f"  {label:28s} p50 {summary['p50_us']:8.2f} us | "
          f"p99 {summary['p99_us']:8.2f} us | max {summary['max_us']:8.2f} us")


def main():
    stack = build_stack(capacities={"pm": 64 * MIB, "ssd": 128 * MIB, "hdd": 256 * MIB})
    mux = stack.mux
    handle = mux.create("/hot.bin")
    chunk = bytes(MIB)
    for off in range(0, 24 * MIB, MIB):
        mux.write(handle, off, chunk)
    print("24 MiB file on the PM tier; reading 64 B at random offsets\n")

    # --- quiescent baseline ----------------------------------------------
    quiet = run_reads(mux, stack.clock, handle, 3000, DeterministicRng(3))
    show("quiescent", quiet)

    # --- same reads while 16 MiB migrates pm -> ssd underneath -------------
    task = mux.engine.submit(
        MigrationOrder(handle.ino, 0, 16 * MIB // BS,
                       stack.tier_id("pm"), stack.tier_id("ssd"))
    )
    busy = run_reads(mux, stack.clock, handle, 3000, DeterministicRng(3), task)
    task.join()
    show("during 16 MiB OCC migration", busy)

    slowdown = busy["p99_us"] / quiet["p99_us"]
    print(f"\np99 inflation while migrating: {slowdown:.2f}x "
          f"(reads never block behind the movement; they just share the clock)")
    assert mux.read(handle, 0, 4) == chunk[:4]
    mux.close(handle)


if __name__ == "__main__":
    main()
