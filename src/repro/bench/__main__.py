"""CLI entry point: ``python -m repro.bench`` reruns every paper experiment
and prints the paper-vs-measured tables recorded in EXPERIMENTS.md.

Subcommands: ``wallclock`` (host-CPU trajectory harness + ``--smoke`` CI
drift guard), ``profile`` (cProfile hotspot report for any registered
wall-clock workload), ``trace`` (run a mixed workload under fault
injection, print per-migration retry/backoff telemetry and the cache,
engine, scheduler and device counters) and ``crashexplore`` (enumerate every sync point of the
canonical workload, crash at each one, verify recovery; ``--smoke``
explores a strided subset for CI)."""

from __future__ import annotations

import sys

from repro.bench.experiments import run_all


def main() -> int:
    argv = sys.argv[1:]
    if argv and argv[0] == "wallclock":
        from repro.bench.wallclock import main as wallclock_main

        return wallclock_main(argv[1:])
    if argv and argv[0] == "profile":
        from repro.bench.profile import main as profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.bench.trace import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "crashexplore":
        from repro.tools.crashexplore import main as crashexplore_main

        return crashexplore_main(argv[1:])
    fast = "--fast" in argv
    print(run_all(fast=fast))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
