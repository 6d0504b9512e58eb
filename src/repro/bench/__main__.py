"""CLI entry point: ``python -m repro.bench`` reruns every paper experiment
and prints the paper-vs-measured tables recorded in EXPERIMENTS.md.

Subcommands: ``wallclock`` (the simulated goldens of 19 workloads;
``--smoke`` is the CI drift guard), ``profile`` (sampled host-CPU
hotspots of any registered wall-clock workload), ``trace`` (run a mixed
workload under fault injection, print per-migration retry/backoff
telemetry, every counter section and a two-shard cluster's) and
``crashexplore`` (enumerate every sync point of the canonical workload,
crash at each one, verify recovery; ``--smoke`` explores a strided
subset for CI).  Host time is measured by ``muxbench/run.py``."""

from __future__ import annotations

import sys
from importlib import import_module

from repro.bench.experiments import run_all
from repro.bench.harness import reject_unknown

#: subcommand -> the module whose ``main(argv)`` serves it
SUBCOMMANDS = {
    "wallclock": "repro.bench.wallclock",
    "profile": "repro.bench.profile",
    "trace": "repro.bench.trace",
    "crashexplore": "repro.tools.crashexplore",
}

USAGE = f"usage: python -m repro.bench [--fast] | {'|'.join(SUBCOMMANDS)} [options]"


def main() -> int:
    argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return import_module(SUBCOMMANDS[argv[0]]).main(argv[1:])
    reject_unknown(argv, ("--fast",), USAGE)
    print(run_all(fast="--fast" in argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
