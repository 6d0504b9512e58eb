#!/usr/bin/env python3
"""Sample muxbench's timed window: host self time per module, in µs/op.

    PYTHONPATH=src python tests/tools/sample_muxbench.py <workload>
        [--seconds S] [--seed N] [--top N] [--repeat N]

``python -m repro.bench profile`` only knows the wall-clock harness's
workloads, and samples the whole run.  This script builds, populates and warms one muxbench
workload exactly as ``muxbench.measure.run_once`` does (one set-up, no
tracer), then runs each timed phase's ``rig.run_phase`` under
:class:`~repro.bench.profile.SamplingProfiler`: set-up, warm-up and the
between-phase ``settle`` are not sampled.  It prints self time for the
thin layer (``core.*`` + ``sim.clock``) against the file systems under it
(``fs.*`` + ``fscommon.*``) and their ratio (ROADMAP item 1(b)), per
module (``core.mux``, ``fs.nova.fs`` …) and for the top functions, in
host CPU µs per timed op.  ``muxbench/``
is only imported.

On a noisy host one window is not a measurement: ``--repeat N`` runs N
fresh set-ups of the same seed, prints each window's host CPU µs/op with
their min and median, and reports the samples of all N pooled.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from muxbench.workloads import BY_NAME  # noqa: E402
from repro.bench.profile import SamplingProfiler  # noqa: E402


def module_of(label: str) -> str:
    """``core.mux`` for ``repro.core.mux:MuxFileSystem.read``; other files
    keep their file name (``drivers``, ``<string>``)."""
    module = label.split(":", 1)[0]
    return module[len("repro."):] if module.startswith("repro.") else module


def sample(name: str, seconds: float, seed: int, sampler: SamplingProfiler) -> tuple:
    """Set up once and run the timed window under ``sampler`` (which keeps
    counting across calls); returns ``(timed ops, host CPU seconds)``."""
    workload = BY_NAME[name]
    plan = workload.plan(workload, seed, workload.phase_ops(seconds, False), False)
    rig = workload.build(workload, plan, False)
    rig.populate(plan)
    rig.warm(plan)
    gc.collect()
    cpu_s = 0.0
    for index, phase in enumerate(plan.phases):
        with sampler:
            t0 = time.process_time()
            rig.run_phase(phase, lambda _: None)
            cpu_s += time.process_time() - t0
        rig.settle(index)
    return sum(len(p.ops) for p in plan.phases), cpu_s


#: ROADMAP 1(b)'s comparison: the thin layer against the file systems under it
GROUPS = (
    ("core.* + sim.clock", ("core.", "sim.clock")),
    ("fs.* + fscommon.*", ("fs.", "fscommon.")),
)


def report(sampler: SamplingProfiler, ops: int, cpu_s: float, top_n: int) -> str:
    """Self time in µs/op: each share of the samples times the window's
    measured CPU per op (the timer's real period can be coarser than
    ``SAMPLE_INTERVAL_S`` — the kernel tick — so counts are only shares)."""
    per_module: Counter = Counter()
    per_function: Counter = Counter()
    for key, n in sampler.self_time.items():
        label = sampler.label(key)
        per_module[module_of(label)] += n
        per_function[label] += n
    total = sampler.samples or 1
    us_per_sample = cpu_s * 1e6 / ops / total

    def row(n: int, label: str) -> str:
        return f"  {n * us_per_sample:8.2f}  {100 * n / total:5.1f} %  {label}"

    lines = [
        f"{sampler.samples} samples over {ops} timed ops, "
        f"{cpu_s * 1e6 / ops:.2f} host CPU µs/op",
        "self time by layer group (µs/op, share):",
    ]
    group = []
    for title, prefixes in GROUPS:
        n = sum(c for m, c in per_module.items() if m.startswith(prefixes))
        group.append(n)
        lines.append(row(n, title))
    ratio = f"{group[0] / group[1]:.2f}x" if group[1] else "n/a"
    lines.append(f"ratio: {GROUPS[0][0]} / {GROUPS[1][0]} = {ratio}")
    lines.append("self time by module (µs/op, share):")
    lines.extend(row(n, module) for module, n in per_module.most_common())
    lines.append(f"top {top_n} functions by self time (µs/op, share):")
    lines.extend(row(n, label) for label, n in per_function.most_common(top_n))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(BY_NAME))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sampler = SamplingProfiler()
    runs = [
        sample(args.workload, args.seconds, args.seed, sampler)
        for _ in range(args.repeat)
    ]
    if args.repeat > 1:
        per_op = [cpu_s * 1e6 / ops for ops, cpu_s in runs]
        for index, us in enumerate(per_op, 1):
            print(f"run {index}: {us:.2f} host CPU µs/op")
        print(
            f"min {min(per_op):.2f}, median {statistics.median(per_op):.2f} "
            f"host CPU µs/op over {args.repeat} runs; samples below are pooled"
        )
    ops = sum(n for n, _ in runs)
    print(report(sampler, ops, sum(cpu_s for _, cpu_s in runs), args.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
