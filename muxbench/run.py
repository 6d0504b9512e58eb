#!/usr/bin/env python3
"""muxbench command line.

    python3 muxbench/run.py [--workload W] [--seed N] [--seconds S]
                            [--trace [0|1]] [--repeat K] [--smoke] [--out FILE]

With ``--workload`` the run happens in this process and the last line of
standard output is the driver's JSON object (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Without it every
workload runs one after another, each in a fresh interpreter so that peak
RSS is per workload; ``--repeat K`` does that K times plus once on the
next seed and checks that the passes agree within each metric's bound.
The exit code is nonzero when any content check, fingerprint comparison
or repeat comparison fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.stderr.write(f"muxbench: no program to measure: {ROOT / 'src' / 'repro'} is missing\n")
    sys.exit(2)
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from muxbench import layers, measure, report  # noqa: E402
from muxbench.metrics import GATED, per_layer_metrics  # noqa: E402
from muxbench.tracer import Tracer  # noqa: E402
from muxbench.workloads import BY_NAME, WORKLOADS  # noqa: E402

OUT_DIR = HERE / "out"
#: the traced pass runs this share of the timed op counts, twice
TRACED_SHARE = 0.25


def run_untraced(workload, seed: int, seconds: float, smoke: bool) -> dict:
    run = measure.run_once(workload, seed, seconds, smoke)
    values = measure.end_to_end(run)
    print(report.end_to_end_table(run, values))
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "plan_digest": run.plan_digest,
        "fingerprint": run.fingerprint,
        "metrics": {
            name: {"value": v.value, "unit": v.unit, "n": v.n, "note": v.note}
            for name, v in values.items()
        },
    }


def run_traced(workload, seed: int, seconds: float, smoke: bool) -> dict:
    """Quarter-length run twice — untraced, then with the wrappers on — so
    the tracing overhead and the unperturbed fingerprint are both known."""
    plain = measure.run_once(
        workload, seed, seconds, smoke, setups=1, op_share=TRACED_SHARE
    )
    tracer = Tracer()
    traced = measure.run_once(
        workload, seed, seconds, smoke, setups=1, tracer=tracer, op_share=TRACED_SHARE
    )
    same = traced.fingerprint == plain.fingerprint
    values = layers.per_layer(
        traced,
        traced.cpu_s * 1e6 / traced.attempted,
        plain.cpu_s * 1e6 / plain.attempted,
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(
        OUT_DIR / f"{workload.name}.trace.json",
        {"workload": workload.name, "seed": seed, "ops": traced.attempted},
    )
    print(report.per_layer_table(traced, values, tracer, same))
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": 1,
        "correct": plain.correct and traced.correct and same and not tracer.sim_clamped,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "fingerprint_matches_untraced": same,
        "layers_missing": tracer.missing,
        "spans": len(tracer.spans),
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in per_layer_metrics()
        },
    }


def driver_line(record: dict) -> str:
    """The contract's last line: exactly four keys, numbers only."""
    names = [m.name for m in (per_layer_metrics() if record["trace"] else GATED)]
    metrics = {
        name: {"value": record["metrics"][name]["value"], "unit": record["metrics"][name]["unit"]}
        for name in names
    }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def single(args) -> int:
    workload = BY_NAME[args.workload]
    runner = run_traced if args.trace else run_untraced
    record = runner(workload, args.seed, args.seconds, args.smoke)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    print(driver_line(record))
    return 0 if record["correct"] and not record["failed"] else 1


def spawn(workload: str, args, seed: int, trace: int, tag: str) -> dict:
    """One workload in a fresh interpreter; returns its full record."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}.{tag}.json"
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out),
    ]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")  # all but the JSON line
    if not out.exists():
        raise SystemExit(f"muxbench: {workload} produced no result (exit {done.returncode})")
    record = json.loads(out.read_text())
    record["exit"] = done.returncode
    return record


def every(args) -> int:
    names = [w.name for w in WORKLOADS]
    passes = []
    for index in range(args.repeat or 1):
        passes.append([spawn(n, args, args.seed, 0, f"pass{index}") for n in names])
    records = [r for one in passes for r in one]
    if args.repeat:
        other = [spawn(n, args, args.seed + 1, 0, "otherseed") for n in names]
        verdict, ok = report.repeat_table(passes, other)
        print(verdict)
        records += other
    else:
        ok = True
    if args.trace:
        records += [spawn(n, args, args.seed, 1, "traced") for n in names]
    failed = [r["workload"] for r in records if r["exit"]]
    if args.out:
        ledger = {
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "seconds": args.seconds,
            "repeat_agrees": ok if args.repeat else None,
            "records": records,
        }
        Path(args.out).write_text(json.dumps(ledger, indent=1))
    print(report.summary(records))
    if failed:
        print("FAILED:", ", ".join(sorted(set(failed))))
    return 0 if ok and not failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes the fixed op counts; 10 is the ledger size")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    parser.add_argument("--smoke", action="store_true", help="about 1 %% of the op counts")
    parser.add_argument("--out", metavar="FILE", help="also write the full record(s) as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload:
        if args.repeat:
            parser.error("--repeat runs every workload; drop --workload")
        return single(args)
    return every(args)


if __name__ == "__main__":
    sys.exit(main())
