"""Plain-text tables: every metric by name, with its unit and sample count."""

from __future__ import annotations

import os
import platform
from typing import Dict, List, Tuple

from muxbench import measure
from muxbench.metrics import END_TO_END, per_layer_metrics
from muxbench.stats import max_rel_diff, quartiles


def _number(value) -> str:
    if value is None:
        return "n/a"
    if value == 0 or 0.01 <= abs(value) < 1e7:
        return f"{value:.4f}"
    return f"{value:.4e}"


def end_to_end_table(run: measure.Run, values: Dict[str, measure.Value]) -> str:
    w = run.workload
    lines = [
        f"== {w.name}  seed={run.seed}  {w.loop} loop  ops={run.attempted}  "
        f"plan={run.plan_digest[:12]}",
        f"   {w.why}",
    ]
    for phase in run.phases:
        rate = f"offered {phase.rate:g}/sim_s" if phase.rate else "closed loop"
        verdict = ""
        if w.loop == "open":
            ok = measure.phase_meets_limit(w, phase)
            verdict = (
                f"  {'meets' if ok else 'MISSES'} {w.limit_metric} <= {w.limit_us:g} sim_us"
                f"  drain lag {phase.drain_lag_ns / 1000.0:.1f} sim_us"
            )
        lines.append(
            f"   phase {phase.name:4s} {phase.ops:7d} ops  {rate}  "
            f"completed at {phase.ops * 1e9 / phase.makespan_ns:.1f}/sim_s{verdict}"
        )
    lines.append(f"   {'metric':22s} {'value':>16s}  {'unit':10s} {'n':>8s}  gate  note")
    for m in END_TO_END:
        v = values[m.name]
        gate = f"{m.bound:.3g}" if m.gate else "-"
        lines.append(
            f"   {m.name:22s} {_number(v.value):>16s}  {v.unit:10s} {v.n:8d}  {gate:5s} {v.note}"
        )
    reads = sum(p.checked_reads for p in run.phases)
    lines.append(
        f"   content: {reads} reads checked in flight, {run.sweep_files} objects swept, "
        f"{run.mismatches} mismatches, {run.failed} failed ops -> "
        f"{'OK' if run.correct and not run.failed else 'FAILED'}"
    )
    return "\n".join(lines)


def per_layer_table(run: measure.Run, values: Dict[str, float], tracer, same: bool) -> str:
    lines = [
        f"== {run.workload.name}  seed={run.seed}  traced pass  ops={run.attempted}  "
        f"spans={len(tracer.spans)}",
        f"   fingerprint {'equals' if same else 'DIFFERS FROM'} the untraced pass; "
        f"layers_missing={tracer.missing or 'none'}; "
        f"sim self time clamped on {tracer.sim_clamped} spans",
        f"   {'metric':44s} {'value':>16s}  unit",
    ]
    for m in per_layer_metrics():
        lines.append(f"   {m.name:44s} {_number(values[m.name]):>16s}  {m.unit}")
    return "\n".join(lines)


def repeat_table(passes: List[List[dict]], other_seed: List[dict]) -> Tuple[str, bool]:
    """Per workload and metric: median, quartiles and the largest relative
    difference between passes.  A pass disagrees when a host metric differs
    by more than its bound, or a simulated one differs at all."""
    ok = True
    lines = [f"== repeat: {len(passes)} passes of one seed, then one pass of the next seed"]
    for index, first in enumerate(passes[0]):
        name = first["workload"]
        lines.append(f"   {name}")
        records = [one[index] for one in passes]
        if len({r["plan_digest"] for r in records}) != 1:
            ok = False
            lines.append("      inputs differ between passes of one seed: FAILED")
        for m in END_TO_END:
            values = [r["metrics"][m.name]["value"] for r in records]
            if None in values:
                continue
            q1, q2, q3 = quartiles(values)
            diff = max_rel_diff(values)
            allowed = 0.0 if m.exact else m.bound
            verdict = "ok" if diff <= allowed else "DISAGREE"
            ok = ok and diff <= allowed
            lines.append(
                f"      {m.name:22s} median {_number(q2):>14s}  quartiles "
                f"{_number(q1)}..{_number(q3)}  max diff {diff:.4f} (allowed {allowed:g}) {verdict}"
            )
        theirs = other_seed[index]
        moved = [
            m.name for m in END_TO_END
            if m.exact and theirs["metrics"][m.name]["value"] != first["metrics"][m.name]["value"]
        ]
        changed = theirs["plan_digest"] != first["plan_digest"] and bool(moved)
        ok = ok and changed and theirs["correct"]
        lines.append(
            f"      seed {theirs['seed']}: inputs {'differ' if changed else 'DO NOT DIFFER'}, "
            f"{len(moved)} simulated metrics moved, checks "
            f"{'pass' if theirs['correct'] else 'FAIL'}"
        )
    lines.append(f"   repeat verdict: {'passes agree' if ok else 'PASSES DISAGREE'}")
    return "\n".join(lines), ok


def summary(records: List[dict]) -> str:
    lines = [
        f"== muxbench: {len(records)} runs on {os.cpu_count()} cores, "
        f"Python {platform.python_version()}; host numbers are this sandbox's, "
        f"never device latency"
    ]
    for r in records:
        kind = "traced" if r["trace"] else "untraced"
        state = "ok" if r["correct"] and not r["failed"] and not r["exit"] else "FAILED"
        lines.append(
            f"   {r['workload']:18s} seed {r['seed']:<4d} {kind:9s} "
            f"{r['attempted']:7d} ops  {state}"
        )
    return "\n".join(lines)
