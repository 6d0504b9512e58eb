"""One measured run of one workload, and its 16 end-to-end metrics."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from muxbench import layers
from muxbench.metrics import END_TO_END, LATENCY_METRICS
from muxbench.stats import tail
from muxbench.drivers import LATENCY_CLASSES, PhaseResult
from muxbench.workloads import Workload

#: set-ups per run; ``setup_s`` is their median and the last one is measured
SETUP_REPEATS = 3
#: slices the timed window's host clocks are read in
HOST_SLICES = 20


@dataclass
class Value:
    """One reported number with the evidence behind it."""

    value: Optional[float]
    unit: str
    #: samples the number was computed from (0 for plain ratios)
    n: int = 0
    #: why the printed figure is a stand-in, if it is one
    note: str = ""


@dataclass
class Run:
    workload: Workload
    seed: int
    plan_digest: str
    setups_s: List[float]
    #: host seconds of the timed window, scaled up from the median slice
    wall_s: float
    cpu_s: float
    rss_mib: float
    phases: List[PhaseResult]
    fingerprint: Dict[str, object]
    counters: Dict[str, int]
    #: device channels per tier, summed over shards
    channels: Dict[str, int]
    sweep_files: int
    sweep_mismatches: int
    ring_max_inflight: int = 0
    trace: Optional[object] = None

    @property
    def attempted(self) -> int:
        return sum(p.ops for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases)

    @property
    def mismatches(self) -> int:
        return sum(p.mismatches for p in self.phases) + self.sweep_mismatches

    @property
    def device_bytes_written(self) -> int:
        return self.counters["dev.bytes_written"]

    @property
    def user_bytes_written(self) -> int:
        return sum(p.user_bytes_written for p in self.phases)

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and self.sweep_files > 0


def run_once(
    workload: Workload,
    seed: int,
    seconds: float,
    smoke: bool = False,
    setups: int = SETUP_REPEATS,
    tracer=None,
    op_share: float = 1.0,
) -> Run:
    """Generate, set up ``setups`` times, run the timed window, verify.

    ``op_share`` scales the timed op counts (the traced pass runs a
    quarter); ``tracer`` is installed on the last set-up's rig after the
    warm-up, so spans cover exactly the timed window.
    """
    plan = workload.plan(
        workload, seed, workload.phase_ops(seconds, smoke, op_share), smoke
    )
    rig = None
    setups_s = []
    for _ in range(setups):
        rig = None
        gc.collect()
        t0 = time.perf_counter()
        rig = workload.build(workload, plan, smoke)
        rig.populate(plan)
        rig.warm(plan)
        setups_s.append(time.perf_counter() - t0)

    if tracer is not None:
        tracer.install(rig)
    # host clocks are read every ``slice_ops`` ops: the reported rate is the
    # median slice's, which a noisy neighbour or a GC pause cannot move
    total_ops = sum(len(p.ops) for p in plan.phases)
    slice_ops = max(1, total_ops // HOST_SLICES)
    marks: List[Tuple[float, float]] = []
    issued = 0

    def set_op(index: int) -> None:
        nonlocal issued
        if issued % slice_ops == 0:
            marks.append((time.perf_counter(), time.process_time()))
        issued += 1
        if tracer is not None:
            tracer.set_op(index)

    before = layers.collect_counters(rig)
    gc.collect()
    results = []
    for index, phase in enumerate(plan.phases):
        if tracer is not None:
            tracer.begin_phase(phase.name)
        results.append(rig.run_phase(phase, set_op))
        rig.settle(index)
    slices = list(zip(marks, marks[1:]))
    wall_s = statistics.median(b[0] - a[0] for a, b in slices) * total_ops / slice_ops
    cpu_s = statistics.median(b[1] - a[1] for a, b in slices) * total_ops / slice_ops
    if tracer is not None:
        tracer.uninstall()
    after = layers.collect_counters(rig)
    fingerprint = layers.fingerprint(rig)
    sweep_files, sweep_bad = rig.sweep()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counters = defaultdict(int, {key: after[key] - before[key] for key in after})
    snaps = rig.ring_snapshots()
    return Run(
        workload=workload,
        seed=seed,
        plan_digest=plan.digest(),
        setups_s=setups_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        rss_mib=rss_mib,
        phases=results,
        fingerprint=fingerprint,
        counters=counters,
        channels=layers.channels(rig),
        sweep_files=sweep_files,
        sweep_mismatches=sweep_bad,
        ring_max_inflight=max((s["max_inflight"] for s in snaps), default=0),
        trace=tracer,
    )


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def _pooled(phase: PhaseResult) -> List[int]:
    return sorted(v for cls in LATENCY_CLASSES for v in phase.latencies[cls])


def _percentile(samples: List[int], q: float) -> Tuple[Optional[float], str]:
    """Nearest-rank percentile in ns under the ten-beyond rule, plus the
    note the report prints when the figure is a stand-in."""
    value, used = tail(samples, q)
    if value is None or used == q:
        return value, ""
    shown = f"p{used * 100:.4g}" if used else "too few samples"
    return value, f"n/a: highest supported is {shown}"


def phase_meets_limit(workload: Workload, phase: PhaseResult) -> bool:
    """The phase's limit percentile and its drain lag are within the
    limit, and no op failed (a failed op misses any limit)."""
    if phase.failed:
        return False
    cls, q = LATENCY_METRICS[workload.limit_metric]
    value, _ = _percentile(sorted(phase.latencies[cls]), q)
    limit_ns = workload.limit_us * 1000.0
    return value is not None and value <= limit_ns and phase.drain_lag_ns <= limit_ns


def latency_phase(run: Run) -> PhaseResult:
    """Open-loop latencies come from the ``mid`` phase."""
    for phase in run.phases:
        if phase.name == "mid":
            return phase
    return run.phases[0]


def end_to_end(run: Run) -> Dict[str, Value]:
    """Every end-to-end metric by name.  The gated ones (``Metric.gate``)
    are always numbers; a report-only one that does not apply to the
    workload has ``value=None`` and is printed as ``n/a``."""
    workload = run.workload
    ops = run.attempted
    done = ops - run.failed
    sim_ns = sum(p.makespan_ns for p in run.phases)
    out: Dict[str, Value] = {}
    out["setup_s"] = Value(statistics.median(run.setups_s), "s", len(run.setups_s))
    out["host_ops_per_s"] = Value(ops / run.wall_s, "1/s", ops)
    out["host_cpu_us_per_op"] = Value(run.cpu_s * 1e6 / ops, "us", ops)
    out["host_peak_rss_mib"] = Value(run.rss_mib, "MiB")
    out["sim_ops_per_s"] = Value(done * 1e9 / sim_ns, "1/sim_s", ops)

    if workload.loop == "open":
        passing = [p for p in run.phases if phase_meets_limit(workload, p)]
        if passing:
            best = max(passing, key=lambda p: p.rate)
            # the completion rate measured in the highest passing phase:
            # the offered rate when there is no backlog, as it should be
            out["sim_rate_ok_kops"] = Value(
                (best.ops - best.failed) * 1e6 / best.makespan_ns, "kops/sim_s", best.ops,
                f"phase {best.name}, offered {best.rate / 1000.0:g}",
            )
        else:
            # "below the lowest rate tried": half of it keeps the metric
            # nonzero and reads as the collapse it is
            lowest = min(p.rate for p in run.phases)
            out["sim_rate_ok_kops"] = Value(
                lowest / 2000.0, "kops/sim_s", 0, "no phase met the limit"
            )
    else:
        out["sim_rate_ok_kops"] = Value(
            done * 1e6 / sim_ns, "kops/sim_s", ops,
            "closed loop: completion rate of the one client",
        )

    phase = latency_phase(run)
    pooled = _pooled(phase)
    out["sim_lat_mean_us"] = Value(sum(pooled) / len(pooled) / 1000.0, "sim_us", len(pooled))
    p99, note = _percentile(pooled, 0.99)
    out["sim_lat_p99_us"] = Value(p99 / 1000.0, "sim_us", len(pooled), note)
    out["ok_op_share"] = Value(done / ops, "ratio", ops)
    user = run.user_bytes_written
    if user:
        out["write_amp"] = Value(run.device_bytes_written / user, "ratio", user)
    else:
        out["write_amp"] = Value(
            run.device_bytes_written / (ops * 4096.0), "ratio", 0,
            "no user bytes: device 4 KiB blocks written per op",
        )

    # -- report only -------------------------------------------------------
    p999, note = _percentile(pooled, 0.999)
    out["sim_lat_p999_us"] = Value(_us(p999, note), "sim_us", len(pooled), note)
    for name, (cls, q) in LATENCY_METRICS.items():
        samples = sorted(phase.latencies[cls])
        value, note = _percentile(samples, q)
        out[name] = Value(_us(value, note), "sim_us", len(samples), note)
    out["failed_op_share"] = Value(run.failed / ops, "ratio", ops)
    assert list(out) == [m.name for m in END_TO_END]
    return out


def _us(value_ns: Optional[float], note: str) -> Optional[float]:
    """A report-only percentile the sample cannot support is ``n/a``."""
    return None if value_ns is None or note else value_ns / 1000.0
