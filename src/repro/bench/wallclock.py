"""Wall-clock drift guard: the simulated fingerprints of 19 workloads.

Every workload here builds a fresh stack, drives it, and records a
*simulated fingerprint* (``clock.now_ns``, per-device ``DeviceStats``,
SCM-cache hit/miss counters and the workload's own tails and counters)
plus its simulated elapsed time.  The numbers come from the timing
model, so they are identical on any machine.  Host time is not measured
here: muxbench (``muxbench/run.py``) owns it.

Two guarantees this module enforces:

* **Determinism** — a full run executes each workload twice and aborts
  if the two fingerprints differ.
* **Drift detection** — ``--smoke`` reruns a reduced version of every
  workload and compares fingerprints against the golden values recorded
  in ``BENCH_wallclock.json``, exiting nonzero on any mismatch.  This is
  the CI guard that data-path changes did not alter the timing model.

Usage::

    PYTHONPATH=src python -m repro.bench wallclock            # full run
    PYTHONPATH=src python -m repro.bench wallclock --smoke    # CI guard
    PYTHONPATH=src python -m repro.bench wallclock --out F    # elsewhere
    PYTHONPATH=src python -m repro.bench wallclock --diff OLD # what moved

``--diff OLD`` runs nothing: it prints a markdown table of every golden
field (full and smoke size) that differs between ``OLD`` and the
``--out`` file, for the rebaseline table of a change that moves them.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.harness import build_strata, pop_flag_value, reject_unknown
from repro.bench.macro import fileserver, varmail, webserver
from repro.bench.multi_tenant import (
    TenantSpec,
    fairness_slowdowns,
    run_multi_tenant,
    slowdown_x,
    zipf_cdf,
    zipf_pick,
)
from repro.bench.openloop import (
    SLOW_READ_NS,
    MultiTenantResult,
    populate,
    pump,
    settle,
)
from repro.bench.tracereplay import canonical_trace, replay_trace
from repro.bench.workloads import (
    cache_writeback,
    fault_storm,
    hot_set_reads,
    make_file,
    metadata_churn,
    metadata_tree,
    migration_churn,
    sequential_read,
    sequential_write,
    striped_reads,
)
from repro.core.qos import IoClass
from repro.core.scheduler import IoScheduler
from repro.devices.faults import FaultConfig
from repro.devices.profile import OPTANE_PMEM_200, OPTANE_SSD_P4800X
from repro.sim.histogram import LatencyHistogram
from repro.sim.rng import DeterministicRng
from repro.stack import Stack, build_stack

KIB = 1024
MIB = 1024 * KIB

#: output file written at the repo root (cwd of the bench invocation)
DEFAULT_OUT = "BENCH_wallclock.json"

USAGE = "usage: python -m repro.bench wallclock [--smoke | --diff OLD] [--out FILE]"

#: repetitions per workload: a full run compares two, the smoke guard
#: compares its one against the golden
FULL_REPS = 2
SMOKE_REPS = 1


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def _mux_fingerprint(stack: Stack, extended: bool = False) -> Dict[str, object]:
    """Simulated fingerprint of a stack run.

    ``extended`` additionally pins the write-back counters; only the
    ``cache_writeback`` workload uses it, so the fingerprints (and hence
    the goldens) of every pre-existing workload are unchanged.
    """
    fp: Dict[str, object] = {
        "now_ns": stack.clock.now_ns,
        "devices": {
            name: dev.stats.snapshot() for name, dev in sorted(stack.devices.items())
        },
    }
    if stack.mux.cache is not None:
        fp["cache"] = {
            "hit": stack.mux.cache.stats.get("hit"),
            "miss": stack.mux.cache.stats.get("miss"),
        }
        if extended:
            counters = stack.mux.cache.cache_counters()
            for key in ("write_hit", "destage_runs", "destaged_blocks", "dirty_blocks"):
                fp["cache"][key] = counters.get(key, 0)
    else:
        fp["cache"] = {"hit": 0, "miss": 0}
    return fp


def _strata_fingerprint(clock, devices) -> Dict[str, object]:
    return {
        "now_ns": clock.now_ns,
        "devices": {
            name: dev.stats.snapshot() for name, dev in sorted(devices.items())
        },
        "cache": {"hit": 0, "miss": 0},
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
#
# Each workload is a callable (smoke: bool) -> result dict.  It builds a
# fresh stack (so reps are independent and deterministic), reports the
# simulated time of its measured section, and the simulated fingerprint
# of the *whole* run including setup.


def _result(
    sim_elapsed_s: float,
    fingerprint: Dict[str, object],
    events: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The record every workload returns (``run_workloads`` compares the
    ``fingerprint``; the rest lands in the bench file)."""
    out: Dict[str, object] = {
        "sim_elapsed_s": sim_elapsed_s,
        "fingerprint": fingerprint,
    }
    if events is not None:
        out["events"] = events
    return out


def _timed(clock, fn) -> Tuple[object, int]:
    """``fn()`` on the simulated clock: (its result, simulated ns)."""
    sim0 = clock.now_ns
    out = fn()
    return out, clock.now_ns - sim0


def _wl_seq_write(smoke: bool) -> Dict[str, object]:
    total = 8 * MIB if smoke else 48 * MIB
    stack = build_stack()
    stack.mux.mkdir("/bench")
    res = sequential_write(stack.mux, stack.clock, "/bench/seq", total)
    return _result(res.elapsed_s, _mux_fingerprint(stack))


def _wl_seq_read(smoke: bool) -> Dict[str, object]:
    size = 8 * MIB if smoke else 64 * MIB
    passes = 1 if smoke else 6
    stack = build_stack()
    stack.mux.mkdir("/bench")
    handle = make_file(stack.mux, stack.clock, "/bench/rdfile", size)
    stack.mux.close(handle)

    def run() -> None:
        for _ in range(passes):
            sequential_read(stack.mux, stack.clock, "/bench/rdfile", size)

    _, sim_ns = _timed(stack.clock, run)
    return _result(sim_ns / 1e9, _mux_fingerprint(stack))


def _wl_hot_set(smoke: bool) -> Dict[str, object]:
    size = 8 * MIB if smoke else 16 * MIB
    iters = 800 if smoke else 4000
    stack = build_stack()
    stack.mux.mkdir("/bench")
    handle = make_file(stack.mux, stack.clock, "/bench/hot", size)
    stack.mux.close(handle)
    _, sim_ns = _timed(
        stack.clock,
        lambda: hot_set_reads(stack.mux, stack.clock, "/bench/hot", size, 2 * MIB, iters),
    )
    return _result(sim_ns / 1e9, _mux_fingerprint(stack))


def _macro_workload(
    macro, smoke_shape: Dict[str, int], full_shape: Dict[str, int]
) -> Callable[[bool], Dict[str, object]]:
    """A filebench-style macro (``repro.bench.macro``) on the default stack;
    the shapes are its ``files``/``operations`` keyword arguments."""

    def workload(smoke: bool) -> Dict[str, object]:
        stack = build_stack()
        shape = smoke_shape if smoke else full_shape
        res = macro(stack.mux, stack.clock, **shape)
        return _result(res.elapsed_s, _mux_fingerprint(stack))

    return workload


def _wl_metadata_churn(smoke: bool) -> Dict[str, object]:
    files, ops = (60, 400) if smoke else (200, 12000)
    stack = build_stack()
    # tree construction is setup; the measured section is the steady-state
    # metadata traffic, routed through the VFS like a real application
    live = metadata_tree(stack.vfs, files, "/mux")
    res = metadata_churn(stack.vfs, stack.clock, live, ops, "/mux")
    return _result(res.total_ns / 1e9, _mux_fingerprint(stack))


def _wl_migration_churn(smoke: bool) -> Dict[str, object]:
    files, size, rounds = (2, 1 * MIB, 2) if smoke else (2, 16 * MIB, 6)
    stack = build_stack()
    tier_ids = [stack.tier_id(n) for n in ("pm", "ssd", "hdd") if n in stack.tier_ids]
    res = migration_churn(
        stack.mux, stack.clock, tier_ids, files=files, file_bytes=size, rounds=rounds
    )
    return _result(res.elapsed_s, _mux_fingerprint(stack))


def _wl_fault_storm(smoke: bool) -> Dict[str, object]:
    files, ops = (8, 150) if smoke else (24, 1200)
    stack = build_stack(
        faults={
            "ssd": FaultConfig(
                read_error_p=0.05,
                write_error_p=0.25,
                transient_fraction=1.0,
                torn_write_p=0.1,
            ),
            "hdd": FaultConfig(latency_spike_p=0.2),
        },
    )
    events, sim_ns = _timed(
        stack.clock, lambda: fault_storm(stack, operations=ops, files=files)
    )
    return _result(sim_ns / 1e9, _mux_fingerprint(stack), events)


def _wl_cache_writeback(smoke: bool) -> Dict[str, object]:
    size, ops = (2 * MIB, 400) if smoke else (8 * MIB, 4000)
    stack = build_stack(cache_write_back=True)
    counts, sim_ns = _timed(
        stack.clock, lambda: cache_writeback(stack, file_bytes=size, operations=ops)
    )
    return _result(sim_ns / 1e9, _mux_fingerprint(stack, extended=True), counts)


def _wl_parallel_stripe(smoke: bool) -> Dict[str, object]:
    """Striped cross-tier reads: the parallel engine vs the serial model.

    The same workload runs on two stacks — parallel dispatch (the
    default) and the serial ablation (``IoScheduler(parallel=False)``) —
    and the headline number is the per-read latency ratio.  The
    fingerprint pins the parallel stack plus the serial stack's final
    clock, so drift in *either* dispatch model trips the smoke guard.
    """
    size, reads = (2 * MIB, 2) if smoke else (16 * MIB, 4)
    results: Dict[str, float] = {}
    fingerprint: Dict[str, object] = {}
    # dispatch-model ablation: saturation knees off, so the measured gap
    # is parallel-vs-serial dispatch alone — a 16 MiB stripe floods the
    # queues far past any calibrated knee, which would penalize both
    # models and confound the comparison with device saturation
    no_knee = {
        "pm": replace(OPTANE_PMEM_200, knee_depth=0, knee_penalty=0.0),
        "ssd": replace(OPTANE_SSD_P4800X, knee_depth=0, knee_penalty=0.0),
    }
    for mode, parallel in (("parallel", True), ("serial", False)):
        stack = build_stack(
            tiers=["pm", "ssd"],
            enable_cache=False,
            scheduler=IoScheduler(parallel=parallel),
            profiles=no_knee,
        )
        tier_ids = [stack.tier_id(n) for n in ("pm", "ssd")]
        res = striped_reads(stack, tier_ids, file_bytes=size, reads=reads)
        results[mode] = res.mean_ns
        if parallel:
            fingerprint = _mux_fingerprint(stack)
        else:
            fingerprint["serial_now_ns"] = stack.clock.now_ns
    speedup = results["serial"] / results["parallel"] if results["parallel"] else 0.0
    return _result(
        (results["parallel"] * reads) / 1e9,
        fingerprint,
        {
            "parallel_read_us": round(results["parallel"] / 1e3, 2),
            "serial_read_us": round(results["serial"] / 1e3, 2),
            "speedup_x": round(speedup, 2),
        },
    )


def _tails(res, *ops: str) -> Dict[str, int]:
    """``{op}_p50/p99/p999`` in integer ns for each of ``ops``, flattened."""
    return {
        f"{op}_{pct}": ns for op in ops for pct, ns in res.percentiles_ns(op).items()
    }


def _mt_specs(load_mult: float) -> List[TenantSpec]:
    """Four tenants with distinct personalities, scaled by ``load_mult``.

    ``load_mult`` multiplies every inter-arrival gap, so 1.0 is the
    highest offered load (past depth-1 saturation) and larger values back
    off toward an uncontended system.  The mix covers the interesting
    axes: read-heavy vs mixed, Poisson vs bursty arrivals, and one
    QoS-throttled batch tenant.
    """

    def gap(base_ns: int) -> int:
        return max(1, round(base_ns * load_mult))

    return [
        TenantSpec("alpha", mean_interarrival_ns=gap(2_500), files=6, read_fraction=0.9),
        TenantSpec("bravo", mean_interarrival_ns=gap(4_000), files=4, read_fraction=0.7),
        TenantSpec("burst", mean_interarrival_ns=gap(3_000), arrival="bursty", burst_size=8),
        TenantSpec(
            "batch",
            mean_interarrival_ns=gap(6_000),
            read_fraction=0.5,
            qos_class=IoClass("batch", quota_bytes_per_sec=200 * MIB),
        ),
    ]


def _mt_stack() -> Stack:
    # catalog profiles now carry spec-calibrated saturation knees by
    # default (see devices/profile.py), so no per-workload override is
    # needed: device queueing, not cache luck, sets the tails here
    return build_stack(enable_cache=False, readahead_background=True)


def _wl_multi_tenant(smoke: bool) -> Dict[str, object]:
    """Open-loop multi-tenant tails: async ring vs serialized depth-1.

    The same pre-generated arrival schedule runs twice per load point —
    once through depth-8 submit/complete rings and once through depth-1
    (the serialized baseline) — and the headline number is the aggregate
    read-p99 ratio at the highest offered load.  Because the load is
    open-loop, depth-1 queueing delay counts against its tail instead of
    silently slowing the arrival process.

    The fingerprint pins the async stack at the highest load plus the
    baseline's final clock and the full p50/p99/p999 table for every
    (load, depth) pair, so drift in either dispatch path — or in the tail
    percentiles themselves — trips the smoke guard.
    """
    duration_ns = 300_000 if smoke else 1_000_000
    loads = [1.0] if smoke else [4.0, 2.0, 1.0]
    sim_elapsed_ns = 0
    fingerprint: Dict[str, object] = {}
    tails: Dict[str, object] = {}
    table: Dict[str, object] = {}
    ratio = 0.0
    for load in loads:
        specs = _mt_specs(load)
        point: Dict[str, Dict[str, int]] = {}
        for depth in (8, 1):
            stack = _mt_stack()
            res, sim_ns = _timed(
                stack.clock,
                lambda: run_multi_tenant(
                    stack, specs, duration_ns=duration_ns, ring_depth=depth
                ),
            )
            label = "async" if depth == 8 else "depth1"
            point[label] = _tails(res, "read", "write")
            if depth == 8:
                sim_elapsed_ns += sim_ns
            if load == loads[-1]:
                if depth == 8:
                    fingerprint = _mux_fingerprint(stack)
                else:
                    fingerprint["depth1_now_ns"] = stack.clock.now_ns
        key = f"load_{load:g}x"
        tails[key] = point
        table[key] = {
            "async_read_p99_us": round(point["async"]["read_p99"] / 1e3, 2),
            "depth1_read_p99_us": round(point["depth1"]["read_p99"] / 1e3, 2),
        }
        if load == loads[-1] and point["async"]["read_p99"]:
            ratio = point["depth1"]["read_p99"] / point["async"]["read_p99"]
    fingerprint["tails"] = tails
    return _result(
        sim_elapsed_ns / 1e9, fingerprint, {"p99_ratio_x": round(ratio, 1), "sweep": table}
    )


#: the three registered policies the pressure duels compare: the paper's
#: size-threshold default, the hotness-driven migrator, and the
#: queue/health-fed pressure-aware policy this benchmark exists to judge
_DUEL_POLICIES = ("tpfs", "hotcold", "pressure")


def _duel_stack(policy: str) -> Stack:
    """Identical stacks differing only in policy, tuned so bursts hurt.

    The SSD's volatile write buffer is shrunk from the spec's 32 MiB to
    256 KiB: with the stock buffer a whole fsynced burst is absorbed at
    cache speed and *no* placement policy can distinguish itself.  The
    SCM cache is off for the same reason — the duel measures placement
    under device pressure, not cache hit luck.  Catalog saturation knees
    (on by default) do the rest.
    """
    return build_stack(
        policy=policy,
        enable_cache=False,
        profiles={"ssd": replace(OPTANE_SSD_P4800X, write_buffer_bytes=256 * KIB)},
        readahead_background=True,
        pressure_interval_ns=10_000,
    )


def _policy_duel(
    policies: Tuple[str, ...],
    pinned: str,
    setup: Callable[[str], Tuple[Stack, Callable[[], object]]],
    rows: Callable[[Stack, object], Tuple[Dict[str, object], Dict[str, object]]],
) -> Tuple[int, Dict[str, object], Dict[str, object], Dict[str, object]]:
    """Run one measured section per policy on otherwise identical stacks.

    ``setup(policy)`` builds the stack (plus any unmeasured preparation)
    and returns it with the section to measure; ``rows(stack, result)``
    gives that policy's ``(events-table row, pinned values)``.  The
    fingerprint pins the ``pinned`` policy's devices (its run is the
    reported simulated time) plus every policy's final clock and pinned
    values, so drift in any policy's placement trips the smoke guard.
    Returns ``(pinned policy's simulated ns, fingerprint, table, results)``.
    """
    sim_elapsed_ns = 0
    fingerprint: Dict[str, object] = {}
    policies_fp: Dict[str, object] = {}
    table: Dict[str, object] = {}
    results: Dict[str, object] = {}
    for name in policies:
        stack, section = setup(name)
        results[name], sim_ns = _timed(stack.clock, section)
        table[name], pinned_values = rows(stack, results[name])
        policies_fp[name] = {"now_ns": stack.clock.now_ns, **pinned_values}
        if name == pinned:
            sim_elapsed_ns = sim_ns
            fingerprint = _mux_fingerprint(stack)
    fingerprint["policies"] = policies_fp
    return sim_elapsed_ns, fingerprint, table, results


def _tail_row(res) -> Dict[str, object]:
    """The events-table columns every latency duel shows."""
    reads = res.percentiles_ns("read")
    return {
        "read_p99_us": round(reads["p99"] / 1e3, 1),
        "read_p999_us": round(reads["p999"] / 1e3, 1),
        "migrations": res.migrations_submitted,
    }


def _trace_duel(
    trace_name: str,
    smoke: bool,
    policies: Tuple[str, ...],
    pinned: str,
    headline: Callable[[object, Dict[str, Dict[str, int]]], Dict[str, object]],
    counters: Callable[[object, MultiTenantResult], Dict[str, int]] = (
        lambda mux, res: {}
    ),
    **replay_kwargs,
) -> Dict[str, object]:
    """Replay a canonical trace open-loop against one stack per policy.

    ``counters(mux, result)`` are extra per-policy counters to pin and show;
    ``headline(trace, read tails per policy)`` adds the workload's own
    events next to the per-policy table.
    """
    trace = canonical_trace(trace_name)
    if smoke:
        trace = trace.truncated(0.2)

    def setup(name: str):
        stack = _duel_stack(name)
        return stack, lambda: replay_trace(stack, trace, ring_depth=32, **replay_kwargs)

    def rows(stack: Stack, res):
        extra = counters(stack.mux, res)
        return {**_tail_row(res), **extra}, {
            **_tails(res, "read", "write"),
            "submitted": res.submitted,
            "errors": res.errors,
            "migrations": res.migrations_submitted,
            **extra,
        }

    sim_elapsed_ns, fingerprint, table, results = _policy_duel(
        policies, pinned, setup, rows
    )
    reads_by_policy = {name: res.percentiles_ns("read") for name, res in results.items()}
    return _result(
        sim_elapsed_ns / 1e9,
        fingerprint,
        {"trace": trace_name, **headline(trace, reads_by_policy), "policies": table},
    )


def _wl_trace_replay(smoke: bool) -> Dict[str, object]:
    """Canonical bursty trace replayed head-to-head across policies.

    The canonical ``bursty`` trace (a zipf read floor with 4 MiB fsynced
    write bursts) is replayed open-loop against one stack per registered
    policy; the headline is each policy's read tail on identical offered
    load.  The fingerprint pins the pressure-aware stack's devices plus
    every policy's full latency table.
    """
    return _trace_duel(
        "bursty",
        smoke,
        _DUEL_POLICIES,
        "pressure",
        lambda trace, reads: {"op_mix": trace.op_mix()},
        maintain_every=256,
        population_tier="ssd",
    )


def _duel_specs() -> List[TenantSpec]:
    """Two read-floor tenants sharing channels with one bursty logger.

    The logger fsyncs each burst (the database/logger durability
    pattern), so ~4 MiB of writes land on the SSD's channels every ~4 ms
    — exactly the pressure shape the trace duel uses, but arriving
    through independent per-tenant rings so per-tenant fairness is
    measurable against each tenant's isolated counterfactual.
    """
    return [
        TenantSpec(
            "web",
            mean_interarrival_ns=30_000,
            files=20,
            file_bytes=2 * MIB,
            io_bytes=16 * KIB,
            read_fraction=1.0,
            zipf_alpha=1.0,
        ),
        TenantSpec(
            "api",
            mean_interarrival_ns=30_000,
            files=20,
            file_bytes=2 * MIB,
            io_bytes=16 * KIB,
            read_fraction=1.0,
            zipf_alpha=1.0,
        ),
        TenantSpec(
            "log",
            mean_interarrival_ns=125_000,
            files=8,
            file_bytes=2 * MIB,
            io_bytes=128 * KIB,
            read_fraction=0.0,
            arrival="bursty",
            burst_size=32,
            zipf_alpha=1.0,
            fsync_bursts=True,
        ),
    ]


def _wl_tenant_policy_duel(smoke: bool) -> Dict[str, object]:
    """Multi-tenant policy duel plus per-tenant fairness slowdowns.

    The same open-loop three-tenant schedule runs against one stack per
    policy (placement maintained mid-run via ``maintain_every``), and the
    pressure-aware policy is additionally scored on fairness: each
    tenant's shared-run read tail over its isolated-run tail, the classic
    slowdown metric — the spread shows who pays for the logger's bursts.
    """
    duration_ns = 12_000_000 if smoke else 60_000_000
    specs = _duel_specs()
    run_kwargs = dict(
        ring_depth=32,
        population_tier="ssd",
        maintain_every=256,
        durable_population=True,
    )

    def setup(name: str):
        stack = _duel_stack(name)
        return stack, lambda: run_multi_tenant(stack, specs, duration_ns, **run_kwargs)

    def rows(stack: Stack, res):
        return _tail_row(res), {
            **_tails(res, "read", "write"),
            "migrations": res.migrations_submitted,
        }

    sim_elapsed_ns, fingerprint, table, _ = _policy_duel(
        _DUEL_POLICIES, "pressure", setup, rows
    )

    # fairness for the winner: shared tail over isolated counterfactual
    _, fairness = fairness_slowdowns(
        lambda: _duel_stack("pressure"), specs, duration_ns, **run_kwargs
    )
    slowdowns = {
        name: round(slowdown_x(entry), 2)
        for name, entry in fairness.items()
        if entry["isolated_p99_ns"]
    }
    fingerprint["fairness"] = fairness
    return _result(
        sim_elapsed_ns / 1e9,
        fingerprint,
        {"policies": table, "fairness_slowdown_x": slowdowns},
    )


def _mirror_churn(mux) -> Dict[str, int]:
    """Mirror grants and drops: what the mirror sync traffic bought."""
    return {
        "mirror_grants": mux.mirrors.stats.get("mirrors_added"),
        "mirror_drops": mux.mirrors.stats.get("mirrors_dropped"),
    }


def _wl_mirror_skew(smoke: bool) -> Dict[str, object]:
    """Mirror-optimized tiering vs exclusive placement on skewed reads.

    A zipf read stream hammers a working set that starts *cold on the
    HDD* (too large for exclusive promotion to rescue outright: the
    pressure policy stops promoting at ``PROMOTE_UTIL`` of PM).  The
    ``mirror`` policy instead grants hot read-mostly files replicas on
    PM — authority stays downhill, reads route uphill — so its measured
    steady-state read tail collapses to fast-tier latency while the
    exclusive baseline keeps paying the HDD for whatever it could not
    promote.  The headline is the read-p99 ratio (baseline over
    mirrored); each row also counts the measured reads over 1 ms (at
    full size the p99 is the 25th-slowest of 2,500, so that count says
    how near the p99 is to a millisecond) and the mirror grants and
    drops.  The fingerprint pins both stacks.
    """
    files, file_bytes, io_bytes = 56, 1 * MIB, 16 * KIB
    warm_reads, measured_reads = (2500, 1000) if smoke else (5000, 2500)

    def setup(name: str):
        # two tiers, and an HDD small enough that its page cache (10%
        # of the device) cannot swallow whatever the policy leaves
        # behind: placement, not DRAM, decides the read tail
        stack = build_stack(
            tiers=["pm", "hdd"],
            capacities={"hdd": 128 * MIB},
            policy=name,
            enable_cache=False,
        )
        mux = stack.mux
        handles = populate(
            mux, "/skew", files, file_bytes, stack.tier_ids["hdd"], durable=True
        )
        # the population leaves every block clean in the HDD file
        # system's page cache (it is 10% of the device — the whole
        # working set fits); drop it so the measured stream starts
        # against cold media, the tiered-storage shape under test
        stack.drop_page_caches()

        def reads() -> Dict[str, int]:
            rng = DeterministicRng(11).fork("mirror-skew")
            # mild skew across files (every file stays warm enough to earn
            # placement), sharper skew within each file's blocks
            file_cdf = zipf_cdf(files, 0.5)
            block_cdf = zipf_cdf(file_bytes // io_bytes, 1.1)
            hist = LatencyHistogram()
            slow = 0
            for index in range(warm_reads + measured_reads):
                pump(mux, index, 100)
                fid = zipf_pick(rng, file_cdf)
                offset = zipf_pick(rng, block_cdf) * io_bytes
                if index == warm_reads:
                    settle(mux)
                s0 = stack.clock.now_ns
                mux.read(handles[fid], offset, io_bytes)
                if index >= warm_reads:
                    latency = stack.clock.now_ns - s0
                    hist.record(latency)
                    slow += latency > SLOW_READ_NS
            for handle in handles:
                mux.close(handle)
            return hist.percentiles_ns(0.5, 0.99, 0.999), slow

        return stack, reads

    def rows(stack: Stack, measured: Tuple[Dict[str, int], int]):
        mux = stack.mux
        reads, slow = measured
        from_mirror = mux.stats.get("reads_from_mirror")
        synced = mux.mirrors.stats.get("blocks_synced")
        return {
            "read_p50_us": round(reads["p50"] / 1e3, 1),
            "read_p99_us": round(reads["p99"] / 1e3, 1),
            "reads_over_1ms": slow,
            "reads_from_mirror": from_mirror,
            "mirror_blocks_synced": synced,
            **_mirror_churn(mux),
        }, {
            **{f"read_{k}": v for k, v in reads.items()},
            "reads_from_mirror": from_mirror,
            "blocks_synced": synced,
            "deadline_promotions": mux.mirrors.stats.get("deadline_promotions"),
        }

    sim_elapsed_ns, fingerprint, table, measured = _policy_duel(
        ("pressure", "mirror"), "mirror", setup, rows
    )
    reads = {name: tails for name, (tails, _) in measured.items()}
    ratio = (
        reads["pressure"]["p99"] / reads["mirror"]["p99"]
        if reads["mirror"]["p99"]
        else 0.0
    )
    return _result(
        sim_elapsed_ns / 1e9,
        fingerprint,
        {
            "population": "hdd-cold",
            "policies": table,
            "read_p99_ratio_x": round(ratio, 1),
        },
    )


#: the mirror duel adds the MOST policy to the exclusive-placement field
_MIRROR_DUEL_POLICIES = ("tpfs", "pressure", "mirror")


def _wl_mirror_trace_duel(smoke: bool) -> Dict[str, object]:
    """Canonical read-heavy zipf trace: mirrored vs exclusive placement.

    The same open-loop replay as ``trace_replay``, but on the canonical
    ``zipf`` trace (80% reads) with the population pinned *cold on the
    HDD* — the tiered-storage shape MOST targets: the authoritative
    copies live downhill, and only placement policy decides how fast the
    read tail gets rescued.  One untimed warm pass lets every policy
    converge on its steady-state placement, then the page caches drop
    (so durable placement, not leftover DRAM, serves the window) and the
    timed replay measures serving.  Exclusive promotion of the hot files
    keeps OCC-aborting against the trace's own writes; mirrors absorb
    those writes on the replica and converge in the background, so the
    mirrored stack alone gets the hot set uphill.  The events table
    shows each policy's read p99/p999, reads over 1 ms and mirror grants
    and drops, plus the mirrored stack's improvement over the best
    exclusive policy; the fingerprint pins the mirrored stack's devices
    and every policy's full latency table and counters.
    """

    def vs_exclusive(trace, reads) -> Dict[str, object]:
        mirrored = reads["mirror"]
        out: Dict[str, object] = {"population": "hdd-cold"}
        for pct in ("p99", "p999"):
            best = min(reads[n][pct] for n in ("tpfs", "pressure"))
            out[f"read_{pct}_vs_exclusive_x"] = (
                round(best / mirrored[pct], 1) if mirrored[pct] else 0.0
            )
        return out

    return _trace_duel(
        "zipf",
        smoke,
        _MIRROR_DUEL_POLICIES,
        "mirror",
        vs_exclusive,
        counters=lambda mux, res: {
            "reads_from_mirror": mux.stats.get("reads_from_mirror"),
            "blocks_synced": mux.mirrors.stats.get("blocks_synced"),
            **_mirror_churn(mux),
            "reads_over_1ms": sum(t.slow_reads for t in res.tenants.values()),
        },
        maintain_every=64,
        population_tier="hdd",
        warm_passes=1,
        drop_page_caches=True,
    )


def _wl_strata_fileserver(smoke: bool) -> Dict[str, object]:
    files, ops = (8, 100) if smoke else (20, 300)
    strata = build_strata()
    res = fileserver(strata.fs, strata.clock, files=files, operations=ops)
    return _result(res.elapsed_s, _strata_fingerprint(strata.clock, strata.devices))


def _wl_crash_matrix(smoke: bool) -> Dict[str, object]:
    """Crash-state explorer as a drift guard: the census point count, the
    per-label histogram and the summed post-recovery clocks must all be
    bit-stable, and every explored state must still recover cleanly."""
    from repro.tools.crashexplore import explore

    report = explore(smoke=smoke)
    return _result(
        report["clock_sum_ns"] / 1e9,
        {
            "now_ns": report["clock_sum_ns"],
            "devices": {},
            "cache": {},
            "sync_points": report["sync_points"],
            "by_label": report["by_label"],
            "states": report["states_explored"],
            "failures": len(report["failures"]),
            "lost_intervals": report["lost_intervals_reported"],
        },
    )


def _cluster_fingerprint(cluster) -> Dict[str, object]:
    """Simulated fingerprint of a whole cluster: per-shard devices with
    ``s<N>.`` prefixes plus summed cache counters, same shape as
    :func:`_mux_fingerprint` so ``compare_fingerprints`` needs no changes."""
    devices: Dict[str, object] = {}
    hit = miss = 0
    for shard in cluster.shards:
        for name, dev in sorted(shard.stack.devices.items()):
            devices[f"s{shard.shard_id}.{name}"] = dev.stats.snapshot()
        if shard.mux.cache is not None:
            hit += shard.mux.cache.stats.get("hit")
            miss += shard.mux.cache.stats.get("miss")
    return {
        "now_ns": cluster.clock.now_ns,
        "devices": devices,
        "cache": {"hit": hit, "miss": miss},
    }


def _cluster_specs(names: List[str]) -> List[TenantSpec]:
    """Durability-bound tenants: the shape that makes one Mux the
    bottleneck and therefore makes sharding pay.  Every write burst
    fsyncs (the database/logger pattern), so its cost is an HDD journal
    commit no page cache can absorb; reads interleave on the same
    channels and inherit the queueing delay."""
    return [
        TenantSpec(
            name=name,
            mean_interarrival_ns=25_000,
            files=4,
            file_bytes=128 * KIB,
            io_bytes=4 * KIB,
            read_fraction=0.5,
            zipf_alpha=1.1,
            fsync_bursts=True,
        )
        for name in names
    ]


def _wl_cluster_scaleout(smoke: bool) -> Dict[str, object]:
    """Sharded ClusterMux scaling + hotspot-rebalance recovery.

    Phase 1 replays one open-loop HDD-bound schedule (cache off,
    population pinned to the hdd tier) against 1-, 2- and 4-shard
    clusters on one SimClock; aggregate throughput is completed ops over
    simulated makespan, so the scaling ratio measures how well the
    shards' device timelines actually overlap.  Phase 2 deliberately
    hashes every tenant subtree onto one shard of a 4-shard cluster,
    measures the hot read p99, lets the pressure-gauge rebalancer shed
    subtrees (OCC migration over the wire), and replays the same
    schedule — the recovered p99 is the rebalance payoff.  The
    fingerprint pins every phase's devices, makespans and tails.
    """
    from repro.cluster.bench import (
        balanced_tenant_names,
        colocated_tenant_names,
        run_cluster_load,
    )
    from repro.cluster.cluster import build_cluster

    duration_ns = 300_000 if smoke else 800_000
    tenant_count = 8 if smoke else 12
    shard_counts = [1, 4] if smoke else [1, 2, 4]

    def make_cluster(n: int):
        # single-tier HDD shards: with PM in the stack the mux's
        # two-phase writes re-place every hot span onto PM and the disk
        # goes idle — the right behaviour for tiering, the wrong rig for
        # measuring scale-out.  One seek-bound tier per shard makes the
        # shard itself the bottleneck, which is what sharding must fix.
        return build_cluster(shards=n, tiers=["hdd"], enable_cache=False)

    sim_elapsed_ns = 0
    fingerprint: Dict[str, object] = {}
    table: Dict[str, object] = {}
    scaling_fp: Dict[str, object] = {}
    throughput: Dict[int, float] = {}

    # names that spread evenly over the *largest* cluster's ring (all
    # cluster sizes replay the same tenants, so offered load is constant)
    probe_ring = make_cluster(shard_counts[-1]).mux.ring
    names = balanced_tenant_names(probe_ring, "tenants", tenant_count)
    specs = _cluster_specs(names)
    for n in shard_counts:
        cluster = make_cluster(n).mux
        res, sim_ns = _timed(
            cluster.clock, lambda: run_cluster_load(cluster, specs, duration_ns, "hdd")
        )
        throughput[n] = res.completed_ops * 1e9 / res.makespan_ns
        reads = res.percentiles_ns("read")
        table[f"shards_{n}"] = {
            "kops_per_sim_s": round(throughput[n] / 1e3, 1),
            "read_p99_us": round(reads["p99"] / 1e3, 1),
        }
        scaling_fp[f"shards_{n}"] = {
            "makespan_ns": res.makespan_ns,
            "completed": res.completed_ops,
            **_tails(res, "read"),
        }
        if n == shard_counts[-1]:
            sim_elapsed_ns += sim_ns
            fingerprint = _cluster_fingerprint(cluster)
    scaling_x = throughput[shard_counts[-1]] / throughput[1]

    # -- phase 2: hotspot + rebalance -----------------------------------
    cluster = make_cluster(4).mux
    hot_names, hot_shard = colocated_tenant_names(
        cluster.ring, "tenants", tenant_count
    )
    hot_specs = _cluster_specs(hot_names)
    sim0 = cluster.clock.now_ns
    hot_res = run_cluster_load(cluster, hot_specs, duration_ns, "hdd")
    moved = cluster.rebalance(max_moves=tenant_count - 2)
    cold_res = run_cluster_load(cluster, hot_specs, duration_ns, "hdd")
    sim_elapsed_ns += cluster.clock.now_ns - sim0
    hot_p99 = hot_res.percentiles_ns("read")["p99"]
    cold_p99 = cold_res.percentiles_ns("read")["p99"]
    fingerprint["scaling"] = scaling_fp
    fingerprint["hotspot"] = {
        "hot_shard": hot_shard,
        "hot_makespan_ns": hot_res.makespan_ns,
        "hot_read_p99": hot_p99,
        "rebalanced_makespan_ns": cold_res.makespan_ns,
        "rebalanced_read_p99": cold_p99,
        "subtrees_moved": moved["moves"],
        "files_moved": moved["files_moved"],
        "bytes_moved": moved["bytes_moved"],
        "final_now_ns": cluster.clock.now_ns,
    }
    return _result(
        sim_elapsed_ns / 1e9,
        fingerprint,
        {
            "scaling_x": round(scaling_x, 2),
            "sweep": table,
            "hot_read_p99_us": round(hot_p99 / 1e3, 1),
            "rebalanced_read_p99_us": round(cold_p99 / 1e3, 1),
            "p99_recovery_x": round(hot_p99 / cold_p99, 2) if cold_p99 else 0.0,
            "subtrees_moved": moved["moves"],
        },
    )


WORKLOADS: List[Tuple[str, Callable[[bool], Dict[str, object]]]] = [
    ("seq_write", _wl_seq_write),
    ("seq_read", _wl_seq_read),
    ("hot_set_reads", _wl_hot_set),
    (
        "fileserver",
        _macro_workload(
            fileserver,
            {"files": 10, "operations": 150},
            {"files": 40, "operations": 600},
        ),
    ),
    (
        "webserver",
        _macro_workload(
            webserver,
            {"files": 30, "operations": 250},
            {"files": 100, "operations": 1000},
        ),
    ),
    ("varmail", _macro_workload(varmail, {"operations": 80}, {"operations": 300})),
    ("metadata_churn", _wl_metadata_churn),
    ("migration_churn", _wl_migration_churn),
    ("fault_storm", _wl_fault_storm),
    ("cache_writeback", _wl_cache_writeback),
    ("parallel_stripe", _wl_parallel_stripe),
    ("multi_tenant", _wl_multi_tenant),
    ("trace_replay", _wl_trace_replay),
    ("tenant_policy_duel", _wl_tenant_policy_duel),
    ("strata_fileserver", _wl_strata_fileserver),
    ("crash_matrix", _wl_crash_matrix),
    ("mirror_skew", _wl_mirror_skew),
    ("mirror_trace_duel", _wl_mirror_trace_duel),
    ("cluster_scaleout", _wl_cluster_scaleout),
]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def run_workloads(smoke: bool) -> Dict[str, Dict[str, object]]:
    """Run every workload ``SMOKE_REPS``/``FULL_REPS`` times; return name ->
    first-rep result.

    Raises ``RuntimeError`` if any repetition of a workload produces a
    different simulated fingerprint (the stack lost determinism).
    """
    reps = SMOKE_REPS if smoke else FULL_REPS
    out: Dict[str, Dict[str, object]] = {}
    for name, fn in WORKLOADS:
        out[name] = fn(smoke)
        for rep in range(1, reps):
            if fn(smoke)["fingerprint"] != out[name]["fingerprint"]:
                raise RuntimeError(
                    f"workload {name!r} rep {rep} produced a different simulated "
                    f"fingerprint — the stack is not deterministic"
                )
    return out


def compare_fingerprints(
    golden: Dict[str, object], observed: Dict[str, object]
) -> List[str]:
    """Human-readable list of differences (empty == identical)."""
    diffs: List[str] = []
    if golden.get("now_ns") != observed.get("now_ns"):
        diffs.append(f"now_ns: golden={golden.get('now_ns')} got={observed.get('now_ns')}")
    gdev = golden.get("devices", {})
    odev = observed.get("devices", {})
    for dev in sorted(set(gdev) | set(odev)):
        g, o = gdev.get(dev, {}), odev.get(dev, {})
        for key in sorted(set(g) | set(o)):
            if g.get(key) != o.get(key):
                diffs.append(f"{dev}.{key}: golden={g.get(key)} got={o.get(key)}")
    if golden.get("cache") != observed.get("cache"):
        diffs.append(f"cache: golden={golden.get('cache')} got={observed.get('cache')}")
    # workload-specific extras (e.g. parallel_stripe's serial_now_ns)
    for key in sorted((set(golden) | set(observed)) - {"now_ns", "devices", "cache"}):
        if golden.get(key) != observed.get(key):
            diffs.append(f"{key}: golden={golden.get(key)} got={observed.get(key)}")
    return diffs


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run_full(out_path: str) -> int:
    print("wallclock: full run (this takes a few minutes)...")
    full = run_workloads(smoke=False)
    smoke = run_workloads(smoke=True)
    doc = {
        "bench": "wallclock",
        "workloads": {
            name: {k: v for k, v in result.items() if k != "fingerprint"}
            for name, result in full.items()
        },
        "golden_sim": {name: result["fingerprint"] for name, result in full.items()},
        "golden_sim_smoke": {
            name: result["fingerprint"] for name, result in smoke.items()
        },
    }
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wallclock: wrote {out_path} ({len(full)} workloads)")
    return 0


def _run_smoke(out_path: str) -> int:
    try:
        with open(out_path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        print(f"wallclock --smoke: no {out_path}; run the full bench first")
        return 2
    golden = doc.get("golden_sim_smoke", {})
    if not golden:
        print(f"wallclock --smoke: {out_path} has no golden_sim_smoke section")
        return 2
    observed = run_workloads(smoke=True)
    failures = 0
    for name in sorted(set(golden) - set(observed)):
        failures += 1
        print(f"  {name}: GOLDEN WITHOUT A WORKLOAD")
    for name, result in observed.items():
        if name not in golden:
            failures += 1
            print(f"  {name}: NO GOLDEN RECORDED")
            continue
        diffs = compare_fingerprints(golden[name], result["fingerprint"])
        if diffs:
            failures += 1
            print(f"  {name}: SIMULATED-TIME DRIFT")
            for d in diffs:
                print(f"    {d}")
        else:
            print(f"  {name}: ok")
    print(f"wallclock --smoke: {len(observed)} workloads compared")
    if failures:
        print(f"wallclock --smoke: {failures} workload(s) drifted from or lack a golden")
        return 1
    print("wallclock --smoke: simulated time matches golden values")
    return 0


def _leaves(value: object, prefix: str):
    """``(dotted.key, leaf)`` of a nested fingerprint, keys sorted."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{prefix}.{key}" if prefix else key)
    else:
        yield prefix, value


def golden_moves(old: Dict[str, object], new: Dict[str, object]) -> List[Tuple]:
    """``(workload, size, field, old, new)`` per golden leaf that differs;
    a field one side lacks shows as None there."""
    moves = []
    for section, size in (("golden_sim", "full"), ("golden_sim_smoke", "smoke")):
        was, now = old.get(section, {}), new.get(section, {})
        for name in sorted(set(was) | set(now)):
            a = dict(_leaves(was.get(name, {}), ""))
            b = dict(_leaves(now.get(name, {}), ""))
            for field in sorted(set(a) | set(b)):
                if a.get(field) != b.get(field):
                    moves.append((name, size, field, a.get(field), b.get(field)))
    return moves


def _run_diff(old_path: str, new_path: str) -> int:
    docs = []
    for path in (old_path, new_path):
        try:
            with open(path) as f:
                docs.append(json.load(f))
        except FileNotFoundError:
            print(f"wallclock --diff: no {path}")
            return 2
    moves = golden_moves(*docs)
    print(f"{len(moves)} golden field(s) moved from {old_path} to {new_path}")
    if moves:
        print()
        print("| workload | size | field | old | new | new/old |")
        print("|---|---|---|---|---|---|")
    for name, size, field, a, b in moves:
        numeric = all(isinstance(v, (int, float)) for v in (a, b))
        ratio = f"{b / a:.3f}x" if numeric and a else "-"
        print(f"| `{name}` | {size} | `{field}` | {a} | {b} | {ratio} |")
    return 0


def main(argv: List[str]) -> int:
    argv = list(argv)
    out_path = pop_flag_value(argv, "--out", USAGE) or DEFAULT_OUT
    old_path = pop_flag_value(argv, "--diff", USAGE)
    # a typo must not fall through to the full run, which rewrites the
    # goldens
    reject_unknown(argv, ("--smoke",), USAGE)
    if old_path is not None:
        if "--smoke" in argv:
            print(f"--diff runs nothing and takes no --smoke; {USAGE}", file=sys.stderr)
            return 2
        return _run_diff(old_path, out_path)
    if "--smoke" in argv:
        return _run_smoke(out_path)
    return _run_full(out_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
