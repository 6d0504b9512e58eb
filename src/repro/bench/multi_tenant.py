"""Open-loop multi-tenant traffic engine with tail-latency reporting.

The "millions of users" north star needs a measurement harness whose
arrival process does **not** slow down when the storage stack does — the
defining property of open-loop load generation (a closed loop hides
queueing collapse, because a slow system stops being asked).  Each
simulated tenant owns a file population and an arrival process (Poisson
or bursty), pre-generated deterministically before a single op runs, so
the offered load is a pure function of the seed.

Ops are dispatched through per-tenant async submit/complete rings
(:mod:`repro.core.ring`): the global clock is advanced to each op's
*intended arrival instant* and the op is submitted there, overlapping
with everything already in flight.  Latency is measured from intended
arrival to completion, so ring backpressure and device backlog show up as
queueing delay — exactly what p99/p999 under offered load means.  With
``ring_depth=1`` the same schedule degenerates to a serialized
one-op-per-tenant baseline, which is the ablation the async API is
judged against.

Per-tenant latencies aggregate into
:class:`~repro.sim.histogram.LatencyHistogram`\\ s (reads and writes
separately), merged across tenants for the headline p50/p99/p999.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.openloop import (
    MultiTenantResult,
    TraceOp,
    drive_open_loop,
    populate,
)
from repro.core.qos import IoClass
from repro.errors import InvalidArgument
from repro.sim.rng import DeterministicRng

KIB = 1024


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a file population plus an arrival process."""

    name: str
    #: mean inter-arrival gap in ns (offered load = 1e9 / mean ops/s)
    mean_interarrival_ns: int
    files: int = 4
    file_bytes: int = 128 * KIB
    #: bytes per read/write op
    io_bytes: int = 4 * KIB
    read_fraction: float = 0.8
    #: zipf skew over file and block choices (higher = hotter hot set)
    zipf_alpha: float = 1.1
    #: "poisson" (memoryless gaps) or "bursty" (whole bursts arrive at
    #: Poisson instants, every op in a burst at the same arrival time)
    arrival: str = "poisson"
    burst_size: int = 4
    #: fsync every file a burst wrote, 1 ns after the burst — the
    #: database/logger pattern: the burst demands durability, so its cost
    #: cannot hide in volatile device write buffers.  (With "poisson"
    #: arrivals each write is its own burst, so this fsyncs every write.)
    fsync_bursts: bool = False
    #: registered with the Mux QoS manager and tagged on every handle
    qos_class: Optional[IoClass] = None

    def __post_init__(self) -> None:
        if self.mean_interarrival_ns <= 0:
            raise InvalidArgument("mean_interarrival_ns must be positive")
        if self.files < 1 or self.file_bytes < self.io_bytes or self.io_bytes < 1:
            raise InvalidArgument(f"bad population shape for tenant {self.name!r}")
        if self.arrival not in ("poisson", "bursty"):
            raise InvalidArgument(f"unknown arrival process {self.arrival!r}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise InvalidArgument("read_fraction must be in [0, 1]")


# ---------------------------------------------------------------------------
# deterministic arrival + skew machinery
# ---------------------------------------------------------------------------


def zipf_cdf(n: int, alpha: float) -> List[float]:
    """Cumulative zipf weights over ranks 1..n (rank 0 is hottest)."""
    weights = [1.0 / (r + 1) ** alpha for r in range(n)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0  # guard float residue
    return cdf


def zipf_pick(rng: DeterministicRng, cdf: List[float]) -> int:
    return bisect_left(cdf, rng.random())


def exp_gap(rng: DeterministicRng, mean_ns: float) -> int:
    """One exponential inter-arrival gap (at least 1 ns, so time moves)."""
    u = rng.random()
    return max(1, round(-mean_ns * math.log(1.0 - u)))


#: (arrival_ns, tenant_idx, tenant_seq, op, file_idx, offset)
Event = Tuple[int, int, int, str, int, int]


def generate_schedule(
    specs: List[TenantSpec], duration_ns: int, seed: int
) -> List[Event]:
    """Pre-generate the merged open-loop arrival schedule.

    Every random draw happens here, before any op executes, so the
    offered load cannot react to the stack's behaviour.  The merge is
    sorted by ``(arrival_ns, tenant_idx, tenant_seq)`` — fully
    deterministic, including ties (a burst's ops share one arrival).
    """
    root = DeterministicRng(seed)
    events: List[Event] = []
    for idx, spec in enumerate(specs):
        rng = root.fork(f"tenant-{spec.name}")
        file_cdf = zipf_cdf(spec.files, spec.zipf_alpha)
        block_cdf = zipf_cdf(spec.file_bytes // spec.io_bytes, spec.zipf_alpha)
        t = 0
        seq = 0
        while True:
            if spec.arrival == "bursty":
                t += exp_gap(rng, spec.mean_interarrival_ns * spec.burst_size)
                burst = spec.burst_size
            else:
                t += exp_gap(rng, spec.mean_interarrival_ns)
                burst = 1
            if t >= duration_ns:
                break
            touched: List[int] = []
            for _ in range(burst):
                op = "read" if rng.random() < spec.read_fraction else "write"
                file_idx = zipf_pick(rng, file_cdf)
                block = zipf_pick(rng, block_cdf)
                events.append((t, idx, seq, op, file_idx, block * spec.io_bytes))
                seq += 1
                if op == "write" and spec.fsync_bursts and file_idx not in touched:
                    touched.append(file_idx)
            for file_idx in touched:
                events.append((t + 1, idx, seq, "fsync", file_idx, 0))
                seq += 1
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return events


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

#: every tenant's population lives in ``/tenants/<name>/f<i>``
TENANT_ROOT = "/tenants"
#: the seed of every replayed schedule
SCHEDULE_SEED = 2026


def run_multi_tenant(
    stack,
    specs: List[TenantSpec],
    duration_ns: int,
    ring_depth: int,
    population_tier: Optional[str] = None,
    maintain_every: int = 0,
    durable_population: bool = False,
) -> MultiTenantResult:
    """Drive the open-loop schedule against ``stack``; returns latencies.

    ``ring_depth`` bounds each tenant's async window: 8 is the overlapped
    configuration, 1 the serialized baseline.  Setup (population writes,
    QoS registration) happens before the measured schedule starts;
    ``population_tier`` (a tier *name*) and ``durable_population`` are
    :func:`~repro.bench.openloop.populate`'s ``tier`` and ``durable``.

    ``maintain_every`` (0 = off, the default) lets placement act during
    the measured window (:func:`~repro.bench.openloop.pump`) — policy
    duels need it, while the async-vs-depth1 ablation keeps it off so
    placement stays frozen across depths.
    """
    mux = stack.mux
    mux.mkdir(TENANT_ROOT)
    qos = None
    if any(s.qos_class is not None for s in specs):
        qos = mux.qos if mux.qos is not None else mux.enable_qos()
    tier = stack.tier_ids[population_tier] if population_tier is not None else None
    handles: List[List] = []
    for spec in specs:
        handles.append(
            populate(
                mux, f"{TENANT_ROOT}/{spec.name}", spec.files, spec.file_bytes,
                tier, durable_population,
            )
        )
        if spec.qos_class is not None:
            qos.register(spec.qos_class)
            for handle in handles[-1]:
                qos.tag(handle, spec.qos_class.name)
    return replay_schedule(mux, specs, handles, duration_ns, ring_depth, maintain_every)


def replay_schedule(
    front,
    specs: List[TenantSpec],
    handles: List[List],
    duration_ns: int,
    ring_depth: int,
    maintain_every: int,
) -> MultiTenantResult:
    """The measured window of a tenant run: generate the schedule, replay
    it against ``front`` (a Mux or a ``ClusterMux``) with one stream per
    tenant over the open population ``handles[tenant][file]``, close it."""
    ops = [
        TraceOp(
            arrival, op, file_idx, offset,
            0 if op == "fsync" else specs[idx].io_bytes, idx,
        )
        for arrival, idx, _seq, op, file_idx, offset in generate_schedule(
            specs, duration_ns, SCHEDULE_SEED
        )
    ]
    result = drive_open_loop(
        front, [spec.name for spec in specs], ops, handles, ring_depth, maintain_every
    )
    for tenant_handles in handles:
        for handle in tenant_handles:
            front.close(handle)
    return result


# ---------------------------------------------------------------------------
# fairness: per-tenant slowdown versus an isolated run
# ---------------------------------------------------------------------------


def fairness_slowdowns(
    stack_factory,
    specs: List[TenantSpec],
    duration_ns: int,
    **run_kwargs,
) -> Tuple[MultiTenantResult, Dict[str, Dict[str, int]]]:
    """Run the shared schedule, then each tenant alone; report slowdowns.

    :func:`generate_schedule` forks the rng per tenant *name*, so a
    single-tenant run replays exactly the arrivals, ops and offsets that
    tenant would have issued in the shared run — the isolated run is a
    true counterfactual, not a re-roll.  The per-tenant slowdown (shared
    tail latency over isolated tail latency) is the classic multi-tenant
    fairness metric: 1.0x means perfect isolation, and the *spread*
    between tenants shows who pays for whom.

    ``stack_factory`` must build identically-configured fresh stacks (one
    for the shared run, one per tenant), so the only variable is which
    tenants share the device channels; ``run_kwargs`` go to every
    :func:`run_multi_tenant` call.  Returns the shared run's result
    plus ``{tenant: {"shared_p99_ns", "isolated_p99_ns", ...}}`` with
    integer-ns read latencies (fingerprint-safe).
    """

    def _run(run_specs: List[TenantSpec]) -> MultiTenantResult:
        return run_multi_tenant(stack_factory(), run_specs, duration_ns, **run_kwargs)

    shared = _run(specs)
    report: Dict[str, Dict[str, int]] = {}
    for spec in specs:
        isolated = _run([spec])
        shared_reads = shared.tenants[spec.name].reads
        isolated_reads = isolated.tenants[spec.name].reads
        report[spec.name] = {
            "shared_p50_ns": round(shared_reads.percentile(0.5)),
            "shared_p99_ns": round(shared_reads.percentile(0.99)),
            "isolated_p50_ns": round(isolated_reads.percentile(0.5)),
            "isolated_p99_ns": round(isolated_reads.percentile(0.99)),
        }
    return shared, report


def slowdown_x(entry: Dict[str, int]) -> float:
    """Shared/isolated read-p99 ratio for one :func:`fairness_slowdowns` entry."""
    isolated = entry["isolated_p99_ns"]
    return entry["shared_p99_ns"] / isolated if isolated else 0.0
