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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.qos import IoClass
from repro.errors import InvalidArgument
from repro.sim.histogram import LatencyHistogram
from repro.sim.rng import DeterministicRng

KIB = 1024

#: deterministic write payload pattern (content never affects placement)
_PAYLOAD_BYTE = 0x5A


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


@dataclass
class TenantResult:
    """Measured behaviour of one tenant."""

    name: str
    reads: LatencyHistogram = field(default_factory=LatencyHistogram)
    writes: LatencyHistogram = field(default_factory=LatencyHistogram)
    submitted: int = 0
    errors: int = 0

    @property
    def ops(self) -> int:
        return self.reads.count + self.writes.count


@dataclass
class MultiTenantResult:
    """Aggregate outcome of one open-loop run."""

    tenants: Dict[str, TenantResult]
    offered_ops: int
    duration_ns: int
    ring_depth: int
    #: migration orders the policy submitted during maintenance rounds
    migrations_submitted: int = 0

    def merged(self, op: str = "read") -> LatencyHistogram:
        """All tenants' latencies for ``op`` folded into one histogram."""
        out = LatencyHistogram()
        for tenant in self.tenants.values():
            out.merge(tenant.reads if op == "read" else tenant.writes)
        return out

    def percentiles_ns(self, op: str = "read") -> Dict[str, int]:
        """Aggregate p50/p99/p999 for ``op`` in integer ns."""
        return self.merged(op).percentiles_ns(0.5, 0.99, 0.999)

    @property
    def completed_ops(self) -> int:
        return sum(t.ops for t in self.tenants.values())


# ---------------------------------------------------------------------------
# deterministic arrival + skew machinery
# ---------------------------------------------------------------------------


def _zipf_cdf(n: int, alpha: float) -> List[float]:
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


def _zipf_pick(rng: DeterministicRng, cdf: List[float]) -> int:
    return bisect_left(cdf, rng.random())


def _exp_gap(rng: DeterministicRng, mean_ns: float) -> int:
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
        file_cdf = _zipf_cdf(spec.files, spec.zipf_alpha)
        block_cdf = _zipf_cdf(spec.file_bytes // spec.io_bytes, spec.zipf_alpha)
        t = 0
        seq = 0
        while True:
            if spec.arrival == "bursty":
                t += _exp_gap(rng, spec.mean_interarrival_ns * spec.burst_size)
                burst = spec.burst_size
            else:
                t += _exp_gap(rng, spec.mean_interarrival_ns)
                burst = 1
            if t >= duration_ns:
                break
            touched: List[int] = []
            for _ in range(burst):
                op = "read" if rng.random() < spec.read_fraction else "write"
                file_idx = _zipf_pick(rng, file_cdf)
                block = _zipf_pick(rng, block_cdf)
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


def run_multi_tenant(
    stack,
    specs: List[TenantSpec],
    duration_ns: int,
    ring_depth: int = 8,
    seed: int = 2026,
    root: str = "/tenants",
    population_tier: Optional[int] = None,
    maintain_every: int = 0,
    durable_population: bool = False,
) -> MultiTenantResult:
    """Drive the open-loop schedule against ``stack``; returns latencies.

    ``ring_depth`` bounds each tenant's async window: 8 is the overlapped
    configuration, 1 the serialized baseline.  Setup (population writes,
    QoS registration) happens before the measured schedule starts.

    ``population_tier`` pins every population file to that tier id for
    the setup writes (the pin is cleared before the measured schedule).
    Policy head-to-head comparisons need it: otherwise each policy places
    the population differently and the measured read path compares
    *population placement* rather than steady-state behaviour.

    ``maintain_every`` (0 = off, the default) plans migrations every N
    events via ``mux.maintain_async()`` and advances in-flight copies one
    cooperative step per event, so migrating policies get to act during
    the measured window — policy duels need it, while the async-vs-depth1
    ablation keeps it off so placement stays frozen across depths.

    ``durable_population`` fsyncs every population file before the
    measured window, so dirty page-cache debt and full device write
    buffers from setup are not billed to the first measured ops.
    """
    mux = stack.mux
    events = generate_schedule(specs, duration_ns, seed)

    # -- population + QoS setup (unmeasured) ----------------------------
    mux.mkdir(root)
    qos = None
    if any(s.qos_class is not None for s in specs):
        qos = mux.qos if mux.qos is not None else mux.enable_qos()
    handles: List[List] = []
    for spec in specs:
        mux.mkdir(f"{root}/{spec.name}")
        if spec.qos_class is not None:
            qos.register(spec.qos_class)
        tenant_handles = []
        payload = bytes([_PAYLOAD_BYTE]) * spec.file_bytes
        for i in range(spec.files):
            path = f"{root}/{spec.name}/f{i}"
            if population_tier is not None:
                mux.close(mux.create(path))
                mux.set_placement(path, population_tier)
                mux.write_file(path, payload)
                mux.set_placement(path, None)
            else:
                mux.write_file(path, payload)
            handle = mux.open(path)
            if durable_population:
                mux.fsync(handle)
            if spec.qos_class is not None:
                qos.tag(handle, spec.qos_class.name)
            tenant_handles.append(handle)
        handles.append(tenant_handles)

    results, migrations, _ = _drive_open_loop(
        mux, specs, events, handles, ring_depth, maintain_every
    )
    for tenant_handles in handles:
        for handle in tenant_handles:
            mux.close(handle)

    return MultiTenantResult(
        tenants=results,
        offered_ops=len(events),
        duration_ns=duration_ns,
        ring_depth=ring_depth,
        migrations_submitted=migrations,
    )


def _drive_open_loop(
    front,
    specs: List[TenantSpec],
    events: List[Event],
    handles: List[List],
    ring_depth: int,
    maintain_every: int = 0,
) -> Tuple[Dict[str, TenantResult], int, int]:
    """The measured window: replay ``events`` through one ring per tenant.

    ``front`` is whatever serves the ring API — a Mux or a ``ClusterMux``
    — and ``handles[tenant][file]`` the open population.  The clock
    advances to each op's intended arrival, due completions are reaped,
    the op is submitted; latency is completion minus *intended* arrival.
    Returns the per-tenant results, the migration orders submitted by
    the ``maintain_every`` rounds, and the makespan (ns from the first
    arrival to the last drained completion, before in-flight migrations
    are drained).
    """
    clock = front.clock
    results = {spec.name: TenantResult(spec.name) for spec in specs}
    rings = [front.open_ring(depth=ring_depth) for _ in specs]
    #: ring seq -> (intended arrival, op) per tenant
    outstanding: List[Dict[int, Tuple[int, str]]] = [{} for _ in specs]

    def harvest(idx: int, completions) -> None:
        tenant = results[specs[idx].name]
        book = outstanding[idx]
        for c in completions:
            arrival, op = book.pop(c.seq)
            if c.error is not None:
                tenant.errors += 1
                continue
            latency = c.completed_ns - arrival
            (tenant.reads if op == "read" else tenant.writes).record(latency)

    migrations = 0
    start_ns = clock.now_ns
    for index, (arrival, idx, _seq, op, file_idx, offset) in enumerate(events):
        clock.advance_to(start_ns + arrival)
        harvest(idx, rings[idx].poll())
        if maintain_every:
            if index and index % maintain_every == 0:
                migrations += front.maintain_async()
            # the background copier runs continuously: advance in-flight
            # migrations every event, otherwise one multi-chunk copy
            # spans many bursts and OCC-aborts on each (see tracereplay)
            front.engine.tick()
        spec = specs[idx]
        handle = handles[idx][file_idx]
        if op == "read":
            sub = rings[idx].submit_read(handle, offset, spec.io_bytes)
        elif op == "write":
            payload = bytes([_PAYLOAD_BYTE]) * spec.io_bytes
            sub = rings[idx].submit_write(handle, offset, payload)
        else:
            sub = rings[idx].submit_fsync(handle)
        outstanding[idx][sub.seq] = (start_ns + arrival, op)
        results[spec.name].submitted += 1

    for idx, ring in enumerate(rings):
        harvest(idx, ring.drain())
        ring.close()
    makespan_ns = clock.now_ns - start_ns
    if maintain_every:
        front.engine.drain()
    return results, migrations, makespan_ns


# ---------------------------------------------------------------------------
# fairness: per-tenant slowdown versus an isolated run
# ---------------------------------------------------------------------------


def fairness_slowdowns(
    stack_factory,
    specs: List[TenantSpec],
    duration_ns: int,
    ring_depth: int = 8,
    seed: int = 2026,
    population_tier_name: Optional[str] = None,
    maintain_every: int = 0,
    durable_population: bool = False,
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
    tenants share the device channels.  Returns the shared run's result
    plus ``{tenant: {"shared_p99_ns", "isolated_p99_ns", ...}}`` with
    integer-ns read latencies (fingerprint-safe).
    """

    def _run(run_specs: List[TenantSpec]) -> MultiTenantResult:
        stack = stack_factory()
        tier = (
            stack.tier_ids[population_tier_name]
            if population_tier_name is not None
            else None
        )
        return run_multi_tenant(
            stack,
            run_specs,
            duration_ns,
            ring_depth=ring_depth,
            seed=seed,
            population_tier=tier,
            maintain_every=maintain_every,
            durable_population=durable_population,
        )

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


def slowdown_x(entry: Dict[str, int], pct: str = "p99") -> float:
    """Shared/isolated ratio for one :func:`fairness_slowdowns` entry."""
    isolated = entry[f"isolated_{pct}_ns"]
    return entry[f"shared_{pct}_ns"] / isolated if isolated else 0.0
