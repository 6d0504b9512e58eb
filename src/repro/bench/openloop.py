"""The one open-loop harness: population, ring driver, background pump.

A multi-tenant schedule and a block trace are the same thing — a list of
:class:`TraceOp` records sorted by intended arrival; a trace is the
one-stream case.  Every open-loop benchmark (``run_multi_tenant``,
``run_cluster_load``, ``replay_trace``) populates its files with
:func:`populate`, replays its records with :func:`drive_open_loop` and
lets placement act through :func:`pump` / :func:`settle`, so "how is a
population pinned", "how is latency booked" and "which background movers
exist and in what order they step" each have one answer.

The load is open-loop: the clock is advanced to each op's *intended
arrival* and latency is measured from that instant, so ring backpressure
and device backlog show up as queueing delay instead of silently slowing
the arrival process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.histogram import LatencyHistogram

#: deterministic write payload pattern (content never affects placement)
PAYLOAD_BYTE = 0x5A
#: a read slower than this counts in :attr:`TenantResult.slow_reads`
SLOW_READ_NS = 1_000_000


@dataclass(frozen=True)
class TraceOp:
    """One record: an I/O against a pre-populated file set."""

    arrival_ns: int
    op: str  # "read" | "write" | "fsync"
    file_id: int
    offset: int
    length: int
    #: which submitter issues it (index into the driver's rings and
    #: handle lists); a plain trace is all stream 0
    stream: int = 0


@dataclass
class TenantResult:
    """Measured behaviour of one stream."""

    name: str
    reads: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: writes and fsyncs
    writes: LatencyHistogram = field(default_factory=LatencyHistogram)
    submitted: int = 0
    errors: int = 0
    #: failed completions by exception class name (NoSpace, TierOffline…)
    error_kinds: Dict[str, int] = field(default_factory=dict)
    #: reads slower than ``SLOW_READ_NS``: the tail a p99 sits on
    slow_reads: int = 0

    @property
    def ops(self) -> int:
        return self.reads.count + self.writes.count


@dataclass
class MultiTenantResult:
    """Aggregate outcome of one open-loop run."""

    tenants: Dict[str, TenantResult]
    offered_ops: int
    #: migration orders the policy submitted during maintenance rounds
    migrations_submitted: int = 0
    #: ns from the first arrival to the last drained completion (before
    #: in-flight migrations are drained); ``completed_ops / makespan`` is
    #: the throughput that must scale with shard count
    makespan_ns: int = 0

    def merged(self, op: str) -> LatencyHistogram:
        """All streams' latencies for ``op`` folded into one histogram."""
        out = LatencyHistogram()
        for tenant in self.tenants.values():
            out.merge(tenant.reads if op == "read" else tenant.writes)
        return out

    def percentiles_ns(self, op: str) -> Dict[str, int]:
        """Aggregate p50/p99/p999 for ``op`` in integer ns."""
        return self.merged(op).percentiles_ns(0.5, 0.99, 0.999)

    @property
    def completed_ops(self) -> int:
        return sum(t.ops for t in self.tenants.values())

    @property
    def submitted(self) -> int:
        return sum(t.submitted for t in self.tenants.values())

    @property
    def errors(self) -> int:
        return sum(t.errors for t in self.tenants.values())


def populate(
    front,
    directory: str,
    files: int,
    file_bytes: int,
    tier: Optional[int],
    durable: bool,
    reuse: bool = False,
) -> List:
    """Create ``directory`` and write ``f0..f<files-1>`` into it (unmeasured
    setup); returns the open handles.

    ``tier`` pins every file to that tier id for the population write and
    clears the pin afterwards.  Head-to-head policy comparisons need it:
    otherwise each policy places the population differently and the
    measured window compares *population placement*, not steady-state
    behaviour.

    ``durable`` fsyncs every file, so dirty page-cache debt and full
    device write buffers from setup are not billed to the first measured
    ops.

    ``reuse`` makes the call idempotent (a hotspot run is replayed after
    a rebalance against the already-moved subtrees) at the price of an
    ``exists()`` per path, which costs simulated time — so it is off
    unless the caller repopulates.
    """
    if not (reuse and front.exists(directory)):
        front.mkdir(directory)
    payload = bytes([PAYLOAD_BYTE]) * file_bytes
    handles = []
    for i in range(files):
        path = f"{directory}/f{i}"
        if tier is not None:
            if not (reuse and front.exists(path)):
                front.close(front.create(path))
            front.set_placement(path, tier)
            front.write_file(path, payload)
            front.set_placement(path, None)
        else:
            front.write_file(path, payload)
        handle = front.open(path)
        if durable:
            front.fsync(handle)
        handles.append(handle)
    return handles


def pump(front, index: int, plan_every: int) -> int:
    """One background step ahead of op ``index``; returns orders planned.

    Every ``plan_every`` ops (0 = placement frozen, nothing runs) the
    policy plans migrations and mirrors (``maintain_async``); on *every*
    op the in-flight migrations and stale mirrors advance one cooperative
    step — the background copier runs continuously, otherwise one
    multi-chunk copy spans many bursts of foreground writes and
    OCC-aborts on each.  Both steps are instant no-ops when idle.
    """
    if not plan_every:
        return 0
    orders = front.maintain_async() if index and index % plan_every == 0 else 0
    front.engine.tick()
    front.mirrors.tick()
    return orders


def settle(front, converge: bool = True) -> None:
    """Run background work to completion.

    Between phases (``converge``): plan once more, then finish every
    migration and mirror sync, so the next window sees each policy's
    steady-state placement rather than the transient cost of reaching it.
    At the end of a measured window (``converge=False``) only the
    migrations already in flight are finished — planning more, or
    syncing mirrors the policy was content to leave stale, would add
    work the window never asked for.
    """
    if converge:
        front.maintain_async()
    front.engine.drain()
    if converge:
        front.mirrors.drain()


def drive_open_loop(
    front,
    names: Sequence[str],
    ops: Sequence[TraceOp],
    handles: Sequence[Sequence],
    ring_depth: int,
    plan_every: int,
) -> MultiTenantResult:
    """The measured window: replay ``ops`` through one ring per stream.

    ``front`` is whatever serves the ring API — a Mux or a ``ClusterMux``
    — ``names[stream]`` labels each stream's result and
    ``handles[stream][file_id]`` is its open population.  Per op: advance
    the clock to the intended arrival, reap the stream's due completions,
    :func:`pump`, submit; latency is completion minus *intended* arrival.
    ``ring_depth`` bounds each stream's async window (1 = the serialized
    baseline).  With ``plan_every`` the migrations still in flight after
    the last completion are drained before returning.
    """
    clock = front.clock
    tenants = [TenantResult(name) for name in names]
    rings = [front.open_ring(depth=ring_depth) for _ in names]
    #: ring seq -> (intended arrival, op) per stream
    outstanding: List[Dict[int, Tuple[int, str]]] = [{} for _ in names]

    def harvest(stream: int, completions) -> None:
        tenant = tenants[stream]
        book = outstanding[stream]
        for c in completions:
            arrival, op = book.pop(c.seq)
            if c.error is not None:
                tenant.errors += 1
                kind = type(c.error).__name__
                tenant.error_kinds[kind] = tenant.error_kinds.get(kind, 0) + 1
                continue
            latency = c.completed_ns - arrival
            if op == "read":
                tenant.reads.record(latency)
                tenant.slow_reads += latency > SLOW_READ_NS
            else:
                tenant.writes.record(latency)

    migrations = 0
    start_ns = clock.now_ns
    for index, op in enumerate(ops):
        stream = op.stream
        ring = rings[stream]
        due_ns = start_ns + op.arrival_ns
        clock.advance_to(due_ns)
        harvest(stream, ring.poll())
        migrations += pump(front, index, plan_every)
        handle = handles[stream][op.file_id]
        if op.op == "read":
            sub = ring.submit_read(handle, op.offset, op.length)
        elif op.op == "write":
            sub = ring.submit_write(
                handle, op.offset, bytes([PAYLOAD_BYTE]) * op.length
            )
        else:
            sub = ring.submit_fsync(handle)
        outstanding[stream][sub.seq] = (due_ns, op.op)
        tenants[stream].submitted += 1

    for stream, ring in enumerate(rings):
        harvest(stream, ring.drain())
        ring.close()
    makespan_ns = clock.now_ns - start_ns
    if plan_every:
        settle(front, converge=False)
    return MultiTenantResult(
        {tenant.name: tenant for tenant in tenants}, len(ops), migrations, makespan_ns
    )
