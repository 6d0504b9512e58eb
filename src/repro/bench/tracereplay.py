"""Trace-driven replay benchmark.

Synthetic arrival processes answer "does the policy react to pressure";
block traces answer "does it react to *this* workload".  This module
defines a block trace, deterministic generators for the two shapes the
policy duels run on (zipf steady-state, bursty writers over a read
floor), and :func:`replay_trace`, which drives a trace through the one
open-loop harness (:mod:`repro.bench.openloop`) against any stack — so
every registered policy can be benchmarked head-to-head on identical
offered load.

A trace is a list of ``(arrival_ns, op, file_id, offset, length)``
records against a pre-populated file set of ``files`` files of
``file_bytes`` each (``file_id`` in ``[0, files)``, ``offset + length <=
file_bytes``).  An ``fsync`` record syncs ``file_id`` (offset and length
are 0) — bursty writers in the wild are databases and loggers, and what
makes their bursts hurt is that they demand durability: the fsync is
where buffered writes become device traffic.  Arrivals are offsets from
replay start and must be non-decreasing.  The replay is open-loop: the
clock is advanced to each op's intended arrival and latency is measured
from that instant, so backlog shows up as queueing delay rather than as
a slower trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bench.multi_tenant import exp_gap, zipf_cdf, zipf_pick
from repro.bench.openloop import (
    PAYLOAD_BYTE,
    MultiTenantResult,
    TraceOp,
    drive_open_loop,
    populate,
    pump,
    settle,
)
from repro.errors import InvalidArgument
from repro.sim.rng import DeterministicRng

KIB = 1024
MIB = 1024 * KIB


@dataclass
class BlockTrace:
    """A generated block trace."""

    ops: List[TraceOp]
    files: int
    file_bytes: int

    @property
    def duration_ns(self) -> int:
        return self.ops[-1].arrival_ns if self.ops else 0

    def op_mix(self) -> Dict[str, int]:
        mix: Dict[str, int] = {}
        for op in self.ops:
            mix[op.op] = mix.get(op.op, 0) + 1
        return mix

    def truncated(self, fraction: float) -> "BlockTrace":
        """A prefix of the trace covering ``fraction`` of its duration."""
        if not 0.0 < fraction <= 1.0:
            raise InvalidArgument("fraction must be in (0, 1]")
        cutoff = int(self.duration_ns * fraction)
        ops = [op for op in self.ops if op.arrival_ns <= cutoff]
        return BlockTrace(ops, self.files, self.file_bytes)

    def validate(self) -> None:
        last = 0
        for op in self.ops:
            if op.arrival_ns < last:
                raise InvalidArgument("trace arrivals must be non-decreasing")
            last = op.arrival_ns
            if op.op not in ("read", "write", "fsync"):
                raise InvalidArgument(f"bad op {op.op!r}")
            if not 0 <= op.file_id < self.files:
                raise InvalidArgument(f"file_id {op.file_id} out of range")
            if op.op == "fsync":
                if op.offset or op.length:
                    raise InvalidArgument("fsync records carry no offset/length")
                continue
            if op.offset < 0 or op.length < 1:
                raise InvalidArgument("bad offset/length")
            if op.offset + op.length > self.file_bytes:
                raise InvalidArgument("op extends past file_bytes")


# ---------------------------------------------------------------------------
# generators — deterministic in the seed, like every arrival process here
# ---------------------------------------------------------------------------


def zipf_trace(
    duration_ns: int,
    files: int = 16,
    file_bytes: int = 1 * MIB,
    io_bytes: int = 16 * KIB,
    mean_gap_ns: int = 6_000,
    alpha: float = 1.1,
    read_fraction: float = 0.8,
    seed: int = 7,
) -> BlockTrace:
    """Steady-state zipf traffic: Poisson arrivals, skewed file/block picks."""
    rng = DeterministicRng(seed).fork("zipf-trace")
    file_cdf = zipf_cdf(files, alpha)
    block_cdf = zipf_cdf(file_bytes // io_bytes, alpha)
    ops: List[TraceOp] = []
    t = 0
    while True:
        t += exp_gap(rng, mean_gap_ns)
        if t >= duration_ns:
            break
        op = "read" if rng.random() < read_fraction else "write"
        file_id = zipf_pick(rng, file_cdf)
        offset = zipf_pick(rng, block_cdf) * io_bytes
        ops.append(TraceOp(t, op, file_id, offset, io_bytes))
    trace = BlockTrace(ops, files, file_bytes)
    trace.validate()
    return trace


def bursty_trace(
    duration_ns: int,
    files: int = 16,
    file_bytes: int = 1 * MIB,
    read_bytes: int = 16 * KIB,
    read_gap_ns: int = 6_000,
    write_bytes: int = 128 * KIB,
    burst_gap_ns: int = 120_000,
    burst_size: int = 8,
    alpha: float = 1.1,
    seed: int = 7,
) -> BlockTrace:
    """A zipf read floor with write bursts landing at Poisson instants.

    Every op in a burst shares one arrival — the worst case for a queue:
    the backlog jumps by ``burst_size`` writes instantly, and any read
    arriving behind it eats the whole queue.  Each file the burst touched
    is fsynced right after it (arrival + 1 ns), the database/logger
    pattern: the burst demands durability, so its cost cannot hide in
    volatile write buffers.  This is the shape where pressure-blind
    placement loses its read tail.
    """
    rng = DeterministicRng(seed).fork("bursty-trace")
    file_cdf = zipf_cdf(files, alpha)
    read_cdf = zipf_cdf(file_bytes // read_bytes, alpha)
    write_slots = file_bytes // write_bytes
    write_cdf = zipf_cdf(write_slots, alpha)
    ops: List[TraceOp] = []
    t = 0
    while True:  # read floor
        t += exp_gap(rng, read_gap_ns)
        if t >= duration_ns:
            break
        file_id = zipf_pick(rng, file_cdf)
        offset = zipf_pick(rng, read_cdf) * read_bytes
        ops.append(TraceOp(t, "read", file_id, offset, read_bytes))
    t = 0
    while True:  # write bursts
        t += exp_gap(rng, burst_gap_ns)
        if t >= duration_ns:
            break
        touched: List[int] = []
        for _ in range(burst_size):
            file_id = zipf_pick(rng, file_cdf)
            offset = zipf_pick(rng, write_cdf) * write_bytes
            ops.append(TraceOp(t, "write", file_id, offset, write_bytes))
            if file_id not in touched:
                touched.append(file_id)
        for file_id in touched:
            ops.append(TraceOp(t + 1, "fsync", file_id, 0, 0))
    ops.sort(key=lambda op: (op.arrival_ns, op.op, op.file_id, op.offset))
    trace = BlockTrace(ops, files, file_bytes)
    trace.validate()
    return trace


# ---------------------------------------------------------------------------
# canonical traces — generated from pinned parameters
# ---------------------------------------------------------------------------

#: the two canonical shapes the policy duels run on.  ``bursty`` is the
#: headline scenario: a 16 KiB zipf read floor with 4 MiB fsynced write
#: bursts every ~4 ms — long enough (60 ms) that placement decisions,
#: not population luck, decide the read tail.  Parameters are part of the
#: benchmark contract (test_tracereplay pins a sha256 of each trace's
#: records).
CANONICAL_TRACE_PARAMS: Dict[str, Dict[str, object]] = {
    "bursty": dict(
        generator=bursty_trace,
        duration_ns=60_000_000,
        files=48,
        file_bytes=2 * MIB,
        read_bytes=16 * KIB,
        read_gap_ns=15_000,
        write_bytes=128 * KIB,
        burst_gap_ns=4_000_000,
        burst_size=32,
        alpha=1.0,
        seed=7,
    ),
    "zipf": dict(
        generator=zipf_trace,
        duration_ns=30_000_000,
        files=48,
        file_bytes=2 * MIB,
        io_bytes=16 * KIB,
        mean_gap_ns=12_000,
        alpha=1.1,
        read_fraction=0.8,
        seed=7,
    ),
}


def canonical_trace(name: str) -> BlockTrace:
    """Generate one canonical trace from its pinned parameters."""
    if name not in CANONICAL_TRACE_PARAMS:
        raise InvalidArgument(f"unknown canonical trace {name!r}")
    params = dict(CANONICAL_TRACE_PARAMS[name])
    return params.pop("generator")(**params)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def replay_trace(
    stack,
    trace: BlockTrace,
    ring_depth: int = 8,
    maintain_every: int = 64,
    population_tier: Optional[str] = "ssd",
    warm_passes: int = 0,
    drop_page_caches: bool = False,
) -> MultiTenantResult:
    """Open-loop replay of ``trace`` against ``stack`` (one stream).

    The file population (``trace.files`` files of ``trace.file_bytes``)
    is written and made durable before the measured window — pinned to
    ``population_tier`` (a tier *name*) when given, so head-to-head
    policy comparisons start from identical block placement
    (:func:`~repro.bench.openloop.populate`).

    ``maintain_every`` is the harness's planning cadence
    (:func:`~repro.bench.openloop.pump`): policies that migrate or mirror
    get to — on background channels, contending only when the device is
    genuinely busy.

    ``warm_passes`` replays the trace that many times closed-loop and
    *untimed* first — the epochs that preceded the measured window.
    Heat builds, the policy converges on its steady-state placement and
    every background copy drains, so the timed replay compares how each
    policy *serves* the workload rather than how fast it reacts to a
    population it has never seen.

    ``drop_page_caches`` empties every native file system's clean DRAM
    page cache right before the measured window (the simulated analog of
    ``drop_caches`` between warm-up and measurement) — otherwise a warm
    pass leaves the working set in DRAM and every policy measures the
    same cache, hiding what *placement* bought.
    """
    mux = stack.mux
    trace.validate()
    tier = stack.tier_ids[population_tier] if population_tier is not None else None
    handles = populate(
        mux, "/trace", trace.files, trace.file_bytes, tier, durable=True
    )

    for _ in range(warm_passes):
        for index, op in enumerate(trace.ops):
            pump(mux, index, maintain_every)
            handle = handles[op.file_id]
            if op.op == "read":
                mux.read(handle, op.offset, op.length)
            elif op.op == "write":
                mux.write(handle, op.offset, bytes([PAYLOAD_BYTE]) * op.length)
            else:
                mux.fsync(handle)
    if warm_passes:
        settle(mux)
    if drop_page_caches:
        # make every page clean first — the drop discards dirty pages
        # too, which would lose warm-pass writes
        for handle in handles:
            mux.fsync(handle)
        stack.drop_page_caches()

    result = drive_open_loop(
        mux, ["trace"], trace.ops, [handles], ring_depth, maintain_every
    )
    for handle in handles:
        mux.close(handle)
    return result
