"""Trace-driven replay benchmark (the ``muxtrace v1`` format).

Synthetic arrival processes answer "does the policy react to pressure";
block traces answer "does it react to *this* workload".  This module
defines a small canonical trace format, deterministic generators for the
three interesting shapes (zipf steady-state, bursty writers over a read
floor, phase-change hot sets), and an open-loop replay engine that drives
a trace through the async ring API against any stack — so every
registered policy can be benchmarked head-to-head on identical offered
load.

Format — one record per line, integer fields, ``#`` comments::

    # muxtrace v1
    # files 16
    # file_bytes 1048576
    <arrival_ns> <R|W|F> <file_id> <offset> <length>

``files``/``file_bytes`` describe the pre-populated file set the trace
addresses (``file_id`` in ``[0, files)``, ``offset + length <=
file_bytes``).  ``F`` is an fsync of ``file_id`` (offset and length are
0) — bursty writers in the wild are databases and loggers, and what
makes their bursts hurt is that they demand durability: the fsync is
where buffered writes become device traffic.  Arrivals are offsets from
replay start and must be non-decreasing.  The replay is open-loop: the
clock is advanced to each op's intended arrival and latency is measured
from that instant, so backlog shows up as queueing delay rather than as
a slower trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.multi_tenant import _exp_gap, _zipf_cdf, _zipf_pick
from repro.errors import InvalidArgument
from repro.sim.histogram import LatencyHistogram
from repro.sim.rng import DeterministicRng

KIB = 1024
MIB = 1024 * KIB

TRACE_MAGIC = "# muxtrace v1"

#: deterministic write payload byte (content never affects placement)
_PAYLOAD_BYTE = 0x6B


@dataclass(frozen=True)
class TraceOp:
    """One record: an I/O against the trace's file population."""

    arrival_ns: int
    op: str  # "read" | "write" | "fsync"
    file_id: int
    offset: int
    length: int


@dataclass
class BlockTrace:
    """A parsed (or generated) muxtrace."""

    ops: List[TraceOp]
    files: int
    file_bytes: int
    #: free-form provenance comments, one per line (no leading '#')
    comments: List[str] = field(default_factory=list)

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
        return BlockTrace(ops, self.files, self.file_bytes, list(self.comments))

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
# serialization
# ---------------------------------------------------------------------------


def dumps_trace(trace: BlockTrace) -> str:
    """Serialize to the canonical text form."""
    lines = [TRACE_MAGIC]
    lines.append(f"# files {trace.files}")
    lines.append(f"# file_bytes {trace.file_bytes}")
    for comment in trace.comments:
        lines.append(f"# {comment}")
    letters = {"read": "R", "write": "W", "fsync": "F"}
    for op in trace.ops:
        lines.append(
            f"{op.arrival_ns} {letters[op.op]} {op.file_id} {op.offset} {op.length}"
        )
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> BlockTrace:
    """Parse the canonical text form; validates shape and ordering."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != TRACE_MAGIC:
        raise InvalidArgument(f"not a muxtrace (missing {TRACE_MAGIC!r} header)")
    files = None
    file_bytes = None
    comments: List[str] = []
    ops: List[TraceOp] = []
    kinds = {"R": "read", "W": "write", "F": "fsync"}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            parts = body.split()
            if len(parts) == 2 and parts[0] == "files":
                files = int(parts[1])
            elif len(parts) == 2 and parts[0] == "file_bytes":
                file_bytes = int(parts[1])
            elif body:
                comments.append(body)
            continue
        fields = line.split()
        if len(fields) != 5:
            raise InvalidArgument(f"line {lineno}: expected 5 fields")
        arrival, letter, file_id, offset, length = fields
        if letter not in kinds:
            raise InvalidArgument(f"line {lineno}: op must be R, W or F")
        ops.append(
            TraceOp(int(arrival), kinds[letter], int(file_id), int(offset), int(length))
        )
    if files is None or file_bytes is None:
        raise InvalidArgument("trace missing '# files N' / '# file_bytes N'")
    trace = BlockTrace(ops, files, file_bytes, comments)
    trace.validate()
    return trace


def load_trace(path) -> BlockTrace:
    return parse_trace(Path(path).read_text())


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
    file_cdf = _zipf_cdf(files, alpha)
    block_cdf = _zipf_cdf(file_bytes // io_bytes, alpha)
    ops: List[TraceOp] = []
    t = 0
    while True:
        t += _exp_gap(rng, mean_gap_ns)
        if t >= duration_ns:
            break
        op = "read" if rng.random() < read_fraction else "write"
        file_id = _zipf_pick(rng, file_cdf)
        offset = _zipf_pick(rng, block_cdf) * io_bytes
        ops.append(TraceOp(t, op, file_id, offset, io_bytes))
    trace = BlockTrace(
        ops,
        files,
        file_bytes,
        [
            f"generator zipf seed={seed} alpha={alpha} io={io_bytes} "
            f"gap={mean_gap_ns} rf={read_fraction}"
        ],
    )
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
    fsync_bursts: bool = True,
    seed: int = 7,
) -> BlockTrace:
    """A zipf read floor with write bursts landing at Poisson instants.

    Every op in a burst shares one arrival — the worst case for a queue:
    the backlog jumps by ``burst_size`` writes instantly, and any read
    arriving behind it eats the whole queue.  With ``fsync_bursts`` each
    file the burst touched is fsynced right after it (arrival + 1 ns),
    the database/logger pattern: the burst demands durability, so its
    cost cannot hide in volatile write buffers.  This is the shape where
    pressure-blind placement loses its read tail.
    """
    rng = DeterministicRng(seed).fork("bursty-trace")
    file_cdf = _zipf_cdf(files, alpha)
    read_cdf = _zipf_cdf(file_bytes // read_bytes, alpha)
    write_slots = file_bytes // write_bytes
    write_cdf = _zipf_cdf(write_slots, alpha)
    ops: List[TraceOp] = []
    t = 0
    while True:  # read floor
        t += _exp_gap(rng, read_gap_ns)
        if t >= duration_ns:
            break
        file_id = _zipf_pick(rng, file_cdf)
        offset = _zipf_pick(rng, read_cdf) * read_bytes
        ops.append(TraceOp(t, "read", file_id, offset, read_bytes))
    t = 0
    while True:  # write bursts
        t += _exp_gap(rng, burst_gap_ns)
        if t >= duration_ns:
            break
        touched: List[int] = []
        for _ in range(burst_size):
            file_id = _zipf_pick(rng, file_cdf)
            offset = _zipf_pick(rng, write_cdf) * write_bytes
            ops.append(TraceOp(t, "write", file_id, offset, write_bytes))
            if file_id not in touched:
                touched.append(file_id)
        if fsync_bursts:
            for file_id in touched:
                ops.append(TraceOp(t + 1, "fsync", file_id, 0, 0))
    ops.sort(key=lambda op: (op.arrival_ns, op.op, op.file_id, op.offset))
    trace = BlockTrace(
        ops,
        files,
        file_bytes,
        [
            f"generator bursty seed={seed} alpha={alpha} read={read_bytes}@"
            f"{read_gap_ns} write={write_bytes}x{burst_size}@{burst_gap_ns}"
        ],
    )
    trace.validate()
    return trace


def phase_trace(
    duration_ns: int,
    files: int = 16,
    file_bytes: int = 1 * MIB,
    io_bytes: int = 16 * KIB,
    mean_gap_ns: int = 6_000,
    alpha: float = 1.2,
    read_fraction: float = 0.8,
    phases: int = 2,
    seed: int = 7,
) -> BlockTrace:
    """Zipf traffic whose hot set rotates every ``duration/phases`` ns.

    Each phase shifts the file popularity ranking by a fixed stride, so
    yesterday's cold tail becomes today's hot head — the workload that
    punishes stale placement and rewards policies that keep migrating.
    """
    if phases < 1:
        raise InvalidArgument("phases must be >= 1")
    rng = DeterministicRng(seed).fork("phase-trace")
    file_cdf = _zipf_cdf(files, alpha)
    block_cdf = _zipf_cdf(file_bytes // io_bytes, alpha)
    phase_ns = duration_ns // phases
    stride = max(1, files // phases)
    ops: List[TraceOp] = []
    t = 0
    while True:
        t += _exp_gap(rng, mean_gap_ns)
        if t >= duration_ns:
            break
        phase = min(t // phase_ns, phases - 1)
        rank = _zipf_pick(rng, file_cdf)
        file_id = (rank + phase * stride) % files
        op = "read" if rng.random() < read_fraction else "write"
        offset = _zipf_pick(rng, block_cdf) * io_bytes
        ops.append(TraceOp(t, op, file_id, offset, io_bytes))
    trace = BlockTrace(
        ops,
        files,
        file_bytes,
        [
            f"generator phase seed={seed} alpha={alpha} phases={phases} "
            f"io={io_bytes} gap={mean_gap_ns} rf={read_fraction}"
        ],
    )
    trace.validate()
    return trace


GENERATORS: Dict[str, Callable[..., BlockTrace]] = {
    "zipf": zipf_trace,
    "bursty": bursty_trace,
    "phase": phase_trace,
}


# ---------------------------------------------------------------------------
# canonical traces — checked into benchmarks/traces/, regenerable from here
# ---------------------------------------------------------------------------

#: the three canonical shapes the policy duels run on.  ``bursty`` is the
#: headline scenario: a 16 KiB zipf read floor with 4 MiB fsynced write
#: bursts every ~4 ms — long enough (60 ms) that placement decisions,
#: not population luck, decide the read tail.  Parameters are part of the
#: benchmark contract: the files in ``benchmarks/traces/`` are generated
#: from exactly these (test_tracereplay pins file == generator).
CANONICAL_TRACE_PARAMS: Dict[str, Dict[str, object]] = {
    "bursty": dict(
        generator="bursty",
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
        generator="zipf",
        duration_ns=30_000_000,
        files=48,
        file_bytes=2 * MIB,
        io_bytes=16 * KIB,
        mean_gap_ns=12_000,
        alpha=1.1,
        read_fraction=0.8,
        seed=7,
    ),
    "phase": dict(
        generator="phase",
        duration_ns=30_000_000,
        files=48,
        file_bytes=2 * MIB,
        io_bytes=16 * KIB,
        mean_gap_ns=12_000,
        alpha=1.2,
        read_fraction=0.8,
        phases=3,
        seed=7,
    ),
}


def canonical_trace(name: str) -> BlockTrace:
    """Generate one canonical trace from its pinned parameters."""
    if name not in CANONICAL_TRACE_PARAMS:
        raise InvalidArgument(f"unknown canonical trace {name!r}")
    params = dict(CANONICAL_TRACE_PARAMS[name])
    generator = GENERATORS[params.pop("generator")]
    return generator(**params)


def traces_dir() -> Path:
    """The checked-in trace directory (``benchmarks/traces/``)."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "traces"


def load_canonical(name: str) -> BlockTrace:
    """Load a canonical trace from ``benchmarks/traces/``.

    Falls back to regenerating from :data:`CANONICAL_TRACE_PARAMS` when
    the checked-in file is absent (e.g. an installed package without the
    repo tree) — both paths yield bit-identical traces.
    """
    path = traces_dir() / f"{name}.muxtrace"
    if path.is_file():
        return load_trace(path)
    return canonical_trace(name)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


@dataclass
class TraceReplayResult:
    """Latency outcome of one trace replay against one stack."""

    reads: LatencyHistogram = field(default_factory=LatencyHistogram)
    writes: LatencyHistogram = field(default_factory=LatencyHistogram)
    submitted: int = 0
    errors: int = 0
    #: failed completions by exception class name (NoSpace, TierOffline…)
    error_kinds: Dict[str, int] = field(default_factory=dict)
    #: migration orders the policy submitted during maintenance
    migrations_submitted: int = 0
    final_now_ns: int = 0

    def percentiles_ns(self, op: str = "read") -> Dict[str, int]:
        hist = self.reads if op == "read" else self.writes
        return hist.percentiles_ns(0.5, 0.99, 0.999)


def replay_trace(
    stack,
    trace: BlockTrace,
    ring_depth: int = 8,
    maintain_every: int = 64,
    population_tier: Optional[str] = "ssd",
    root: str = "/trace",
    warm_passes: int = 0,
    drop_page_caches: bool = False,
) -> TraceReplayResult:
    """Open-loop replay of ``trace`` against ``stack``.

    The file population (``trace.files`` files of ``trace.file_bytes``)
    is written before the measured window — pinned to ``population_tier``
    (a tier *name*) when given, so head-to-head policy comparisons start
    from identical block placement and measure steady-state behaviour,
    not population luck.  The pin is cleared before replay.

    Every ``maintain_every`` events the mux plans migrations
    (``maintain_async``) and the engine advances in-flight ones one
    cooperative step, so policies that migrate get to — on background
    channels, contending only when the device is genuinely busy.

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
    clock = stack.clock
    trace.validate()

    mux.mkdir(root)
    pin = (
        stack.tier_ids[population_tier] if population_tier is not None else None
    )
    payload = bytes([_PAYLOAD_BYTE]) * trace.file_bytes
    handles = []
    for i in range(trace.files):
        path = f"{root}/f{i}"
        if pin is not None:
            mux.close(mux.create(path))
            mux.set_placement(path, pin)
            mux.write_file(path, payload)
            mux.set_placement(path, None)
        else:
            mux.write_file(path, payload)
        handle = mux.open(path)
        # make the population durable before the measured window: dirty
        # page-cache debt and a full device write buffer would otherwise
        # bill population cleanup to the first measured reads
        mux.fsync(handle)
        handles.append(handle)

    for _ in range(warm_passes):
        for index, op in enumerate(trace.ops):
            if maintain_every:
                if index and index % maintain_every == 0:
                    mux.maintain_async()
                mux.engine.tick()
                mux.mirrors.tick()
            handle = handles[op.file_id]
            if op.op == "read":
                mux.read(handle, op.offset, op.length)
            elif op.op == "write":
                mux.write(handle, op.offset, bytes([_PAYLOAD_BYTE]) * op.length)
            else:
                mux.fsync(handle)
    if warm_passes:
        # settle before the measured window opens
        mux.maintain_async()
        mux.engine.drain()
        mux.mirrors.drain()
    if drop_page_caches:
        # make every page clean first — the drop discards dirty pages
        # too, which would lose warm-pass writes
        for handle in handles:
            mux.fsync(handle)
        stack.drop_page_caches()

    result = TraceReplayResult()
    ring = mux.open_ring(depth=ring_depth)
    outstanding: Dict[int, Tuple[int, str]] = {}

    def harvest(completions) -> None:
        for c in completions:
            arrival, op = outstanding.pop(c.seq)
            if c.error is not None:
                result.errors += 1
                kind = type(c.error).__name__
                result.error_kinds[kind] = result.error_kinds.get(kind, 0) + 1
                continue
            latency = c.completed_ns - arrival
            (result.reads if op == "read" else result.writes).record(latency)

    start_ns = clock.now_ns
    for index, op in enumerate(trace.ops):
        clock.advance_to(start_ns + op.arrival_ns)
        harvest(ring.poll())
        if maintain_every:
            if index and index % maintain_every == 0:
                result.migrations_submitted += mux.maintain_async()
            # the background copier runs continuously: advance in-flight
            # migrations every event, otherwise a multi-chunk copy spans
            # many bursts of foreground writes and OCC-aborts on each
            mux.engine.tick()
            # mirror convergence rides the same cadence (instant no-op
            # for policies that never grant mirrors)
            mux.mirrors.tick()
        handle = handles[op.file_id]
        if op.op == "read":
            sub = ring.submit_read(handle, op.offset, op.length)
        elif op.op == "write":
            sub = ring.submit_write(
                handle, op.offset, bytes([_PAYLOAD_BYTE]) * op.length
            )
        else:
            sub = ring.submit_fsync(handle)
        outstanding[sub.seq] = (start_ns + op.arrival_ns, op.op)
        result.submitted += 1

    harvest(ring.drain())
    ring.close()
    mux.engine.drain()
    for handle in handles:
        mux.close(handle)
    result.final_now_ns = clock.now_ns
    return result
