"""Differential test: :class:`PersistentMemoryDevice` against the PM device
whose persist path it replaced.

``ReferencePmDevice`` keeps the earlier implementation, verbatim in
behaviour: every ``store_run`` recomputes ``write_latency + transfer_ns``
and validates the span in a second frame, stores and flushes go through
``_occupy``, the arena write always walks chunk by chunk and marks
presence through ``_mark_present``, the dirty-line list is always rebuilt
by the merge/split loops, arena reads (``_peek_span`` and the block path's
``_read_span_raw``) copy slice → ``bytearray`` → ``bytes``, and
``ReferenceTimeline.acquire`` bisects the in-flight list on every
booking.

Hypothesis drives a reference and a current device (each on its own
clock, each with its own identically seeded :class:`FaultInjector` where
faults are on) through the same sequences of ``store``/``store_run``/
``flush_range``/``load``/``load_run``/``drain``/``read_blocks``/
``write_blocks``, with addresses clustered on the 2 MiB arena-chunk
boundary, clock advances and foreground/background frames that start in
the past.  After every step it compares the step's result or exception,
the arena bytes, presence masks, ``materialized_blocks``, the exact
``_dirty_runs`` list, ``unflushed_lines``, ``stats.snapshot()``,
``timeline.snapshot()`` with ``busy_until`` and the in-flight list, the
fault injector's counters and the clock.
"""

from __future__ import annotations

from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.base import ARENA_CHUNK_BLOCKS, Device, DeviceTimeline
from repro.devices.faults import FaultConfig, FaultInjector
from repro.devices.pm import CACHE_LINE, PersistentMemoryDevice
from repro.devices.profile import OPTANE_PMEM_200
from repro.errors import DeviceError, ReproError
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng

BS = 4096
CHUNK_BYTES = ARENA_CHUNK_BLOCKS * BS  # 2 MiB
CAPACITY = 2 * CHUNK_BYTES + 64 * BS


class ReferenceTimeline(DeviceTimeline):
    """``acquire`` as it was: one prune bisection per booking.  Placement
    is the current gap-filling timeline's (the persist path is what this
    differential pins; ``test_device_queue_oracle.py`` pins placement)."""

    __slots__ = ()

    def acquire(self, start_ns, cost_ns, background=False):
        inflight = self._inflight
        done = bisect_right(inflight, start_ns)
        if done:
            del inflight[:done]
        return super().acquire(start_ns, cost_ns, background)


class ReferencePmDevice(Device):
    """The earlier PM device (and the earlier ``Device._read_span_raw``),
    kept as an executable specification of the persist path."""

    def __init__(self, name, capacity_bytes, clock, profile=OPTANE_PMEM_200):
        super().__init__(name, profile, capacity_bytes, clock, BS)
        self.timeline = ReferenceTimeline(
            profile.queue_depth,
            clock,
            knee_depth=profile.knee_depth,
            knee_penalty=profile.knee_penalty,
        )
        self._dirty_runs = []

    # -- the block path's arena read, as it was -------------------------------

    def _read_span_raw(self, block_no, count):
        bs = self.block_size
        out = bytearray(count * bs)
        bno, remaining, pos = block_no, count, 0
        while remaining:
            ci, cb = divmod(bno, self._chunk_blocks)
            take = min(remaining, self._chunk_blocks - cb)
            chunk = self._chunks.get(ci)
            if chunk is not None:
                off = cb * bs
                out[pos : pos + take * bs] = chunk[off : off + take * bs]
            bno += take
            remaining -= take
            pos += take * bs
        return bytes(out)

    # -- the PM device, as it was ---------------------------------------------

    def _mark_dirty(self, first_line, end_line):
        merged_lo, merged_hi = first_line, end_line
        keep = []
        for s, e in self._dirty_runs:
            if e < merged_lo or s > merged_hi:
                keep.append((s, e))
            else:
                merged_lo = min(merged_lo, s)
                merged_hi = max(merged_hi, e)
        keep.append((merged_lo, merged_hi))
        keep.sort()
        self._dirty_runs = keep

    def _clear_dirty(self, first_line, end_line):
        keep = []
        for s, e in self._dirty_runs:
            if e <= first_line or s >= end_line:
                keep.append((s, e))
            else:
                if s < first_line:
                    keep.append((s, first_line))
                if e > end_line:
                    keep.append((end_line, e))
        self._dirty_runs = keep

    def _check_span(self, addr, length):
        if length < 0:
            raise DeviceError(f"{self.name}: negative length {length}")
        if addr < 0 or addr + length > self.capacity_bytes:
            raise DeviceError(
                f"{self.name}: span [{addr}, {addr + length}) exceeds capacity"
            )

    def _fault_blocks(self, addr, length):
        first = addr // self.block_size
        last = (addr + length - 1) // self.block_size
        return first, last - first + 1

    def load(self, addr, length):
        return self.load_run(addr, 1, length)

    def store(self, addr, data):
        self.store_run(addr, data, len(data) or 1)

    def load_run(self, addr, count, chunk):
        length = count * chunk
        self._check_span(addr, length)
        if length == 0:
            return b""
        cost = count * (
            self.profile.read_latency_ns
            + self.profile.transfer_ns(chunk, write=False)
        )
        if self.faults is not None:
            cost += self.faults.extra_latency_ns(cost)
        self._occupy(cost)
        self.stats.record_read(length, cost, ops=count)
        if self.faults is not None:
            self.faults.check_read(*self._fault_blocks(addr, length))
        return self._peek_span(addr, length)

    def store_run(self, addr, data, chunk):
        length = len(data)
        if length % chunk:
            raise DeviceError(
                f"{self.name}: store_run length {length} not a multiple of {chunk}"
            )
        self._check_span(addr, length)
        if length == 0:
            return
        count = length // chunk
        cost = count * (
            self.profile.write_latency_ns
            + self.profile.transfer_ns(chunk, write=True)
        )
        if self.faults is not None:
            cost += self.faults.extra_latency_ns(cost)
        self._occupy(cost)
        self.stats.record_write(length, cost, ops=count)
        if self.faults is not None:
            bno, cnt = self._fault_blocks(addr, length)
            fault = self.faults.check_write(bno, cnt, torn_units=count)
            if fault is not None:
                prefix_chunks, exc = fault
                if prefix_chunks > 0:
                    torn = bytes(data[: prefix_chunks * chunk])
                    self._poke_span(addr, torn)
                    self._mark_dirty(
                        addr // CACHE_LINE,
                        (addr + len(torn) - 1) // CACHE_LINE + 1,
                    )
                raise exc
        self._poke_span(addr, data)
        first = addr // CACHE_LINE
        last = (addr + length - 1) // CACHE_LINE
        self._mark_dirty(first, last + 1)

    def flush_range(self, addr, length, ops=1):
        self._check_span(addr, length)
        if length == 0:
            return
        first = addr // CACHE_LINE
        last = (addr + length - 1) // CACHE_LINE
        lines = last - first + 1
        cost = lines * self.profile.flush_latency_ns
        self._occupy(cost)
        self.stats.record_flush(cost, ops=ops)
        self._clear_dirty(first, last + 1)

    def drain(self):
        self.clock.advance_ns(self.profile.flush_latency_ns)
        self.stats.record_flush(self.profile.flush_latency_ns)

    @property
    def unflushed_lines(self):
        return sum(e - s for s, e in self._dirty_runs)

    def _peek_span(self, addr, length):
        out = bytearray(length)
        idx = 0
        while idx < length:
            ci, off = divmod(addr + idx, self._chunk_bytes)
            take = min(length - idx, self._chunk_bytes - off)
            chunk = self._chunks.get(ci)
            if chunk is not None:
                out[idx : idx + take] = chunk[off : off + take]
            idx += take
        return bytes(out)

    def _poke_span(self, addr, data):
        length = len(data)
        if length == 0:
            return
        src = memoryview(data)
        idx = 0
        while idx < length:
            ci, off = divmod(addr + idx, self._chunk_bytes)
            take = min(length - idx, self._chunk_bytes - off)
            chunk = self._chunks.get(ci)
            if chunk is None:
                chunk = bytearray(self._chunk_bytes)
                self._chunks[ci] = chunk
            chunk[off : off + take] = src[idx : idx + take]
            idx += take
        first_b = addr // self.block_size
        last_b = (addr + length - 1) // self.block_size
        self._mark_present(first_b, last_b - first_b + 1)


# -- strategies -----------------------------------------------------------------

#: byte addresses: a few cache lines either side of a handful of anchors
#: (so stores, flushes and loads keep meeting the same lines, blocks and
#: the arena-chunk boundary), a window hugging that boundary, addresses
#: near 0 and the end of the device (past it, to hit the range errors),
#: and anywhere
ANCHORED = st.builds(
    lambda anchor, lines: anchor + lines * CACHE_LINE,
    st.sampled_from([0, BS, CHUNK_BYTES - 2 * BS, CHUNK_BYTES - CACHE_LINE, CHUNK_BYTES]),
    st.integers(-2, 2),
)
ADDRS = st.one_of(
    ANCHORED,
    st.integers(CHUNK_BYTES - 40 * 1024, CHUNK_BYTES + 8 * 1024),
    st.integers(0, 4 * 1024),
    st.integers(CAPACITY - 24 * 1024, CAPACITY + 128),
    st.integers(-64, CAPACITY),
)
LINE_ADDRS = ADDRS.map(lambda a: a - a % CACHE_LINE)
#: byte lengths: whole lines and blocks (spans that end exactly on a line,
#: block or chunk edge), or anything up to 20 KiB
SIZES = st.one_of(
    st.sampled_from([8, CACHE_LINE, 2 * CACHE_LINE, 3 * CACHE_LINE, BS, 2 * BS, BS + CACHE_LINE]),
    st.integers(0, 20 * 1024),
)
FILL = st.integers(0, 255)
CHUNKS = st.sampled_from([1, 8, CACHE_LINE, 1000, BS, 4 * BS])

DEVICE_OP = st.one_of(
    st.tuples(st.just("store"), ADDRS, SIZES, FILL),
    # a 64 B log entry and an 8 B tail update, NOVA's two stores
    st.tuples(st.just("store"), LINE_ADDRS, st.sampled_from([8, CACHE_LINE]), FILL),
    st.tuples(
        st.just("store_run"), ADDRS, CHUNKS, st.integers(0, 6),
        st.sampled_from([0, 0, 0, 1, 7]), FILL,
    ),
    st.tuples(
        st.just("flush_range"), ADDRS, SIZES | st.integers(-8, 40 * 1024), st.integers(1, 4)
    ),
    # NOVA's store-then-flush, with the flush sometimes trimmed at either
    # end so it covers only part of what the store dirtied
    st.tuples(
        st.just("persist"), ADDRS, SIZES,
        st.sampled_from([0, 0, 0, 1, CACHE_LINE]), st.sampled_from([0, 0, 0, 1, CACHE_LINE]),
    ),
    st.tuples(st.just("load"), ADDRS, SIZES),
    st.tuples(st.just("load_run"), ADDRS, st.integers(-1, 5), CHUNKS),
    st.tuples(st.just("drain")),
    st.tuples(
        st.just("read_blocks"),
        st.integers(ARENA_CHUNK_BLOCKS - 6, ARENA_CHUNK_BLOCKS + 3)
        | st.integers(-1, CAPACITY // BS),
        st.integers(0, 9),
    ),
    st.tuples(
        st.just("write_blocks"),
        st.integers(ARENA_CHUNK_BLOCKS - 6, ARENA_CHUNK_BLOCKS + 3)
        | st.integers(-1, CAPACITY // BS),
        st.integers(0, 9),
        FILL,
    ),
)

STEP = st.one_of(
    DEVICE_OP,
    st.tuples(st.just("advance"), st.integers(0, 5_000)),
    # run one op in a clock frame starting up to ``back`` ns in the past:
    # out-of-order bookings, and background ones on the reserved channels
    st.tuples(st.just("frame"), st.integers(0, 5_000), st.booleans(), DEVICE_OP),
)

FAULTS = st.sampled_from(
    [
        None,
        FaultConfig(torn_write_p=0.5),
        FaultConfig(
            read_error_p=0.1,
            write_error_p=0.1,
            transient_fraction=0.5,
            torn_write_p=0.3,
            latency_spike_p=0.2,
        ),
    ]
)


def payload(n: int, fill: int) -> bytes:
    pattern = bytes(range(256)) * (n // 256 + 2)
    return pattern[fill : fill + n]


def apply(dev, op):
    kind = op[0]
    if kind == "store":
        _, addr, n, fill = op
        return dev.store(addr, payload(n, fill))
    if kind == "store_run":
        _, addr, chunk, count, extra, fill = op
        return dev.store_run(addr, memoryview(payload(chunk * count + extra, fill)), chunk)
    if kind == "persist":
        _, addr, n, lo, hi = op
        dev.store(addr, payload(n, n & 0xFF))
        return dev.flush_range(addr + lo, n - lo - hi)
    if kind == "flush_range":
        _, addr, length, ops = op
        return dev.flush_range(addr, length, ops=ops)
    if kind == "load":
        _, addr, n = op
        return dev.load(addr, n)
    if kind == "load_run":
        _, addr, count, chunk = op
        return dev.load_run(addr, count, chunk)
    if kind == "drain":
        return dev.drain()
    if kind == "read_blocks":
        _, bno, count = op
        return dev.read_blocks(bno, count)
    if kind == "write_blocks":
        _, bno, count, fill = op
        return dev.write_blocks(bno, payload(count * BS, fill))
    raise AssertionError(op)


def step(dev, op):
    """Run one step; returns its value or its exception as comparable data."""
    clock = dev.clock
    try:
        if op[0] == "advance":
            return clock.advance_ns(op[1])
        if op[0] == "frame":
            _, back, background, inner = op
            clock.push_frame(max(0, clock.now_ns - back), background=background)
            try:
                result = apply(dev, inner)
            finally:
                end = clock.pop_frame()
            return result, end
        return apply(dev, op)
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def state(dev):
    tl = dev.timeline
    faults = dev.faults
    return {
        "present": dict(dev._present),
        "materialized": dev.materialized_blocks,
        "dirty_runs": list(dev._dirty_runs),
        "unflushed": dev.unflushed_lines,
        "stats": dev.stats.snapshot(),
        "timeline": tl.snapshot(),
        "busy_until": list(tl.busy_until),
        "inflight": list(tl._inflight),
        "runs": [list(runs) for runs in tl._runs],
        "faults": None if faults is None else faults.stats.snapshot(),
        "now_ns": dev.clock.now_ns,
        "in_frame": dev.clock.in_frame,
    }


def pair(config):
    devices = []
    for cls in (ReferencePmDevice, PersistentMemoryDevice):
        dev = cls("pm", CAPACITY, SimClock())
        if config is not None:
            dev.set_fault_injector(FaultInjector("pm", config, DeterministicRng(11)))
        devices.append(dev)
    return devices


@settings(max_examples=250, deadline=None)
@given(config=FAULTS, steps=st.lists(STEP, min_size=1, max_size=30))
def test_pm_device_matches_reference(config, steps):
    ref, new = pair(config)
    for op in steps:
        assert step(new, op) == step(ref, op), op
        assert state(new) == state(ref), op
        # the arena itself: same chunks, same bytes
        assert new._chunks == ref._chunks, op


def test_edges_of_the_one_chunk_branches():
    """Deterministic anchors for the single-chunk branches: spans ending
    exactly on and just past a block or the arena-chunk edge, one-block
    reads, never-written chunks, and a flush that covers only part of the
    one dirty run (which must stay partly dirty)."""
    ref, new = pair(None)
    for dev in (ref, new):
        dev.store(CHUNK_BYTES - 3 * BS, payload(5 * BS, 5))  # crosses the edge
        dev.write_blocks(1, payload(2 * BS, 9))  # inside chunk 0
        dev.flush_range(0, CAPACITY)
        dev.store(BS - CACHE_LINE, payload(2 * CACHE_LINE, 3))  # two lines over a block edge
        dev.flush_range(BS - CACHE_LINE, CACHE_LINE)  # one of them
        assert dev.unflushed_lines == 1
    assert state(new) == state(ref)
    loads = [
        (BS, 2 * BS), (BS - CACHE_LINE, CACHE_LINE), (BS - CACHE_LINE, 2 * CACHE_LINE),
        (CHUNK_BYTES - CACHE_LINE, CACHE_LINE), (CHUNK_BYTES - CACHE_LINE, 2 * CACHE_LINE),
        (CHUNK_BYTES - 100, 200), (CHUNK_BYTES - BS, 3 * BS), (2 * CHUNK_BYTES, BS),
    ]
    for addr, n in loads:
        got = new.load(addr, n)
        assert got == ref.load(addr, n), (addr, n)
        assert type(got) is bytes and len(got) == n
    reads = [(1, 1), (2, 1), (1, 2), (ARENA_CHUNK_BLOCKS - 1, 1), (ARENA_CHUNK_BLOCKS - 1, 2),
             (ARENA_CHUNK_BLOCKS - 3, 3), (2 * ARENA_CHUNK_BLOCKS, 4)]
    for bno, count in reads:
        got = new.read_blocks(bno, count)
        assert got == ref.read_blocks(bno, count), (bno, count)
        assert type(got) is bytes and len(got) == count * BS
    for dev in (ref, new):
        # stores ending exactly on a block edge and a chunk edge
        dev.store(3 * BS - CACHE_LINE, payload(CACHE_LINE, 1))
        dev.store(CHUNK_BYTES - BS, payload(BS, 2))
    assert state(new) == state(ref)
    assert new._chunks == ref._chunks
