"""Base class for simulated storage devices.

A device stores real bytes (so file-system correctness is end-to-end
testable) and charges simulated time to the shared :class:`SimClock`
according to its :class:`DeviceProfile`.  Only blocks that were actually
written are materialized; unwritten blocks read as zeros, which also gives
the sparse-file behaviour the native file systems rely on.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.devices.profile import DeviceProfile
from repro.errors import DeviceError
from repro.sim.clock import SimClock
from repro.sim.stats import DeviceStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devices.faults import FaultInjector

DEFAULT_BLOCK_SIZE = 4096

#: arena granularity: blocks per lazily-allocated backing chunk (2 MiB of
#: data per chunk at the default 4 KiB block size)
ARENA_CHUNK_BLOCKS = 512

#: a channel holding more than this many busy runs drops those that
#: ended at or before the floor (flattened: two entries per run)
RUNS_KEPT = 64


class DeviceTimeline:
    """Per-device completion-time bookkeeping for the parallel I/O engine.

    Each device owns ``queue_depth`` internal channels (NVMe queue pairs,
    interleaved PM DIMM lanes, or the single HDD spindle).  A channel
    keeps its booked service time as a sorted list of merged busy runs,
    and ``busy_until`` holds the latest completion booked on it.  A request
    submitted at time T with cost C books on the eligible channel that
    can start it earliest at or after T: the first gap on that channel
    that holds C (at least 1 ns, so a zero-cost request never lands
    inside a run), else the channel's last run end.  Ties go to the
    channel with the lowest ``busy_until``, then the lowest index.
    Background work (migration copies, destage batches) is restricted to
    a reserved tail quarter of the channels, so it delays foreground
    requests only when the device is genuinely saturated; on a
    single-channel device both classes share the spindle.

    *Gap filling.*  An open-loop op books its whole path at once in its
    own clock frame, so host order is not simulated-arrival order: an op
    that missed to the HDD books its cache fill milliseconds ahead, and a
    PM hit booked after it but arriving earlier takes the idle gap before
    that fill instead of queueing behind it.  On a stream booked in
    non-decreasing start order no gap ever opens after T, so every
    request begins at ``max(T, busy_until)`` on the least-busy channel —
    the FIFO horizon model, bit for bit.  Either way the schedule is a
    pure function of the op sequence, so determinism survives.

    *Limitation.*  A device prices a request when it is booked, in host
    order, and gap filling may then serve it before requests booked
    earlier.  Where the price depends on service order -- the HDD's seek
    runs from the head position its previous *booked* access left -- a
    gap-filled request and the one served after it are priced as if
    served in host order (EXPERIMENTS.md "Booking by simulated arrival"
    measures how much spindle time that misprices).

    *Floor.*  Every booking starts at or after the shared clock's global
    cursor (frames start at it, background tasks resume at or after it),
    so a run that ends at or before that floor can never be reached
    again.  A channel that holds more than ``RUNS_KEPT // 2`` runs drops
    those, so right after a booking it holds no more than that or its
    bookings still ahead of the floor, whichever is larger.  A
    back-to-back backlog is one run, and a booking that finds an
    eligible channel idle at T books there without any search; only one
    that finds every eligible channel busy bisects each channel's runs
    and walks the gaps too small for it.  A clock that never advances
    has floor 0 and drops nothing.  A booking below the floor searches
    for gaps from the highest floor runs were dropped at: the history
    before it is forgotten, so it may wait longer than it had to, but it
    never overlaps a dropped run.

    ``_inflight`` holds the completion times of requests still in flight
    at the last submit, kept *sorted*: a submit prunes the finished
    prefix with one bisection (none when the earliest completion is still
    ahead), inserts its own completion in order, and
    :meth:`queued_at` is one bisection — bookkeeping costs the requests
    in flight, never the requests ever booked.

    With a saturation knee configured (``knee_depth > 0``), service time
    inflates convexly once the backlog at submit time reaches the knee:
    ``cost * (1 + knee_penalty * excess**2)`` where ``excess`` counts
    requests at or past the threshold.  With the knee disabled (the
    default) the flat per-channel model is preserved bit-for-bit,
    including the :meth:`snapshot` keys that feed golden fingerprints.
    """

    __slots__ = (
        "nchannels",
        "busy_until",
        "clock",
        "_runs",
        "_bg_first",
        "_inflight",
        "_floor_ns",
        "foreground_ops",
        "background_ops",
        "wait_ns",
        "fg_wait_ns",
        "bg_wait_ns",
        "busy_ns",
        "max_queued",
        "knee_depth",
        "knee_penalty",
        "knee_ops",
        "knee_extra_ns",
    )

    def __init__(
        self,
        nchannels: int,
        clock: SimClock,
        knee_depth: int = 0,
        knee_penalty: float = 0.0,
    ) -> None:
        self.nchannels = max(1, nchannels)
        self.busy_until = [0] * self.nchannels
        #: the shared clock whose global cursor is the pruning floor
        self.clock = clock
        #: per channel, its merged busy runs flattened and ascending:
        #: ``[begin0, end0, begin1, end1, ...]`` with a gap between runs
        self._runs: List[List[int]] = [[] for _ in range(self.nchannels)]
        #: first channel of the reserved background tail (the whole
        #: spindle on a single-channel device)
        self._bg_first = (
            0 if self.nchannels == 1 else self.nchannels - max(1, self.nchannels // 4)
        )
        #: completion times of requests still in flight at the last
        #: submit, ascending
        self._inflight: List[int] = []
        #: the highest floor runs were dropped at: every one ended by it
        self._floor_ns = 0
        self.foreground_ops = 0
        self.background_ops = 0
        #: total time requests spent queued behind a busy channel, and
        #: its split by class (outside :meth:`snapshot`)
        self.wait_ns = 0
        self.fg_wait_ns = 0
        self.bg_wait_ns = 0
        #: total channel service time booked (for utilization gauges)
        self.busy_ns = 0
        #: deepest backlog seen at any submit instant (incl. the new request)
        self.max_queued = 0
        self.knee_depth = knee_depth
        self.knee_penalty = knee_penalty
        #: requests whose service time the knee inflated / total added ns
        self.knee_ops = 0
        self.knee_extra_ns = 0

    def acquire(self, start_ns: int, cost_ns: int, background: bool):
        """Book one request; returns ``(begin_ns, complete_ns)``."""
        inflight = self._inflight
        if inflight and inflight[0] <= start_ns:
            del inflight[: bisect_right(inflight, start_ns)]
        if self.knee_depth > 0:
            backlog = len(inflight)
            if backlog >= self.knee_depth:
                excess = backlog - self.knee_depth + 1
                inflated = round(cost_ns * (1.0 + self.knee_penalty * excess * excess))
                self.knee_ops += 1
                self.knee_extra_ns += inflated - cost_ns
                cost_ns = inflated
        busy = self.busy_until
        first = self._bg_first if background else 0
        best_free = min(busy[first:]) if first else min(busy)
        if best_free <= start_ns:
            # an eligible channel is idle at start_ns: the least busy one,
            # lowest index on a tie, books after its last run (what the gap
            # search would pick, found by a C-level min instead of a loop
            # over the channels: 2.5x cheaper on an 8-channel device)
            best = busy.index(best_free, first)
            begin = start_ns
            complete = start_ns + cost_ns
            busy[best] = complete
            if cost_ns:
                runs = self._runs[best]
                if runs and runs[-1] == start_ns:
                    runs[-1] = complete
                else:
                    runs += (start_ns, complete)
                if len(runs) > RUNS_KEPT:
                    self._drop_stale(runs)
        else:
            begin = self._book_gap(start_ns, cost_ns, first)
            complete = begin + cost_ns
            wait = begin - start_ns
            self.wait_ns += wait
            if background:
                self.bg_wait_ns += wait
            else:
                self.fg_wait_ns += wait
        self.busy_ns += cost_ns
        if background:
            self.background_ops += 1
        else:
            self.foreground_ops += 1
        insort(inflight, complete)
        if len(inflight) > self.max_queued:
            self.max_queued = len(inflight)
        return begin, complete

    def _book_gap(self, start_ns: int, cost_ns: int, first: int) -> int:
        """Every eligible channel is busy at ``start_ns``: book the earliest
        gap at or after it that holds ``cost_ns`` (at least 1 ns) on any
        of them; returns its begin."""
        if start_ns < self._floor_ns:
            start_ns = self._floor_ns
        need = cost_ns or 1
        busy = self.busy_until
        best = begin = at = -1
        for ch in range(first, self.nchannels):
            runs = self._runs[ch]
            i = bisect_right(runs, start_ns)
            t = start_ns
            if i & 1:  # start_ns falls inside a run: its end is the first gap
                t = runs[i]
                i += 1
            n = len(runs)
            while i < n and runs[i] < t + need:  # the gap is too small
                t = runs[i + 1]
                i += 2
            if best < 0 or t < begin or (t == begin and busy[ch] < busy[best]):
                best, begin, at = ch, t, i
        complete = begin + cost_ns
        if complete > busy[best]:
            busy[best] = complete
        if cost_ns:
            # insert [begin, complete) before runs[at], merging neighbours
            runs = self._runs[best]
            if at and runs[at - 1] == begin:
                if at < len(runs) and runs[at] == complete:
                    del runs[at - 1 : at + 1]
                else:
                    runs[at - 1] = complete
            elif at < len(runs) and runs[at] == complete:
                runs[at] = begin
            else:
                runs[at:at] = (begin, complete)
            if len(runs) > RUNS_KEPT:
                self._drop_stale(runs)
        return begin

    def _drop_stale(self, runs: List[int]) -> None:
        """Drop a channel's runs that end at or before the global cursor."""
        floor = self.clock.global_now_ns
        if floor > self._floor_ns:
            self._floor_ns = floor
        del runs[: bisect_right(runs, floor) & ~1]

    def queued_at(self, now_ns: int) -> int:
        """Requests still in flight at ``now_ns`` (pure; does not prune).

        The backlog signal the pressure monitor samples: completions
        booked past ``now_ns`` are work the device still owes.
        """
        return len(self._inflight) - bisect_right(self._inflight, now_ns)

    def utilization(self, now_ns: int) -> float:
        """Fraction of total channel-time spent servicing requests."""
        if now_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / (now_ns * self.nchannels))

    def snapshot(self) -> Dict[str, int]:
        """Queue/utilization gauges (deterministic, fingerprint-safe).

        Knee gauges appear only when the knee is configured, so goldens
        recorded under the flat model compare unchanged.
        """
        snap = {
            "channels": self.nchannels,
            "fg_ops": self.foreground_ops,
            "bg_ops": self.background_ops,
            "wait_ns": self.wait_ns,
            "busy_ns": self.busy_ns,
            "max_queued": self.max_queued,
        }
        if self.knee_depth > 0:
            snap["knee_ops"] = self.knee_ops
            snap["knee_extra_ns"] = self.knee_extra_ns
        return snap


class Device:
    """A simulated block device backed by a chunked bytearray arena.

    The store is sparse at two levels: backing chunks are allocated lazily
    on first write, and a per-chunk presence bitmask tracks which blocks
    were actually materialized (unwritten blocks read as zeros, which the
    native file systems rely on for sparse files).  Keeping runs of blocks
    contiguous in one ``bytearray`` makes multi-block reads/writes single
    slice operations instead of per-block dict lookups.
    """

    def __init__(
        self,
        name: str,
        profile: DeviceProfile,
        capacity_bytes: int,
        clock: SimClock,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if block_size <= 0 or capacity_bytes % block_size:
            raise ValueError("capacity must be a multiple of block size")
        self.name = name
        self.profile = profile
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.num_blocks = capacity_bytes // block_size
        self.clock = clock
        self.stats = DeviceStats()
        self.timeline = DeviceTimeline(
            profile.queue_depth,
            clock,
            knee_depth=profile.knee_depth,
            knee_penalty=profile.knee_penalty,
        )
        self._chunk_blocks = ARENA_CHUNK_BLOCKS
        self._chunk_bytes = self._chunk_blocks * block_size
        self._chunks: Dict[int, bytearray] = {}
        self._present: Dict[int, int] = {}
        self._materialized = 0
        self._zero_block = bytes(block_size)
        #: optional fault schedule; None keeps the healthy path branch-free
        self.faults: Optional["FaultInjector"] = None

    def set_fault_injector(self, injector: Optional["FaultInjector"]) -> None:
        """Attach (or detach, with None) a deterministic fault schedule."""
        self.faults = injector

    # -- bounds ------------------------------------------------------------

    def _check_range(self, block_no: int, count: int) -> None:
        if count <= 0:
            raise DeviceError(f"{self.name}: non-positive block count {count}")
        if block_no < 0 or block_no + count > self.num_blocks:
            raise DeviceError(
                f"{self.name}: blocks [{block_no}, {block_no + count}) out of "
                f"range (device has {self.num_blocks} blocks)"
            )

    # -- timing hooks (overridden per device type) ---------------------------

    def _access_cost_ns(self, block_no: int, nbytes: int, *, write: bool) -> int:
        """Latency of one contiguous access starting at ``block_no``."""
        latency = (
            self.profile.write_latency_ns if write else self.profile.read_latency_ns
        )
        return latency + self.profile.transfer_ns(nbytes, write=write)

    def _occupy(self, cost_ns: int) -> int:
        """Submit one access at the current instant; sync to its completion.

        On an idle device this degenerates to ``clock.advance_ns(cost_ns)``
        exactly; queueing delay appears only when the chosen channel is
        still busy with earlier overlapped or background work.
        """
        begin, complete = self.timeline.acquire(
            self.clock.now_ns, cost_ns, background=self.clock.in_background
        )
        self.clock.advance_to(complete)
        return complete

    # -- arena plumbing (no simulated-time charges) ----------------------------

    def _read_span_raw(self, block_no: int, count: int) -> bytes:
        """Copy ``count`` blocks out of the arena (zeros where unwritten)."""
        bs = self.block_size
        ci, cb = divmod(block_no, self._chunk_blocks)
        if cb + count <= self._chunk_blocks:
            # inside one chunk: a single copy straight into the result
            chunk = self._chunks.get(ci)
            if chunk is None:
                return bytes(count * bs)
            return memoryview(chunk)[cb * bs : (cb + count) * bs].tobytes()
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

    def _write_span_raw(self, block_no: int, data) -> None:
        """Copy block-aligned ``data`` into the arena, marking presence."""
        bs = self.block_size
        src = memoryview(data)
        bno, remaining, pos = block_no, len(data) // bs, 0
        while remaining:
            ci, cb = divmod(bno, self._chunk_blocks)
            take = min(remaining, self._chunk_blocks - cb)
            chunk = self._chunks.get(ci)
            if chunk is None:
                chunk = bytearray(self._chunk_bytes)
                self._chunks[ci] = chunk
            off = cb * bs
            chunk[off : off + take * bs] = src[pos : pos + take * bs]
            run_mask = ((1 << take) - 1) << cb
            mask = self._present.get(ci, 0)
            added = run_mask & ~mask
            if added:
                self._materialized += added.bit_count()
                self._present[ci] = mask | run_mask
            bno += take
            remaining -= take
            pos += take * bs

    def _mark_present(self, block_no: int, count: int) -> None:
        """Flag [block_no, block_no+count) as materialized."""
        bno, remaining = block_no, count
        while remaining:
            ci, cb = divmod(bno, self._chunk_blocks)
            take = min(remaining, self._chunk_blocks - cb)
            run_mask = ((1 << take) - 1) << cb
            mask = self._present.get(ci, 0)
            added = run_mask & ~mask
            if added:
                self._materialized += added.bit_count()
                self._present[ci] = mask | run_mask
            bno += take
            remaining -= take

    # -- block I/O -----------------------------------------------------------

    def read_blocks(self, block_no: int, count: int = 1) -> bytes:
        """Read ``count`` contiguous blocks, charging simulated time."""
        self._check_range(block_no, count)
        nbytes = count * self.block_size
        cost = self._access_cost_ns(block_no, nbytes, write=False)
        if self.faults is not None:
            cost += self.faults.extra_latency_ns(cost)
        self._occupy(cost)
        self.stats.record_read(nbytes, cost)
        if self.faults is not None:
            # Time is charged even for failing accesses: the controller did
            # the work before reporting the error.
            self.faults.check_read(block_no, count)
        return self._read_span_raw(block_no, count)

    def write_blocks(self, block_no: int, data: bytes) -> None:
        """Write whole blocks starting at ``block_no``."""
        if len(data) == 0 or len(data) % self.block_size:
            raise DeviceError(
                f"{self.name}: write size {len(data)} is not block aligned"
            )
        count = len(data) // self.block_size
        self._check_range(block_no, count)
        cost = self._access_cost_ns(block_no, len(data), write=True)
        if self.faults is not None:
            cost += self.faults.extra_latency_ns(cost)
        self._occupy(cost)
        self.stats.record_write(len(data), cost)
        if self.faults is not None:
            fault = self.faults.check_write(block_no, count)
            if fault is not None:
                prefix_blocks, exc = fault
                if prefix_blocks > 0:
                    # Torn write: a prefix of the payload reached media
                    # before power/controller failure.
                    self._write_span_raw(
                        block_no, data[: prefix_blocks * self.block_size]
                    )
                raise exc
        self._write_span_raw(block_no, data)

    def discard_block(self, block_no: int) -> None:
        """Drop a block's contents (TRIM-style); it reads back as zeros."""
        self._check_range(block_no, 1)
        ci, cb = divmod(block_no, self._chunk_blocks)
        mask = self._present.get(ci, 0)
        bit = 1 << cb
        if not mask & bit:
            return
        mask &= ~bit
        self._materialized -= 1
        if mask:
            self._present[ci] = mask
            off = cb * self.block_size
            self._chunks[ci][off : off + self.block_size] = self._zero_block
        else:
            del self._present[ci]
            self._chunks.pop(ci, None)

    def flush(self) -> None:
        """Drain any volatile device buffer.  No-op for the base device."""

    # -- introspection ---------------------------------------------------------

    @property
    def materialized_blocks(self) -> int:
        """Number of blocks holding real data (for space accounting tests)."""
        return self._materialized

    def peek_block(self, block_no: int) -> Optional[bytes]:
        """Read block contents without charging time (test/debug helper)."""
        self._check_range(block_no, 1)
        ci, cb = divmod(block_no, self._chunk_blocks)
        if not (self._present.get(ci, 0) >> cb) & 1:
            return None
        off = cb * self.block_size
        return bytes(self._chunks[ci][off : off + self.block_size])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"capacity={self.capacity_bytes}, block_size={self.block_size})"
        )
