"""Differential tests: control-plane fast paths against the scans they replaced.

Each reference below is the implementation as it was before it was made
to cost what changed instead of what exists, kept here verbatim in
substance: ``ScanTimeline`` filters its whole in-flight list on every
booking and picks a channel by a Python loop, ``ScanAllocator`` walks the
bitmap one byte at a time, ``scan_replica_runs`` copies and linearly
intersects every mirror's clean list.  Random inputs drive both; every
observable must agree.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Optional, Tuple
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blt import ExtentBlt, ReplicaSet, replica_runs
from repro.core.intervals import BlockIntervalSet, intersect_runs
from repro.devices import base
from repro.devices.base import DeviceTimeline
from repro.errors import NoSpace
from repro.fscommon.allocator import BitmapAllocator
from repro.sim.clock import SimClock

# ---------------------------------------------------------------------------
# DeviceTimeline
# ---------------------------------------------------------------------------


class ScanTimeline:
    """The device timeline with an unsorted in-flight list, rebuilt twice
    per booking, and a linear least-busy channel pick."""

    def __init__(self, nchannels: int, knee_depth: int = 0, knee_penalty: float = 0.0):
        self.nchannels = max(1, nchannels)
        self.busy_until = [0] * self.nchannels
        nbg = max(1, self.nchannels // 4)
        self.bg_channels = (
            tuple(range(self.nchannels))
            if self.nchannels == 1
            else tuple(range(self.nchannels - nbg, self.nchannels))
        )
        self.inflight: list = []
        self.foreground_ops = self.background_ops = 0
        self.wait_ns = self.busy_ns = self.max_queued = 0
        self.knee_depth, self.knee_penalty = knee_depth, knee_penalty
        self.knee_ops = self.knee_extra_ns = 0

    def acquire(self, start_ns: int, cost_ns: int, background: bool = False):
        if self.knee_depth > 0:
            self.inflight = [c for c in self.inflight if c > start_ns]
            backlog = len(self.inflight)
            if backlog >= self.knee_depth:
                excess = backlog - self.knee_depth + 1
                inflated = round(cost_ns * (1.0 + self.knee_penalty * excess * excess))
                self.knee_ops += 1
                self.knee_extra_ns += inflated - cost_ns
                cost_ns = inflated
        channels = self.bg_channels if background else range(self.nchannels)
        best, best_free = -1, 0
        for ch in channels:
            free = self.busy_until[ch]
            if best < 0 or free < best_free:
                best, best_free = ch, free
        begin = start_ns if start_ns > best_free else best_free
        complete = begin + cost_ns
        self.busy_until[best] = complete
        self.wait_ns += begin - start_ns
        self.busy_ns += cost_ns
        if background:
            self.background_ops += 1
        else:
            self.foreground_ops += 1
        self.inflight = [c for c in self.inflight if c > start_ns]
        self.inflight.append(complete)
        self.max_queued = max(self.max_queued, len(self.inflight))
        return begin, complete

    def queued_at(self, now_ns: int) -> int:
        return sum(1 for c in self.inflight if c > now_ns)


#: in-order streams: gaps between starts and costs are drawn with zero as
#: a frequent value, so same-instant ties and zero-cost bookings are common
in_order_streams = st.lists(
    st.tuples(
        st.one_of(st.just(0), st.integers(0, 400)),  # gap to the previous start
        st.one_of(st.just(0), st.integers(1, 900)),  # cost_ns
        st.booleans(),  # background
        st.integers(-200, 1_500),  # probe offset for queued_at
    ),
    max_size=40,
)

#: every drawn stream is replayed on each channel count, knee setting and
#: clock mode (still: the global cursor stays at 0 and nothing is dropped;
#: following: it follows the arrivals, and with ``RUNS_KEPT`` patched to 2
#: a channel drops its stale runs as soon as it holds two): 400 examples x
#: 30 configurations = 12,000 schedules
TIMELINE_CONFIGS = [
    (n, knee, follow)
    for n in [1, 2, 3, 4, 8]
    for knee in [(0, 0.0), (1, 0.5), (3, 0.25)]
    for follow in (False, True)
]


@settings(max_examples=400, deadline=None)
@given(stream=in_order_streams)
def test_timeline_matches_scan_reference(stream):
    """In-order streams only: booked in non-decreasing start order, no gap
    ever opens after a booking's start, so gap filling must reproduce the
    FIFO horizon bit for bit.  Out of order, the timeline fills gaps the
    FIFO horizon could not (``test_device_queue_oracle.py`` holds that
    contract)."""
    with patch.object(base, "RUNS_KEPT", 2):
        for nchannels, knee, follow in TIMELINE_CONFIGS:
            replay_against_scan(stream, nchannels, knee, follow)


def replay_against_scan(stream, nchannels, knee, follow):
    clock = SimClock()
    real = DeviceTimeline(nchannels, clock, knee_depth=knee[0], knee_penalty=knee[1])
    ref = ScanTimeline(nchannels, knee_depth=knee[0], knee_penalty=knee[1])
    starts = accumulate(gap for gap, _, _, _ in stream)
    for start, (_, cost, background, probe) in zip(starts, stream):
        if follow:
            clock.advance_to(start)
        assert real.acquire(start, cost, background) == ref.acquire(start, cost, background)
        assert real.queued_at(start + probe) == ref.queued_at(start + probe)
        assert real.queued_at(start) == ref.queued_at(start)
        assert real.busy_until == ref.busy_until
        assert real.max_queued == ref.max_queued
        assert (real.knee_ops, real.knee_extra_ns) == (ref.knee_ops, ref.knee_extra_ns)
    assert real.snapshot() == {
        "channels": ref.nchannels,
        "fg_ops": ref.foreground_ops,
        "bg_ops": ref.background_ops,
        "wait_ns": ref.wait_ns,
        "busy_ns": ref.busy_ns,
        "max_queued": ref.max_queued,
        **(
            {"knee_ops": ref.knee_ops, "knee_extra_ns": ref.knee_extra_ns}
            if knee[0] > 0
            else {}
        ),
    }


def test_timeline_tie_break_is_lowest_channel_index():
    """Equal horizons: the lowest eligible index wins, for both classes."""
    tl = DeviceTimeline(8, SimClock())
    assert [tl.acquire(0, 10, False)[0] for _ in range(8)] == [0] * 8
    assert tl.busy_until == [10] * 8
    tl.acquire(0, 5, False)  # all equal -> channel 0
    assert tl.busy_until[0] == 15
    tl.acquire(0, 5, background=True)  # reserved tail = channels 6, 7
    assert tl.busy_until[6] == 15 and tl.busy_until[7] == 10


# ---------------------------------------------------------------------------
# BitmapAllocator
# ---------------------------------------------------------------------------


class ScanAllocator(BitmapAllocator):
    """Next-fit allocation by a byte-at-a-time bitmap walk."""

    def alloc_run(self, want: int, hint: Optional[int] = None) -> Tuple[int, int]:
        if want <= 0:
            raise ValueError("want must be positive")
        if self._free == 0:
            raise NoSpace("full")
        if hint is not None and not self.base <= hint < self.base + self.count:
            hint = None
        start_idx = self._cursor if hint is None else self._index(hint)
        best = None
        idx = start_idx
        scanned = 0
        while scanned < self.count:
            if not self._bitmap[idx]:
                run_len = self._scan_run_length(idx, want)
                if run_len >= want:
                    best = (idx, want)
                    break
                if best is None or run_len > best[1]:
                    best = (idx, run_len)
                idx = (idx + run_len) % self.count
                scanned += run_len
            else:
                idx = (idx + 1) % self.count
                scanned += 1
        if best is None:
            raise NoSpace("no free run found")
        run_start, run_len = best
        for i in range(run_start, run_start + run_len):
            self._bitmap[i] = 1
        self._free -= run_len
        self._cursor = (run_start + run_len) % self.count
        return self.base + run_start, run_len

    def _scan_run_length(self, idx: int, cap: int) -> int:
        n = 0
        while idx + n < self.count and n < cap and not self._bitmap[idx + n]:
            n += 1
        return n


def _observe(alloc: BitmapAllocator):
    return bytes(alloc._bitmap), alloc._cursor, alloc.free_blocks


def _attempt(fn, *args):
    try:
        return fn(*args)
    except NoSpace:
        return "NoSpace"


BASE = 100

allocator_ops = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.integers(1, 24), st.none() | st.integers(BASE - 4, BASE + 70)),
        st.tuples(st.just("extent"), st.integers(1, 40), st.none() | st.integers(BASE - 4, BASE + 70)),
        st.tuples(st.just("free"), st.integers(0, 200), st.integers(1, 12)),
    ),
    max_size=50,
)


@settings(max_examples=300, deadline=None)
@given(count=st.integers(1, 64), ops=allocator_ops)
def test_allocator_matches_scan_reference(count, ops):
    real, ref = BitmapAllocator(BASE, count), ScanAllocator(BASE, count)
    held: List[Tuple[int, int]] = []
    for op, a, b in ops:
        if op == "free":
            if not held:
                continue
            start, n = held.pop(a % len(held))
            k = min(b, n)  # free a prefix, keep the rest held
            real.free_run(start, k)
            ref.free_run(start, k)
            if n > k:
                held.append((start + k, n - k))
        elif op == "run":
            got = _attempt(real.alloc_run, a, b)
            assert got == _attempt(ref.alloc_run, a, b)
            if got != "NoSpace":
                held.append(got)
        else:
            got = _attempt(real.alloc_extent, a, b)
            assert got == _attempt(ref.alloc_extent, a, b)
            if got != "NoSpace":
                held.extend(got)
        assert _observe(real) == _observe(ref)
        real.check_invariants()


def test_allocator_matches_scan_reference_exhaustively_on_small_bitmaps():
    """Every bitmap of up to 7 blocks, every cursor, every request size."""
    for n in range(1, 8):
        for pattern in range(1 << n):
            bits = bytearray((pattern >> i) & 1 for i in range(n))
            if all(bits):
                continue
            for cursor in range(n):
                for want in range(1, n + 2):
                    results = []
                    for cls in (BitmapAllocator, ScanAllocator):
                        alloc = cls(BASE, n)
                        alloc._bitmap[:] = bits
                        alloc._free = n - sum(bits)
                        alloc._cursor = cursor
                        results.append((alloc.alloc_run(want, None), _observe(alloc)))
                    assert results[0] == results[1], (bits, cursor, want)


def test_allocator_next_fit_wraps_and_keeps_the_longest_short_run():
    """A fragmented map: free [3, 8) and [9, 10) of 10, cursor at 5.  Asking
    for 5 walks 5..7 (3 free, kept as best), wraps, and finds the 5-run at
    3 that straddles the start point."""
    for cls in (BitmapAllocator, ScanAllocator):
        alloc = cls(0, 10)
        alloc.alloc_run(10, None)
        alloc.free_run(3, 5)
        alloc.free_run(9, 1)
        alloc._cursor = 5
        assert alloc.alloc_run(5, None) == (3, 5)
        assert alloc._cursor == 8
        assert alloc.alloc_run(4, None) == (9, 1)  # longest short run when none fits
        with pytest.raises(NoSpace):
            alloc.alloc_run(1, None)


# ---------------------------------------------------------------------------
# replica_runs
# ---------------------------------------------------------------------------


def scan_replica_runs(blt, replicas, start, count):
    """``replica_runs`` as it was: a full copy and linear intersection of
    every mirror's clean list per BLT run."""
    for run_start, run_len, tier in blt.runs(start, count):
        if tier is None or replicas is None:
            yield run_start, run_len, tier, ()
            continue
        cover = []
        cuts = {run_start, run_start + run_len}
        for mirror in replicas.tiers():
            if mirror == tier:
                continue
            for s, n in intersect_runs(replicas.clean_runs(mirror), [(run_start, run_len)]):
                cover.append((s, s + n, mirror))
                cuts.add(s)
                cuts.add(s + n)
        if not cover:
            yield run_start, run_len, tier, ()
            continue
        pts = sorted(cuts)
        pending = None
        for a, b in zip(pts, pts[1:]):
            mirrors = tuple(sorted(m for s, e, m in cover if s <= a and b <= e))
            if pending is not None and pending[2] == mirrors and pending[1] == a:
                pending = (pending[0], b, mirrors)
            else:
                if pending is not None:
                    yield pending[0], pending[1] - pending[0], tier, pending[2]
                pending = (a, b, mirrors)
        if pending is not None:
            yield pending[0], pending[1] - pending[0], tier, pending[2]


SPAN = 48
block_ranges = st.tuples(st.integers(0, SPAN - 1), st.integers(1, 16))


@settings(max_examples=300, deadline=None)
@given(
    maps=st.lists(st.tuples(block_ranges, st.sampled_from([0, 1, 2, None])), max_size=10),
    mirror_ops=st.lists(
        st.tuples(
            st.sampled_from(["synced", "stale", "write"]),
            st.sampled_from([0, 1, 2]),
            block_ranges,
        ),
        max_size=20,
    ),
    query=block_ranges,
    mirrored=st.booleans(),
)
def test_replica_runs_matches_scan_reference(maps, mirror_ops, query, mirrored):
    blt = ExtentBlt()
    for (s, n), tier in maps:
        if tier is None:
            blt.unmap_range(s, n)
        else:
            blt.map_range(s, n, tier)
    replicas = ReplicaSet() if mirrored else None
    if replicas is not None:
        for tier in (0, 1, 2):
            replicas.add_tier(tier)
        for op, tier, (s, n) in mirror_ops:
            if op == "synced":
                replicas.mark_synced(tier, s, n)
            elif op == "stale":
                replicas.mark_stale(tier, s, n, 0)
            else:
                replicas.note_write(s, n, tier, 0)
    got = list(replica_runs(blt.runs(*query), replicas))
    assert got == list(scan_replica_runs(blt, replicas, *query))


def test_replica_runs_single_full_cover():
    """One mirror cleanly covering the whole BLT run: one run out."""
    blt = ExtentBlt()
    blt.map_range(0, 16, 2)
    replicas = ReplicaSet()
    replicas.add_tier(0)
    replicas.mark_synced(0, 0, 32)
    assert list(replica_runs(blt.runs(4, 8), replicas)) == [(4, 8, 2, (0,))]
    assert list(replica_runs(blt.runs(4, 8), replicas)) == list(
        scan_replica_runs(blt, replicas, 4, 8)
    )


# ---------------------------------------------------------------------------
# BlockIntervalSet.overlap
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(st.tuples(st.booleans(), block_ranges), max_size=20),
    query=st.tuples(st.integers(-4, SPAN + 8), st.integers(-2, 24)),
)
def test_overlap_matches_intersect_runs(ops, query):
    ivals = BlockIntervalSet()
    for add, (s, n) in ops:
        if add:
            ivals.add_range(s, n)
        else:
            ivals.remove_range(s, n)
    s, n = query
    assert ivals.overlap(s, n) == intersect_runs(ivals.runs(), [(s, n)])
