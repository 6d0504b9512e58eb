"""Oracle for the device queue: :class:`DeviceTimeline` against references
that do not share its code.

(i)   *In-order streams.*  Booked in non-decreasing start order, gap
      filling must reproduce ``ScanTimeline`` -- the FIFO-horizon
      timeline it replaced -- bit for bit; that check lives in
      ``test_control_plane_model.py::test_timeline_matches_scan_reference``
      (12,000 schedules), beside the reference itself.
(ii)  *Out-of-order streams* (what the open-loop driver makes: each op
      books its whole path in its own clock frame).  A reference-free
      property: no two bookings overlap on a channel, background bookings
      use only the reserved tail, and no eligible channel had a free
      window of ``cost_ns`` (at least 1 ns) starting in ``[start, begin)``.
      It is checked with the clock's global cursor still, trailing every
      start to come (the floor invariant), and running ahead of later
      starts (the invariant broken: bookings below the floor must still
      never overlap a run, even one already dropped).
(iii) *An event-list queue*: c FIFO servers served in simulated-arrival
      order, the textbook model of SNIPPETS.md's ``simpy.Resource`` grown
      to c servers with a class-restricted background subset.  It must
      agree exactly on in-order streams; on out-of-order streams gap
      filling departs from it (host order still decides who gets a gap
      first), and the departure is counted and pinned below.
(iv)  *Pollaczek-Khinchine*: one channel, fixed service time, Poisson
      arrivals -- the mean wait of an M/D/1 queue is ``rho*S / 2(1-rho)``.

A scan over the smoke-size workloads also checks the floor invariant the
timeline's pruning rests on: no booking starts below the clock's global
cursor.
"""

from __future__ import annotations

import heapq
import random
from itertools import accumulate
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.wallclock import WORKLOADS
from repro.devices import base
from repro.devices.base import RUNS_KEPT, DeviceTimeline
from repro.sim.clock import SimClock
from tests.test_control_plane_model import in_order_streams

CHANNELS = [1, 2, 3, 4, 8]
KNEES = [(0, 0.0), (1, 0.5), (3, 0.25)]


def bg_first(nchannels: int) -> int:
    """First channel of the reserved background tail."""
    return 0 if nchannels == 1 else nchannels - max(1, nchannels // 4)


# ---------------------------------------------------------------------------
# (ii) out-of-order streams: the gap-filling contract
# ---------------------------------------------------------------------------

any_order_streams = st.lists(
    st.tuples(
        st.integers(0, 5_000),  # start_ns
        st.one_of(st.just(0), st.integers(1, 900)),  # cost_ns
        st.booleans(),  # background
    ),
    max_size=60,
)


def covers(runs, begin: int, end: int) -> bool:
    """True if one merged run of a channel's flat run list holds [begin, end)."""
    return any(runs[k] <= begin and end <= runs[k + 1] for k in range(0, len(runs), 2))


def free_window(booked, start: int, need: int, until: int):
    """Earliest t in [start, until) with [t, t+need) clear of ``booked``."""
    for t in sorted({start, *(e for _, e in booked if start < e < until)}):
        if t < until and all(t + need <= b or e <= t for b, e in booked):
            return t
    return None


#: how the clock's global cursor moves before each booking: ``still``
#: stays at 0 (nothing is dropped), ``behind`` rises to the earliest start
#: still to come (the floor invariant the pruning rests on), ``ahead``
#: rises to the latest start so far, past the starts of later bookings
FLOORS = ["still", "behind", "ahead"]


@settings(max_examples=1_000, deadline=None)
@given(
    stream=any_order_streams,
    nchannels=st.sampled_from(CHANNELS),
    knee=st.sampled_from(KNEES),
    floor_mode=st.sampled_from(FLOORS),
)
def test_out_of_order_streams_keep_the_gap_filling_contract(
    stream, nchannels, knee, floor_mode
):
    with patch.object(base, "RUNS_KEPT", 2):
        check_gap_filling(stream, nchannels, knee, floor_mode)


def check_gap_filling(stream, nchannels, knee, floor_mode):
    clock = SimClock()
    tl = DeviceTimeline(nchannels, clock, knee_depth=knee[0], knee_penalty=knee[1])
    starts = [start for start, _, _ in stream]
    floors = {
        "still": [0] * len(stream),
        "behind": list(accumulate(reversed(starts), min))[::-1],
        "ahead": list(accumulate(starts, max)),
    }[floor_mode]
    booked = [[] for _ in range(nchannels)]  # the test's own record per channel
    tail = bg_first(nchannels)
    drop = DeviceTimeline._drop_stale
    held = {}  # channel -> its runs as booked, before a drop

    def spy(self, runs):
        held[next(c for c, r in enumerate(self._runs) if r is runs)] = list(runs)
        drop(self, runs)

    with patch.object(DeviceTimeline, "_drop_stale", spy):
        for (start, cost, background), floor in zip(stream, floors):
            clock.advance_to(floor)
            held.clear()
            begin, complete = tl.acquire(start, cost, background)
            assert start <= begin <= complete
            eligible = range(tail if background else 0, nchannels)
            # below the floor the timeline has forgotten what it dropped
            # and searches from the highest floor it dropped at
            need, search = max(1, complete - begin), max(start, tl._floor_ns)
            for ch in eligible:
                early = free_window(booked[ch], search, need, begin)
                assert early is None, (ch, early, begin)
            if complete == begin:
                continue  # a zero-cost booking occupies no channel time
            # the channel it landed on holds it, clear of that channel's
            # earlier bookings (dropped ones included)
            fresh = [c for c in range(nchannels)
                     if covers(held.get(c, tl._runs[c]), begin, complete)
                     and not any(b < complete and begin < e for b, e in booked[c])]
            assert len(fresh) == 1, ("overlaps a booked run", begin, complete, booked)
            (ch,) = fresh
            assert ch in eligible
            booked[ch].append((begin, complete))
    for ch in range(nchannels):  # the runs are the merged bookings (the
        merged = []  # latest ones, once stale runs are dropped)
        for b, e in sorted(booked[ch]):
            if merged and merged[-1] == b:
                merged[-1] = e
            else:
                merged += [b, e]
        runs = tl._runs[ch]
        if floor_mode == "still":
            assert runs == merged
        for k in range(0, len(runs), 2):
            assert covers(merged, runs[k], runs[k + 1])
        for b, e in booked[ch]:
            assert e <= tl._floor_ns or covers(runs, b, e)
    assert tl.fg_wait_ns + tl.bg_wait_ns == tl.wait_ns  # the split by class
    assert "fg_wait_ns" not in tl.snapshot() and "bg_wait_ns" not in tl.snapshot()


# ---------------------------------------------------------------------------
# (iii) the event-list queue: c FIFO servers in simulated-arrival order
# ---------------------------------------------------------------------------


def arrival_order_reference(stream, nchannels: int):
    """Serve ``(start_ns, cost_ns, background)`` requests in arrival order.

    An event list of arrivals and departures (departures first at a tied
    instant, lower server first; arrivals at a tied instant in stream
    order).  An arriving request takes the eligible idle server that has
    been idle longest (lowest index on a tie) or joins the FIFO wait
    queue; a departing server goes to the first waiting request it may
    serve, else idles.  Background requests may use only the reserved
    tail.  Returns ``(begin, complete)`` per request, in stream order.
    """
    tail = bg_first(nchannels)
    idle_since = dict.fromkeys(range(nchannels), 0)
    waiting = []
    events = [(start, 1, i) for i, (start, _, _) in enumerate(stream)]
    heapq.heapify(events)
    out = [None] * len(stream)

    def serve(i: int, server: int, now: int) -> None:
        out[i] = (now, now + stream[i][1])
        heapq.heappush(events, (now + stream[i][1], 0, server))

    while events:
        now, arrival, who = heapq.heappop(events)
        if arrival:
            first = tail if stream[who][2] else 0
            idle = [(t, s) for s, t in idle_since.items() if s >= first]
            if idle:
                server = min(idle)[1]
                del idle_since[server]
                serve(who, server, now)
            else:
                waiting.append(who)
            continue
        for k, i in enumerate(waiting):
            if who >= tail or not stream[i][2]:
                del waiting[k]
                serve(i, who, now)
                break
        else:
            idle_since[who] = now
    return out


@settings(max_examples=1_000, deadline=None)
@given(stream=in_order_streams, nchannels=st.sampled_from(CHANNELS))
def test_event_list_reference_agrees_on_in_order_streams(stream, nchannels):
    starts = accumulate(gap for gap, _, _, _ in stream)
    requests = [(s, cost, bg) for s, (_, cost, bg, _) in zip(starts, stream)]
    tl = DeviceTimeline(nchannels, SimClock())
    got = [tl.acquire(*request) for request in requests]
    assert got == arrival_order_reference(requests, nchannels)


#: out-of-order corpus for the departure count: streams of ``STREAM_LEN``
#: requests, each starting up to ``LEAD_NS`` ahead of a host-order cursor
#: that advances by a uniform inter-arrival gap (a sub-request booked ahead
#: in its op's frame)
CORPUS, STREAM_LEN, LEAD_NS = 200, 40, 3_000
#: recorded departures of gap filling from the arrival-order reference on
#: that corpus, per channel count: (streams that differ, requests whose
#: (begin, complete) differ, gap-filling total wait ns, reference total
#: wait ns).  The FIFO-horizon timeline it replaced departed further:
#: 1: (200, 7411, 49189699, 40502804), 2: (200, 7133, 14648406, 6450552),
#: 4: (200, 4317, 3655647, 604359), 8: (169, 593, 271058, 47637).
DEPARTURES = {
    1: (200, 7110, 41541834, 40502804),
    2: (200, 6330, 7897738, 6450552),
    4: (194, 1986, 904473, 604359),
    8: (125, 262, 66916, 47637),
}


def corpus(nchannels: int):
    rng = random.Random(nchannels)
    for _ in range(CORPUS):
        cursor, stream = 0, []
        for _ in range(STREAM_LEN):
            cursor += rng.randrange(0, 400)
            lead = rng.randrange(0, LEAD_NS) if rng.random() < 0.3 else 0
            stream.append((cursor + lead, rng.randrange(50, 900), rng.random() < 0.2))
        yield stream


def departures(nchannels: int):
    differ = requests = gap_wait = ref_wait = 0
    for stream in corpus(nchannels):
        tl = DeviceTimeline(nchannels, SimClock())
        got = [tl.acquire(*request) for request in stream]
        want = arrival_order_reference(stream, nchannels)
        diverged = sum(g != w for g, w in zip(got, want))
        differ += diverged > 0
        requests += diverged
        gap_wait += sum(b - s for (b, _), (s, _, _) in zip(got, stream))
        ref_wait += sum(b - s for (b, _), (s, _, _) in zip(want, stream))
    return differ, requests, gap_wait, ref_wait


def test_departure_from_arrival_order_is_recorded():
    assert {n: departures(n) for n in DEPARTURES} == DEPARTURES


# ---------------------------------------------------------------------------
# (iv) Pollaczek-Khinchine: the M/D/1 mean wait
# ---------------------------------------------------------------------------

SERVICE_NS = 10_000
#: arrivals per utilisation: the sample mean's spread grows like
#: 1/(1-rho)^2, so the heavily loaded queue needs the most
ARRIVALS = {0.3: 200_000, 0.6: 300_000, 0.9: 4_000_000}


def test_mean_wait_matches_pollaczek_khinchine():
    for rho, n in ARRIVALS.items():
        clock = SimClock()
        tl = DeviceTimeline(1, clock)
        rng = random.Random(7)
        t = 0.0
        for _ in range(n):
            t += rng.expovariate(rho / SERVICE_NS)
            start = round(t)
            clock.advance_to(start)
            tl.acquire(start, SERVICE_NS, False)
        want = rho * SERVICE_NS / (2 * (1 - rho))
        got = tl.wait_ns / n
        assert abs(got - want) <= 0.02 * want, (rho, got, want)


# ---------------------------------------------------------------------------
# the floor the pruning rests on, and the bound it buys
# ---------------------------------------------------------------------------


def test_no_booking_starts_below_the_global_cursor(monkeypatch):
    """Every booking of every smoke-size golden workload starts at or
    after its clock's global cursor, so no pruned run is ever needed."""
    below = []
    acquire = DeviceTimeline.acquire

    def checked(self, start_ns, cost_ns, background):
        if start_ns < self.clock.global_now_ns:
            below.append((start_ns, self.clock.global_now_ns))
        return acquire(self, start_ns, cost_ns, background)

    monkeypatch.setattr(DeviceTimeline, "acquire", checked)
    for _, workload in WORKLOADS:
        workload(True)
    assert below == []


def test_stored_runs_stay_bounded_by_bookings_ahead_of_the_floor():
    """20,000 out-of-order bookings on a busy 4-channel device while the
    clock advances.  After every booking the channel it landed on holds
    at most ``RUNS_KEPT // 2`` runs or its share of the bookings still
    ahead of the floor, whichever is larger, and no channel changes
    between its own bookings -- however many were booked before."""
    clock = SimClock()
    tl = DeviceTimeline(4, clock)
    rng = random.Random(5)
    ahead: list = []  # completions past the floor (a heap)
    most = pruned = 0
    for _ in range(20_000):
        clock.advance_ns(rng.randrange(0, 300))
        floor = clock.global_now_ns
        while ahead and ahead[0] <= floor:
            heapq.heappop(ahead)
        start = floor + (rng.randrange(0, 100_000) if rng.random() < 0.5 else 0)
        before = [list(runs) for runs in tl._runs]
        heapq.heappush(ahead, tl.acquire(start, rng.randrange(1, 900), rng.random() < 0.2)[1])
        changed = [ch for ch in range(4) if tl._runs[ch] != before[ch]]
        assert len(changed) <= 1
        for ch in changed:
            runs = tl._runs[ch]
            held = len(runs) // 2
            assert held <= max(RUNS_KEPT // 2, len(ahead))
            if held > RUNS_KEPT // 2:
                assert runs[1] > floor  # over the cap, nothing stale is kept
            pruned += len(before[ch]) > len(runs) + 2
            most = max(most, held)
    assert pruned > 0 and most > RUNS_KEPT // 2  # both regimes were reached
