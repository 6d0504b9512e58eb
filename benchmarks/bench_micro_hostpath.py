"""Microbenchmarks of the per-op host path under one ring read.

Every ring read pays for a submission and a reap, a few clock frames, one
call through the tier door per sub-request and, on a hit, one page-cache
span copy.  ``muxbench`` sees their sum only; these time each piece and,
where a population could make it slower, grow that population and assert
the cost stays flat:

* ring submit + reap at depth 1 / 8 / 64 (a submit bisects the
  in-flight completions, so the depth adds little), timed and counted;
* ``SimClock`` push / advance / pop under 0 and 64 enclosing frames,
  timed and counted;
* one ``TierFiles._call`` on a healthy tier;
* a ``PageCache.get_span`` hit in a 256- vs 16,384-page cache, timed and
  counted;
* the PM persist path: a 64 B NOVA log entry (``store`` + ``flush_range``)
  and a 16 KiB ``store_run`` + ``flush_range``;
* one journal commit (a one-record transaction written to the journal
  region);
* a dentry-cache hit in Mux's namespace;
* MOST read routing of one 4-block run of a mirrored file, with its one
  clean mirror covering the run whole or in part;
* one pressure sample over the three tiers of the default stack.

These measure *host* time; simulated time only matters to the ring case,
where it decides how many completions are still in flight.
"""

import timeit

import pytest

import repro.core.ring
import repro.fscommon.pagecache
import repro.sim.clock

from repro.core.policy import MigrationOrder
from repro.devices.pm import CACHE_LINE, PersistentMemoryDevice
from repro.devices.ssd import SolidStateDrive
from repro.fscommon.journal import Journal
from repro.fscommon.pagecache import PageCache
from repro.sim.clock import SimClock
from repro.stack import build_stack
from repro.vfs.interface import OpenFlags

from hostwork import code_work

MIB = 1024 * 1024
BS = 4096


def best_of_5(fn, number: int) -> float:
    return min(timeit.repeat(fn, repeat=5, number=number)) / number


# -- IoRing submit + reap ------------------------------------------------------

DEPTHS = [1, 8, 64]


def ring_reader(depth: int):
    """A ring of ``depth`` over a one-file, one-tier stack, and a step that
    keeps it full: reap the earliest completion once ``depth`` are queued,
    then submit one more 4 KiB read."""
    stack = build_stack(
        tiers=["ssd"], capacities={"ssd": 16 * MIB}, enable_cache=False
    )
    mux = stack.mux
    handle = mux.open("/f", OpenFlags.RDWR | OpenFlags.CREAT)
    mux.write(handle, 0, bytes(16 * BS))
    ring = mux.open_ring(depth=depth)
    offsets = iter(range(10**12))

    def step():
        if ring.pending >= depth:
            ring.wait()
        ring.submit_read(handle, (next(offsets) % 16) * BS, BS)

    for _ in range(2 * depth):
        step()
    return ring, step


@pytest.mark.benchmark(group="ring.submit_reap")
@pytest.mark.parametrize("depth", DEPTHS)
def test_ring_submit_reap(benchmark, depth):
    ring, step = ring_reader(depth)
    benchmark.pedantic(step, rounds=50, iterations=20)
    assert ring.pending == depth


def test_ring_cost_does_not_follow_depth():
    """64 queued completions vs one: at most 2x the submit+reap cost (the
    read under it dominates; scanning the queued completions must not)."""
    t = {}
    for depth in (1, 64):
        _, step = ring_reader(depth)
        t[depth] = best_of_5(step, 400)
    assert t[64] <= 2 * t[1], t


def test_ring_work_does_not_follow_depth():
    """The counted twin of the timed assert above: a submit+reap at depth
    64 makes exactly the calls and runs exactly the lines one at depth 1
    does, so no part of the ring walks its queued completions."""
    work = {}
    for depth in (1, 64):
        _, step = ring_reader(depth)
        work[depth] = code_work(step, 200, repro.core.ring)
    assert work[64] == work[1], work


# -- SimClock frames -----------------------------------------------------------


def nested_clock(depth: int) -> SimClock:
    clock = SimClock()
    for i in range(depth):
        clock.push_frame(background=i % 2 == 0)
        clock.advance_ns(10)
    return clock


def frame_cycle(clock: SimClock):
    def cycle():
        clock.push_frame()
        clock.advance_ns(100)
        clock.advance_to(clock.now_ns + 50)
        clock.pop_frame()

    return cycle


@pytest.mark.benchmark(group="clock.frame_cycle")
@pytest.mark.parametrize("depth", [0, 64])
def test_clock_frame_cycle(benchmark, depth):
    clock = nested_clock(depth)
    benchmark.pedantic(frame_cycle(clock), rounds=50, iterations=200)
    assert clock.in_frame == bool(depth)


def test_clock_cost_does_not_follow_nesting():
    """A push/advance/pop cycle under 64 enclosing frames costs what it
    costs on the bare clock, within 2x."""
    t = {d: best_of_5(frame_cycle(nested_clock(d)), 5000) for d in (0, 64)}
    assert t[64] <= 2 * t[0], t


def test_clock_work_does_not_follow_nesting():
    """The counted twin of the timed assert above: a push/advance/pop
    cycle under 64 enclosing frames makes the calls and runs the lines
    one on the bare clock does, so no frame operation walks the saved
    frames."""
    work = {
        d: code_work(frame_cycle(nested_clock(d)), 200, repro.sim.clock)
        for d in (0, 64)
    }
    assert work[64] == work[0], work


# -- TierFiles._call -----------------------------------------------------------


@pytest.mark.benchmark(group="tierfiles.call_healthy")
def test_tier_door_healthy_call(benchmark):
    stack = build_stack(enable_cache=False)
    files = stack.mux.files
    tier_id = stack.tier_ids["ssd"]
    stats = stack.mux.stats.snapshot()
    got = benchmark.pedantic(
        files._call,
        args=(tier_id, lambda tier: tier.tier_id),
        rounds=50,
        iterations=200,
    )
    assert got == tier_id
    # the healthy path neither retries nor counts anything
    assert stack.mux.stats.snapshot() == stats


# -- PageCache.get_span --------------------------------------------------------

PS = 8
SPAN = 16
SIZES = [256, 16384]


def cache_with_hit(pages: int) -> PageCache:
    """A full cache whose inode 1 holds ``SPAN`` clean pages."""
    cache = PageCache(SimClock(), pages, PS, lambda ino, fb, data: None)
    cache.put_span(1, 0, bytes(SPAN * PS), dirty=False)
    for ino in range(2, 2 + (pages - SPAN) // 48):
        cache.put_span(ino, 0, bytes(48 * PS), dirty=False)
    assert cache.span_cached(1, 0, SPAN) == SPAN
    return cache


@pytest.mark.benchmark(group="pagecache.get_span_hit")
@pytest.mark.parametrize("pages", SIZES)
def test_get_span_hit(benchmark, pages):
    cache = cache_with_hit(pages)
    out = bytearray(SPAN * PS)
    benchmark.pedantic(
        cache.get_span, args=(1, 0, SPAN, out, 0), rounds=50, iterations=50
    )
    assert cache.stats.get("hit") >= 50 * 50 * SPAN


def test_get_span_cost_does_not_follow_cache_size():
    """64x the cached pages, same span: at most 2x the hit cost."""
    t = {}
    for pages in SIZES:
        cache = cache_with_hit(pages)
        out = bytearray(SPAN * PS)
        t[pages] = best_of_5(lambda: cache.get_span(1, 0, SPAN, out, 0), 2000)
    assert t[SIZES[1]] <= 2 * t[SIZES[0]], t


def test_get_span_work_does_not_follow_cache_size():
    """The counted twin of the timed assert above: a span hit in a
    16,384-page cache makes exactly the calls and runs exactly the lines
    one in a 256-page cache does."""
    work = {}
    for pages in SIZES:
        cache = cache_with_hit(pages)
        out = bytearray(SPAN * PS)
        work[pages] = code_work(
            lambda: cache.get_span(1, 0, SPAN, out, 0), 200, repro.fscommon.pagecache
        )
    assert work[SIZES[1]] == work[SIZES[0]], work


# -- PM persist path -------------------------------------------------------------


def pm_persist(nbytes: int, chunk: int):
    """A PM device and one persist of ``nbytes`` at a fixed address: the
    stores (``chunk`` bytes each), then the cache-line flush."""
    pm = PersistentMemoryDevice("pm", 64 * MIB, SimClock())
    data = bytes(nbytes)
    addr = 8 * MIB

    def persist():
        pm.store_run(addr, data, chunk)
        pm.flush_range(addr, nbytes)

    return pm, persist


@pytest.mark.benchmark(group="pm.persist")
@pytest.mark.parametrize(
    "nbytes, chunk", [(CACHE_LINE, CACHE_LINE), (16 * 1024, BS)], ids=["log64", "run16k"]
)
def test_pm_store_flush(benchmark, nbytes, chunk):
    pm, persist = pm_persist(nbytes, chunk)
    benchmark.pedantic(persist, rounds=50, iterations=50)
    assert pm.unflushed_lines == 0
    assert pm.stats.write_ops >= 50 * 50 * (nbytes // chunk)


# -- journal commit --------------------------------------------------------------


@pytest.mark.benchmark(group="journal.commit")
def test_journal_commit(benchmark):
    journal = Journal(SolidStateDrive("ssd", 64 * MIB, SimClock()), 0, 8192)

    def commit():
        txn = journal.begin()
        txn.add("set_size", ino=7, size=4096)
        txn.commit()

    benchmark.pedantic(commit, rounds=50, iterations=50)
    assert journal.stats.get("commits") >= 50 * 50
    assert journal.pending_transactions == journal.stats.get("commits")


# -- dentry hit ----------------------------------------------------------------------


@pytest.mark.benchmark(group="dcache.hit")
def test_dentry_hit(benchmark):
    stack = build_stack(enable_cache=False)
    mux = stack.mux
    mux.mkdir("/d")
    mux.close(mux.create("/d/f"))
    inode = mux.ns.resolve("/d/f")
    hits = mux.ns.dcache.hits
    got = benchmark.pedantic(mux.ns.resolve, args=("/d/f",), rounds=50, iterations=200)
    assert got is inode
    assert mux.ns.dcache.hits >= hits + 50 * 200


# -- MOST read routing ---------------------------------------------------------------


def mirrored_read(cover: str):
    """A 16-block file whose authority is on the HDD, with a PM mirror
    that is clean on the whole file (``whole``) or on its first two
    blocks (``part``); returns the mux, the inode and one read's BLT runs."""
    stack = build_stack()
    mux = stack.mux
    handle = mux.create("/f")
    mux.write(handle, 0, bytes(16 * BS))
    inode = mux.ns.get(handle.ino)
    hdd, pm = stack.tier_ids["hdd"], stack.tier_ids["pm"]
    for start, count, tier in list(inode.blt.runs(0, 16)):
        if tier != hdd:
            mux.engine.migrate_now(MigrationOrder(inode.ino, start, count, tier, hdd))
    mux.mirrors.add_mirror(inode, pm)
    if cover == "whole":
        mux.mirrors.sync_file(inode)
    else:
        inode.replicas.mark_synced(pm, 0, 2)
    return mux, inode, list(inode.blt.runs(0, 4))


@pytest.mark.benchmark(group="mirror.route_reads")
@pytest.mark.parametrize("cover", ["whole", "part"])
def test_mirror_route_reads(benchmark, cover):
    mux, inode, runs = mirrored_read(cover)
    routed = benchmark.pedantic(
        mux.mirrors.route_reads, args=(inode, runs), rounds=50, iterations=200
    )
    pm = mux.registry.by_name("pm").tier_id
    assert routed[0] == ((0, 4, pm) if cover == "whole" else (0, 2, pm))
    assert mux.stats.get("reads_from_mirror") >= 50 * 200


# -- pressure sample -----------------------------------------------------------------


@pytest.mark.benchmark(group="pressure.sample")
def test_pressure_sample(benchmark):
    """Every call is an interval later than the last, so each one samples
    all three tiers (the read path's common case)."""
    monitor = build_stack().mux.pressure
    step = monitor.sample_interval_ns
    now = [0]

    def sample():
        now[0] += step
        monitor.sample(now[0])

    benchmark.pedantic(sample, rounds=50, iterations=200)
    assert all(entry["samples"] >= 50 * 200 for entry in monitor.snapshot().values())
