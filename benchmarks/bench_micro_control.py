"""Microbenchmarks pinning what control-plane work per op may cost.

Background and control-plane work rides on every user op — a device
booking, an allocation, a mirror-sync tick, a planning round, a routed
read — so each must cost what changed, not what exists.  Every case
below grows a population the operation has no decision to make about
(requests already in flight, allocated blocks between free-space holes,
clean mirrors, unchanged files, clean intervals outside the read) 64x or
more and asserts the cost grows by a small factor at most, where a
Python scan of that population grows it as much as the population.

These measure *host* time; the code under test charges no simulated time
beyond what the op itself books.  Every timed assert has a counted twin
that asserts equal call and line counts (``hostwork.code_work``), which
do not vary with the host.  A timed assert whose twin was shown to catch
the scan it guards may go, as the booking's has: its counted twin stands
alone.
"""

import timeit

import pytest

import repro.core.blt
import repro.core.intervals
import repro.core.mirror
import repro.core.mux
import repro.core.policies
import repro.devices.base
import repro.fscommon.allocator

from repro.core.blt import ReplicaSet
from repro.core.policies import CHUNK_BLOCKS, LruTieringPolicy
from repro.devices.base import DeviceTimeline
from repro.fscommon.allocator import BitmapAllocator
from repro.sim.clock import SimClock
from repro.stack import build_stack

from hostwork import code_work

MIB = 1024 * 1024
BS = 4096


def best_of_5(fn, number: int) -> float:
    return min(timeit.repeat(fn, repeat=5, number=number)) / number


# -- DeviceTimeline.acquire ---------------------------------------------------

COST = 1_000


def steady_timeline(backlog: int):
    """One spindle with ``backlog`` requests in flight, and a booking
    function that keeps it there: each call starts as the oldest request
    completes and queues behind the newest."""
    tl = DeviceTimeline(1, SimClock())
    for _ in range(backlog):
        tl.acquire(0, COST, False)
    assert tl.queued_at(0) == backlog
    clock = iter(range(COST, 10**15, COST))
    return tl, lambda: tl.acquire(next(clock), COST, False)


@pytest.mark.benchmark(group="timeline.acquire")
@pytest.mark.parametrize("backlog", [0, 64, 4096])
def test_acquire(benchmark, backlog):
    tl, book = steady_timeline(backlog)
    benchmark.pedantic(book, rounds=50, iterations=20)
    assert tl.queued_at(tl.busy_until[0] - 1) >= 1


def test_acquire_work_does_not_follow_backlog():
    """A booking behind 4096 requests in flight makes exactly the calls
    and runs exactly the lines one behind 64 does (the in-flight list was
    once filtered per booking; what is left is one C-level shift of the
    sorted list).  With none in flight the channel is idle, a different
    path."""
    work = {
        backlog: code_work(steady_timeline(backlog)[1], 2000, repro.devices.base)
        for backlog in (64, 4096)
    }
    assert work[4096] == work[64], work


# -- BitmapAllocator.alloc_run ------------------------------------------------

BITMAP = 65536


def fragmented_allocator(fit_at: int) -> BitmapAllocator:
    """90 % full and fragmented the way a copy-on-write file system leaves
    its bitmap — every tenth block a one-block hole — with the first run
    of 16 free blocks at ``fit_at``."""
    alloc = BitmapAllocator(0, BITMAP)
    alloc.alloc_run(BITMAP, hint=0)
    for block in range(9, BITMAP, 10):
        alloc.free_run(block, 1)
    for block in range(fit_at, fit_at + 16):
        if alloc.is_allocated(block):
            alloc.free_run(block, 1)
    return alloc


def alloc_and_free(alloc: BitmapAllocator):
    def run():
        start, got = alloc.alloc_run(8, hint=0)
        alloc.free_run(start, got)
        return start

    return run


@pytest.mark.benchmark(group="allocator.alloc_run_90pct_fragmented")
@pytest.mark.parametrize("fit_at", [120, 7680])
def test_alloc_run(benchmark, fit_at):
    start = benchmark.pedantic(
        alloc_and_free(fragmented_allocator(fit_at)), rounds=20, iterations=5
    )
    assert start == fit_at - 1  # the hole just before the run joins it


def test_alloc_run_cost_does_not_follow_blocks_crossed():
    """64x the fragmented blocks between the cursor and the first fit: at
    most 8x the time (a byte-at-a-time walk reads ~64x; the substring
    search crosses them in C)."""
    t = {
        fit_at: best_of_5(alloc_and_free(fragmented_allocator(fit_at)), number=200)
        for fit_at in (120, 7680)
    }
    assert t[7680] <= 8 * t[120], t


def test_alloc_run_work_does_not_follow_blocks_crossed():
    """The counted twin of the timed assert above: an allocation and its
    free make exactly the calls and run exactly the lines in the allocator
    with 64x the fragmented blocks before the first fit."""
    work = {
        fit_at: code_work(
            alloc_and_free(fragmented_allocator(fit_at)), 200, repro.fscommon.allocator
        )
        for fit_at in (120, 7680)
    }
    assert work[7680] == work[120], work


# -- MirrorEngine.tick ------------------------------------------------------


def mirrored_stack(clean: int):
    """``clean`` synced one-block mirrors plus one stale file whose sync
    is held off (a migration owns it), so every tick visits it and
    copies nothing."""
    stack = build_stack(
        capacities={"pm": 64 * MIB, "ssd": 64 * MIB, "hdd": 64 * MIB},
        enable_cache=False,
    )
    mux = stack.mux
    hdd, pm = stack.tier_ids["hdd"], stack.tier_ids["pm"]
    for i in range(clean + 1):
        path = f"/f{i}"
        handle = mux.create(path)
        mux.set_placement(path, hdd)
        mux.write(handle, 0, bytes(BS))
        inode = mux.ns.resolve(path)
        mux.mirrors.add_mirror(inode, pm)
        if i < clean:
            mux.mirrors.sync_file(inode)
    inode.migration_active = True
    assert mux.mirrors.stale_backlog() == 1
    return mux


@pytest.mark.benchmark(group="mirrors.tick_1_stale")
@pytest.mark.parametrize("clean", [0, 256])
def test_mirror_tick(benchmark, clean):
    mux = mirrored_stack(clean)
    assert benchmark.pedantic(mux.mirrors.tick, rounds=50, iterations=20) == 0


def test_mirror_tick_cost_does_not_follow_clean_mirrors():
    """256 clean mirrors beside the one stale file: at most 3x the tick
    cost (every mirrored file was visited)."""
    t = {clean: best_of_5(mirrored_stack(clean).mirrors.tick, 2000) for clean in (0, 256)}
    assert t[256] <= 3 * t[0], t


def test_mirror_tick_work_does_not_follow_clean_mirrors():
    """The counted twin of the timed assert above: once a first tick has
    let the clean files leave the work set, a tick makes exactly the
    calls and runs exactly the lines in the mirror engine with 256 clean
    mirrors beside the stale file as with none."""
    work = {}
    for clean in (0, 256):
        mux = mirrored_stack(clean)
        mux.mirrors.tick()
        work[clean] = code_work(mux.mirrors.tick, 200, repro.core.mirror)
    assert work[256] == work[0], work


# -- MuxFileSystem.file_views -----------------------------------------------


def planned_stack(runs_per_file: int):
    """1,000 files whose block maps hold ``runs_per_file`` runs each,
    already seen by one planning round."""
    stack = build_stack(capacities={"pm": 64 * MIB, "ssd": 64 * MIB, "hdd": 64 * MIB})
    mux = stack.mux
    tiers = sorted(stack.tier_ids.values())
    for i in range(1000):
        mux.create(f"/f{i}")
        inode = mux.ns.resolve(f"/f{i}")
        for r in range(runs_per_file):
            inode.blt.map_range(r, 1, tiers[r % len(tiers)])
        inode.size = runs_per_file * BS
    mux.file_views()
    return mux


@pytest.mark.benchmark(group="mux.file_views_1000_unchanged")
@pytest.mark.parametrize("runs_per_file", [1, 64])
def test_file_views(benchmark, runs_per_file):
    mux = planned_stack(runs_per_file)
    views = benchmark.pedantic(mux.file_views, rounds=10, iterations=2)
    assert len(views) == 1000 and len(views[0].runs) == runs_per_file


def test_file_views_cost_does_not_follow_unchanged_block_maps():
    """64x the runs in 1,000 unchanged block maps: at most 2x the time
    (every view was rebuilt from a full walk)."""
    t = {runs: best_of_5(planned_stack(runs).file_views, 5) for runs in (1, 64)}
    assert t[64] <= 2 * t[1], t


def test_file_views_work_does_not_follow_unchanged_block_maps():
    """The counted twin of the timed assert above: a planning round over
    1,000 unchanged files makes exactly the calls and runs exactly the
    lines in Mux and the block maps with 64 runs per file as with one."""
    work = {
        runs: code_work(planned_stack(runs).file_views, 5, repro.core.mux, repro.core.blt)
        for runs in (1, 64)
    }
    assert work[64] == work[1], work


# -- MirrorEngine.route_reads -----------------------------------------------


def routed_file(clean_intervals: int):
    """A file on HDD with one PM mirror whose clean set is
    ``clean_intervals`` disjoint intervals; the read covers 8 blocks of
    the first."""
    stack = build_stack(enable_cache=False)
    mux = stack.mux
    hdd, pm = stack.tier_ids["hdd"], stack.tier_ids["pm"]
    mux.create("/f")
    inode = mux.ns.resolve("/f")
    inode.blt.map_range(0, clean_intervals * 32, hdd)
    inode.replicas = ReplicaSet()
    inode.replicas.add_tier(pm)
    for i in range(clean_intervals):
        inode.replicas.mark_synced(pm, i * 32, 16)
    return mux, inode


@pytest.mark.benchmark(group="mirrors.route_reads_single_mirror")
@pytest.mark.parametrize("clean_intervals", [1, 4096])
def test_route_reads(benchmark, clean_intervals):
    mux, inode = routed_file(clean_intervals)
    runs = list(inode.blt.runs(4, 8))
    routed = benchmark.pedantic(
        mux.mirrors.route_reads, args=(inode, runs), rounds=50, iterations=20
    )
    assert routed == [(4, 8, mux.registry.by_name("pm").tier_id)]


def test_route_reads_cost_does_not_follow_mirror_intervals():
    """4096x the mirror's clean intervals outside the read: at most 3x the
    routing cost (each read copied and intersected all of them)."""
    t = {}
    for n in (1, 4096):
        mux, inode = routed_file(n)
        runs = list(inode.blt.runs(4, 8))
        t[n] = best_of_5(lambda: mux.mirrors.route_reads(inode, runs), 2000)
    assert t[4096] <= 3 * t[1], t


def test_route_reads_work_does_not_follow_mirror_intervals():
    """The counted twin of the timed assert above: routing a read makes
    exactly the calls and runs exactly the lines in the mirror engine, the
    replica set and the interval sets with 4096 clean intervals outside
    the read as with one."""
    work = {}
    for n in (1, 4096):
        mux, inode = routed_file(n)
        runs = list(inode.blt.runs(4, 8))
        work[n] = code_work(
            lambda: mux.mirrors.route_reads(inode, runs),
            200,
            repro.core.mirror,
            repro.core.blt,
            repro.core.intervals,
        )
    assert work[4096] == work[1], work


# -- LruTieringPolicy.forget ---------------------------------------------------


def lru_with_files(files: int):
    """An LRU policy that has seen four chunks of each of ``files`` files
    (writes: no promotion queued), and a step that touches one more file
    and forgets it, as an unlink does."""
    policy = LruTieringPolicy()
    for ino in range(1, files + 1):
        policy.on_access(ino, 0, 4 * CHUNK_BLOCKS, 1, "write")
    gone = files + 1

    def touch_and_forget():
        policy.on_access(gone, 0, 4 * CHUNK_BLOCKS, 1, "write")
        policy.forget(gone)

    return policy, touch_and_forget


@pytest.mark.benchmark(group="policy.lru_forget")
@pytest.mark.parametrize("files", [16, 4096])
def test_lru_forget(benchmark, files):
    policy, step = lru_with_files(files)
    benchmark.pedantic(step, rounds=50, iterations=20)
    assert len(policy._recency) == 4 * files


def test_lru_forget_cost_does_not_follow_recency_size():
    """256x the recency map, same file forgotten: at most 3x the cost
    (forget scanned every recency entry, ~250x here)."""
    t = {}
    for files in (16, 4096):
        _, step = lru_with_files(files)
        t[files] = best_of_5(step, 500)
    assert t[4096] <= 3 * t[16], t


def test_lru_forget_work_does_not_follow_recency_size():
    """The counted twin of the timed assert above: touching and
    forgetting one file makes exactly the calls and runs exactly the
    lines in the policies module beside 4,096 other files as beside 16."""
    work = {}
    for files in (16, 4096):
        _, step = lru_with_files(files)
        work[files] = code_work(step, 200, repro.core.policies)
    assert work[4096] == work[16], work
