"""Microbenchmarks pinning the complexity of the journaled write-back path.

The end-to-end benchmark (``muxbench``) resolves host time to about 25 %,
which is far too coarse to notice one file's fsync starting to pay for
every other file's cached pages again.  These pin it directly: the
per-inode operations of :class:`PageCache` must cost what that inode has
dirty or cached, whatever the cache holds (256 vs 16,384 pages), and the
block-map resolution of an ascending block list must be one walk.

Unlike the other benchmarks here these measure *host* time — the code
under test charges no simulated time at all.  The ``dirty_items`` timed
assert has a counted twin (``hostwork.code_work``) that does not vary
with the host.
"""

import timeit

import pytest

import repro.fscommon.pagecache

from repro.devices.hdd import HardDiskDrive
from repro.fs.ext4 import Ext4FileSystem
from repro.fscommon.extents import ExtentTree
from repro.fscommon.pagecache import PageCache
from repro.sim.clock import SimClock

from hostwork import code_work

PS = 8  # page contents are irrelevant here; keep the 16k-page cache small
SPAN = 16
SIZES = [256, 16384]


def filled_cache(pages: int) -> PageCache:
    """A full cache: inode 1 holds ``SPAN`` dirty pages, every other page
    is a clean page of some other file (48 pages each)."""
    cache = PageCache(SimClock(), pages, PS, lambda ino, fb, data: None)
    cache.put_span(1, 0, bytes(SPAN * PS), dirty=True)
    for ino in range(2, 2 + (pages - SPAN) // 48):
        cache.put_span(ino, 0, bytes(48 * PS), dirty=False)
    assert cache.cached_pages == pages and cache.dirty_pages == SPAN
    return cache


def best_of_5(fn, number: int) -> float:
    return min(timeit.repeat(fn, repeat=5, number=number)) / number


@pytest.mark.benchmark(group="pagecache.dirty_items")
@pytest.mark.parametrize("pages", SIZES)
def test_dirty_items(benchmark, pages):
    cache = filled_cache(pages)
    items = benchmark.pedantic(cache.dirty_items, args=(1,), rounds=20, iterations=10)
    assert [fb for fb, _ in items] == list(range(SPAN))


def test_dirty_items_cost_does_not_follow_cache_size():
    """64x the cached pages, same dirty set: at most 4x the time (a scan
    of the page table reads ~64x here)."""
    small, large = (filled_cache(pages) for pages in SIZES)
    t_small = best_of_5(lambda: small.dirty_items(1), number=200)
    t_large = best_of_5(lambda: large.dirty_items(1), number=200)
    assert t_large <= 4 * t_small, (t_small, t_large)


def test_dirty_items_work_does_not_follow_cache_size():
    """The counted twin of the timed assert above: one file's dirty pages
    cost exactly the calls and lines in a 16,384-page cache that they
    cost in a 256-page one."""
    work = {
        pages: code_work(
            lambda cache=filled_cache(pages): cache.dirty_items(1),
            200,
            repro.fscommon.pagecache,
        )
        for pages in SIZES
    }
    assert work[SIZES[1]] == work[SIZES[0]], work


@pytest.mark.benchmark(group="pagecache.invalidate_inode")
@pytest.mark.parametrize("pages", SIZES)
def test_invalidate_inode(benchmark, pages):
    cache = filled_cache(pages)

    def recache():
        cache.put_span(1, 0, bytes(SPAN * PS), dirty=True)
        return (1,), {}

    cache.invalidate_inode(1)
    benchmark.pedantic(cache.invalidate_inode, setup=recache, rounds=50)
    assert cache.cached_pages == pages - SPAN and cache.dirty_pages == 0


@pytest.mark.benchmark(group="pagecache.put_span")
def test_put_span_at_capacity(benchmark):
    cache = filled_cache(16384)
    data = bytes(SPAN * PS)
    first = iter(range(0, 10**9, SPAN))
    # every round inserts 16 new pages and evicts the 16 oldest
    benchmark.pedantic(
        lambda: cache.put_span(9999, next(first), data, False), rounds=50, iterations=4
    )
    assert cache.cached_pages == 16384


def fragmented_map() -> ExtentTree:
    tree = ExtentTree()
    for i in range(64):
        tree.map_range(i * 8, 6, 1000 + i * 100)  # 6 mapped, 2-block hole
    assert len(tree) == 64
    return tree


@pytest.mark.benchmark(group="extents.resolve_512_ascending")
@pytest.mark.parametrize("how", ["lookup_ascending", "lookup_per_block"])
def test_blockmap_resolution(benchmark, how):
    tree = fragmented_map()
    blocks = list(range(512))
    resolve = {
        "lookup_ascending": lambda: tree.lookup_ascending(blocks),
        "lookup_per_block": lambda: [tree.lookup(b) for b in blocks],
    }
    got = benchmark.pedantic(resolve[how], rounds=20, iterations=5)
    assert got == resolve["lookup_per_block"]()


@pytest.mark.benchmark(group="journaledfs.sync_400_clean_files")
@pytest.mark.parametrize("pages_per_file", [1, 8])
def test_sync_over_clean_files(benchmark, pages_per_file):
    """``sync()`` asks every file for its dirty pages; with nothing dirty
    that must not cost files x cached pages."""
    clock = SimClock()
    fs = Ext4FileSystem("ext4", HardDiskDrive("hdd", 256 * 1024 * 1024, clock), clock)
    for i in range(400):
        handle = fs.create(f"/f{i}")
        fs.write(handle, 0, bytes(pages_per_file * fs.block_size))
        fs.close(handle)
    fs.sync()
    assert fs.page_cache.cached_pages == 400 * pages_per_file
    assert fs.page_cache.dirty_pages == 0
    benchmark.pedantic(fs.sync, rounds=5)
