"""A full SCM cache admits a block on its second miss.

Two characterisation pins come first: where the cache never fills —
§2.5's ablation setup, and random reads over a file smaller than the
cache — every miss is admitted and the counters and simulated clock are
the ones recorded before admission existed.

Then the cache is full: a missed block that would need an eviction is
refused and remembered in the ghost set, and admitted on its next miss;
a scan larger than the cache no longer evicts a re-read hot set; the
ghost set stays within ``capacity_blocks`` and never names a resident
key.  The cache's invariants are checked after every step.
"""

from repro.bench.workloads import make_file
from repro.core.cache import ScmCacheManager
from repro.core.policies import PinnedPolicy
from repro.fscommon.pagecache import PageCache
from repro.sim.rng import DeterministicRng
from repro.stack import build_stack
from repro.tools.fsck import check_mux

MIB = 1024 * 1024
BS = 4096


def block(ino: int, fb: int) -> bytes:
    return (f"{ino}:{fb}:".encode() * BS)[:BS]


# -- the cache never fills: nothing is refused --------------------------------


def test_ablation_setup_admits_every_miss():
    """``benchmarks/bench_ablation_cache.py``'s regime, 500 hot reads."""
    stack = build_stack(capacities={"pm": 128 * MIB, "ssd": 128 * MIB, "hdd": 512 * MIB})
    mux = stack.mux
    hdd_fs = stack.filesystems["hdd"]
    hdd_fs.page_cache = PageCache(stack.clock, 1024, BS, hdd_fs._writeback_page)
    mux.policy = PinnedPolicy(stack.tier_id("hdd"))
    handle = make_file(mux, stack.clock, "/data.bin", 48 * MIB)
    for offset in range(0, 16 * MIB, BS):
        mux.read(handle, offset, BS)
    rng = DeterministicRng(17)
    for _ in range(500):
        mux.read(handle, rng.randint(0, 16 * MIB // BS - 1) * BS, BS)
    cache = mux.cache
    cache.check_invariants()
    counters = cache.cache_counters()
    assert {k: counters.get(k, 0) for k in ("hit", "miss", "fill", "evict", "refused")} == {
        "hit": 500, "miss": 4096, "fill": 4096, "evict": 0, "refused": 0,
    }
    assert cache.cached_blocks == 4096
    assert mux.pm_bytes_by_cause()["cache_fill"] == 4096 * BS
    # make_file's 48 MiB overflow the 1024-page cache, whose evictions
    # write back on background time
    # the metafile appends through its DAX mapping on PM
    assert stack.clock.now_ns == 350_863_991


def test_random_reads_smaller_than_the_cache_admit_every_miss():
    stack = build_stack()
    mux = stack.mux
    handle = mux.create("/z")
    mux.set_placement("/z", stack.tier_id("hdd"))
    mux.write(handle, 0, bytes(range(256)) * (12 * MIB // 256))
    mux.fsync(handle)
    stack.drop_page_caches()
    rng = DeterministicRng(5)
    for _ in range(400):
        first = rng.randint(0, 12 * MIB // BS - 8)
        mux.read(handle, first * BS, rng.randint(1, 8) * BS)
        mux.cache.check_invariants()
    cache = mux.cache
    assert cache.capacity_blocks == 4014
    counters = cache.cache_counters()
    assert {k: counters.get(k, 0) for k in ("hit", "miss", "fill", "evict", "refused")} == {
        "hit": 420, "miss": 1384, "fill": 1384, "evict": 0, "refused": 0,
    }
    assert cache.cached_blocks == 1384
    assert mux.pm_bytes_by_cause()["cache_fill"] == 1384 * BS
    # the metafile appends through its DAX mapping on PM
    assert stack.clock.now_ns == 1_539_508_772


# -- a full cache ------------------------------------------------------------------


def ghosts(cache: ScmCacheManager):
    return list(cache._ghost)


def check(cache: ScmCacheManager) -> None:
    cache.check_invariants()
    assert len(cache._ghost) <= cache.capacity_blocks
    assert not set(cache._ghost) & set(cache._slots)


def test_a_first_miss_is_refused_and_its_second_miss_admitted(nova, clock):
    cache = ScmCacheManager(clock, nova, capacity_blocks=8, block_size=BS)
    for fb in range(8):  # free slots admit every miss
        cache.put(1, fb, block(1, fb))
        check(cache)
    assert cache.cached_blocks == 8 and ghosts(cache) == []
    before = clock.now_ns
    cache.put(2, 0, block(2, 0))  # would evict: refused, remembered
    check(cache)
    assert clock.now_ns - before < 1_000  # a lookup, no DAX store
    assert not cache.contains(2, 0) and ghosts(cache) == [(2, 0)]
    assert cache.stats.get("refused") == 1 and cache.stats.get("evict") == 0
    cache.put(2, 0, block(2, 0))  # its second miss: admitted, one eviction
    check(cache)
    assert cache.contains(2, 0) and ghosts(cache) == []
    assert cache.get(2, 0) == block(2, 0)
    assert cache.stats.get("evict") == 1 and cache.stats.get("fill") == 9
    assert cache.cached_blocks == 8


def test_put_many_refuses_only_the_blocks_past_the_free_slots(nova, clock):
    cache = ScmCacheManager(clock, nova, capacity_blocks=8, block_size=BS)
    cache.put_many(1, 0, b"".join(block(1, fb) for fb in range(5)))
    check(cache)
    cache.put_many(2, 0, b"".join(block(2, fb) for fb in range(6)))
    check(cache)
    assert [cache.contains(2, fb) for fb in range(6)] == [True] * 3 + [False] * 3
    assert ghosts(cache) == [(2, 3), (2, 4), (2, 5)]
    for fb in range(3):
        assert cache.get(2, fb) == block(2, fb)
    # a run mixing ghosts and new keys: the ghosts evict, the new one waits
    cache.put_many(2, 4, b"".join(block(2, fb) for fb in range(4, 7)))
    check(cache)
    assert [cache.contains(2, fb) for fb in (4, 5, 6)] == [True, True, False]
    assert ghosts(cache) == [(2, 3), (2, 6)]
    assert cache.get(2, 4) == block(2, 4) and cache.get(2, 5) == block(2, 5)
    assert cache.stats.get("refused") == 4


def test_a_scan_larger_than_the_cache_keeps_the_hot_set(nova, clock):
    cache = ScmCacheManager(clock, nova, capacity_blocks=8, block_size=BS)
    for fb in range(4):
        cache.put(1, fb, block(1, fb))
    for _ in range(3):
        for fb in range(4):
            assert cache.get(1, fb) == block(1, fb)
    for fb in range(40):  # one-read blocks, five times the cache
        cache.put(9, fb, block(9, fb))
        check(cache)
    for fb in range(4):
        assert cache.get(1, fb) == block(1, fb)
    assert cache.stats.get("evict") == 0
    assert ghosts(cache) == [(9, fb) for fb in range(32, 40)]  # FIFO, bounded


def test_invalidation_frees_slots_that_admit_without_the_ghost(nova, clock):
    cache = ScmCacheManager(clock, nova, capacity_blocks=8, block_size=BS)
    for fb in range(8):
        cache.put(1, fb, block(1, fb))
    cache.put(2, 0, block(2, 0))
    assert ghosts(cache) == [(2, 0)]
    cache.invalidate(1, 3)
    cache.put(2, 0, block(2, 0))  # a free slot: admitted, and leaves the ghosts
    check(cache)
    assert cache.contains(2, 0) and ghosts(cache) == []
    assert cache.stats.get("evict") == 0


def test_a_mux_scan_no_longer_evicts_a_reread_hot_file():
    """8 MiB PM, a 502-slot cache; both files live on the HDD."""
    stack = build_stack(capacities={"pm": 8 * MIB, "ssd": 32 * MIB, "hdd": 64 * MIB})
    mux = stack.mux
    cache = mux.cache
    handles = {}
    for name, blocks in (("hot", 64), ("scan", 1200)):
        handle = handles[name] = mux.create(f"/{name}")
        mux.set_placement(f"/{name}", stack.tier_id("hdd"))
        mux.write(handle, 0, b"".join(block(len(name), fb) for fb in range(blocks)))
        mux.fsync(handle)
    stack.drop_page_caches()
    hot = b"".join(block(3, fb) for fb in range(64))
    for _ in range(2):
        assert mux.read(handles["hot"], 0, 64 * BS) == hot
        check(cache)
    for first in range(0, 1200, 64):
        n = min(64, 1200 - first)
        got = mux.read(handles["scan"], first * BS, n * BS)
        assert got == b"".join(block(4, fb) for fb in range(first, first + n))
        check(cache)
    assert cache.capacity_blocks == cache.backed_blocks == 502
    hits = cache.stats.get("hit")
    assert mux.read(handles["hot"], 0, 64 * BS) == hot
    assert cache.stats.get("hit") - hits == 64
    admitted = 502 - 64
    assert cache.stats.get("refused") == 1200 - admitted
    assert cache.stats.get("fill") == 502
    assert mux.pm_bytes_by_cause()["cache_fill"] == 502 * BS
    assert "502 filled, 762 refused; 0.25 hits per filled block" in mux.report()
    check(cache)
    assert check_mux(mux, deep=True) == []
