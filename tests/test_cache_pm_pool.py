"""The SCM cache holds PM only while no one else needs it.

Two characterisation pins come first: where PM is not contested — §2.5's
ablation setup, and a write-back stack whose PM is mostly free — the
cache keeps the size it was provisioned with and the simulated clock is
the one recorded before the cache could yield slots.

Then PM is contested: mirror grants take the cache's slots oldest-first,
never below ``MIN_SLOTS``, a dirty slot leaves only through destage, and
what the cache gives back stays given back — the room dropped mirrors
leave is not taken again, fills evict within the slots the cache kept,
no read is ever served from a punched slot, and nothing but punches
reaches the cache file after it is attached.  The cache's invariants and
fsck are checked after every step.
"""

import pytest

from repro.bench.workloads import make_file
from repro.core.cache import MIN_SLOTS
from repro.core.policies import PinnedPolicy
from repro.errors import ReproError
from repro.fscommon.pagecache import PageCache
from repro.sim.rng import DeterministicRng
from repro.stack import build_stack
from repro.tools.fsck import check_mux

MIB = 1024 * 1024
BS = 4096


def test_ablation_setup_keeps_its_cache_and_clock():
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
    assert cache.capacity_blocks == cache.backed_blocks == 8028
    assert (cache.cached_blocks, cache.stats.get("hit"), cache.stats.get("miss")) == (
        4096, 500, 4096,
    )
    assert stack.filesystems["pm"].statfs().free_blocks == 24013
    # make_file's 48 MiB overflow the 1024-page cache, whose evictions
    # write back on background time
    # the metafile appends through its DAX mapping on PM
    assert stack.clock.now_ns == 350_863_991


def test_write_back_stack_with_free_pm_keeps_its_cache_and_clock():
    stack = build_stack(policy="pressure", cache_write_back=True)
    mux = stack.mux
    handles = []
    for f in range(4):
        handle = mux.create(f"/f{f}")
        mux.set_placement(f"/f{f}", stack.tier_id("hdd"))
        mux.write(handle, 0, bytes([f + 1]) * (64 * BS))
        mux.fsync(handle)
        handles.append(handle)
    for handle in handles:
        mux.read(handle, 0, 64 * BS)
    for i, handle in enumerate(handles):
        mux.write(handle, 8 * BS * i, bytes([9]) * (8 * BS))
    for handle in handles:
        mux.fsync(handle)
    cache = mux.cache
    cache.check_invariants()
    assert cache.capacity_blocks == cache.backed_blocks == 4014
    counters = cache.cache_counters()
    assert cache.cached_blocks == 256
    assert {k: counters[k] for k in ("miss", "fill", "write_hit", "destaged_blocks")} == {
        "miss": 256, "fill": 256, "write_hit": 32, "destaged_blocks": 32,
    }
    assert stack.filesystems["pm"].statfs().free_blocks == 12042
    # the metafile appends through its DAX mapping on PM
    assert stack.clock.now_ns == 110_733_648


# -- contested PM ----------------------------------------------------------------


def content(name: str, block: int) -> bytes:
    """Block ``block`` of file ``name``: its contents name it."""
    return (f"{name}:{block}:".encode() * BS)[:BS]


class ContestedPm:
    """An 8 MiB PM whose 502-slot write-back cache leaves ~1,500 blocks
    free; every file lives on the HDD and every read is content-checked."""

    def __init__(self) -> None:
        self.stack = build_stack(
            capacities={"pm": 8 * MIB, "ssd": 32 * MIB, "hdd": 64 * MIB},
            cache_write_back=True,
        )
        self.mux = self.stack.mux
        self.cache = self.mux.cache
        self.pm = self.stack.tier_id("pm")
        self.handles = {}
        self.expect = {}

    def make(self, name: str, blocks: int):
        mux = self.mux
        path = f"/{name}"
        handle = mux.create(path)
        mux.set_placement(path, self.stack.tier_id("hdd"))
        self.expect[name] = [content(name, i) for i in range(blocks)]
        mux.write(handle, 0, b"".join(self.expect[name]))
        mux.fsync(handle)
        self.handles[name] = handle
        self.check()
        return mux.ns.resolve(path)

    def read(self, name: str, first: int, count: int) -> None:
        got = self.mux.read(self.handles[name], first * BS, count * BS)
        assert got == b"".join(self.expect[name][first : first + count]), (name, first)
        self.check()

    def absorb(self, name: str, first: int, count: int) -> None:
        data = [content(name + "'", i) for i in range(first, first + count)]
        self.mux.write(self.handles[name], first * BS, b"".join(data))
        self.expect[name][first : first + count] = data
        self.check()

    def cached(self, name: str) -> int:
        ino = self.mux.ns.resolve(f"/{name}").ino
        return sum(self.cache.contains(ino, i) for i in range(len(self.expect[name])))

    def check(self) -> None:
        self.cache.check_invariants()
        assert check_mux(self.mux, deep=True) == []


def spy_served_slots(cache) -> set:
    """Record every slot the cache's DAX mapping loads from from here on."""
    served = set()
    mapping = cache._map
    load, load_blocks = mapping.load, mapping.load_blocks

    def spy_load(slot):
        served.add(slot)
        return load(slot)

    def spy_load_blocks(slots, out, pos):
        served.update(slots)
        return load_blocks(slots, out, pos)

    mapping.load, mapping.load_blocks = spy_load, spy_load_blocks
    return served


def count_cache_file_calls(pm: ContestedPm) -> dict:
    """Count the PM file system's ``write`` and ``punch_hole`` calls on
    the cache file from here on."""
    fs, handle = pm.stack.filesystems["pm"], pm.cache._handle
    calls = {"write": 0, "punch_hole": 0}

    def counted(name):
        call = getattr(fs, name)

        def wrapper(h, *args, **kwargs):
            if h is handle:
                calls[name] += 1
            return call(h, *args, **kwargs)

        return wrapper

    for name in calls:
        setattr(fs, name, counted(name))
    return calls


def test_mirrors_take_the_cache_oldest_first_and_dropped_mirrors_give_it_back():
    pm = ContestedPm()
    cache = pm.cache
    assert cache.capacity_blocks == cache.backed_blocks == 502
    pm.make("a", 200)
    pm.make("b", 200)
    for i in range(0, 200, 8):
        pm.read("a", i, 8)
    pm.absorb("a", 0, 16)  # dirty, and touched after the rest of a
    for i in range(0, 200, 8):
        pm.read("b", i, 8)
    assert (cache.cached_blocks, cache.dirty_block_count) == (400, 16)

    # a mirror larger than PM's free space: the cache gives back its free
    # slots, then a's clean blocks, then a's dirty ones through destage
    big = pm.make("big", 1760)
    pm.mux.mirrors.add_mirror(big, pm.pm)
    assert pm.mux.mirrors.sync_file(big) == 1760
    pm.check()
    counters = cache.cache_counters()
    assert counters["shrunk"] == 502 - cache.backed_blocks > 102
    assert (pm.cached("a"), pm.cached("b")) == (0, 200 - (counters["evict"] - 200))
    assert counters["destaged_blocks"] == 16 and "destage_lost" not in counters
    assert cache.dirty_block_count == 0
    written = pm.mux.pm_bytes_by_cause()
    assert {k: written[k] for k in ("cache_fill", "absorb", "mirror_sync")} == {
        "cache_fill": 400 * BS, "absorb": 16 * BS, "mirror_sync": 1760 * BS,
    }
    pm.read("a", 0, 16)  # the absorbed bytes, now from the HDD

    # more mirrors than the cache can pay for: it stops at MIN_SLOTS, or
    # short of a whole next mirror above it
    small = [pm.make(f"m{i}", 32) for i in range(12)]
    for inode in small:
        pm.mux.mirrors.add_mirror(inode, pm.pm)
        pm.mux.mirrors.sync_file(inode)
        pm.check()
        assert cache.backed_blocks >= MIN_SLOTS
    assert cache.backed_blocks < MIN_SLOTS + 32
    assert pm.mux.mirrors.stats.get("sync_no_space") > 0
    low = cache.backed_blocks
    for slot in cache._punched:
        with pytest.raises(ReproError):
            cache._map.load(slot)

    # dropped mirrors leave room the cache does not take back: fills of c
    # evict within the slots it kept, and every read is served from one
    for inode in [big] + small:
        pm.mux.mirrors.drop_mirror(inode, pm.pm)
    pm.check()
    served = spy_served_slots(cache)
    evicted = cache.stats.get("evict")
    pm.make("c", 400)
    for _ in range(2):
        for i in range(0, 400, 4):
            pm.read("c", i, 4)
    assert cache.backed_blocks == low
    assert pm.cached("c") == cache.cached_blocks == low
    assert cache.stats.get("evict") > evicted
    hits = cache.stats.get("hit")
    pm.read("c", 400 - low, low)
    assert cache.stats.get("hit") == hits + low
    for name, blocks in (("a", 200), ("b", 200), ("c", 400)):
        for i in range(0, blocks, 8):
            pm.read(name, i, 8)
    assert cache.backed_blocks == low
    assert served and served.isdisjoint(cache._punched)


def test_after_attach_the_cache_file_only_gets_punched():
    """The counted twin: whatever PM frees up, no fill writes the cache file."""
    pm = ContestedPm()
    calls = count_cache_file_calls(pm)
    pm.make("a", 200)
    for i in range(0, 200, 8):
        pm.read("a", i, 8)
    big = pm.make("big", 1760)
    pm.mux.mirrors.add_mirror(big, pm.pm)
    pm.mux.mirrors.sync_file(big)
    pm.check()
    low = pm.cache.backed_blocks
    assert low < 502 and calls["punch_hole"] > 0
    pm.mux.mirrors.drop_mirror(big, pm.pm)
    pm.make("c", 400)
    for _ in range(2):
        for i in range(0, 400, 4):
            pm.read("c", i, 4)
    assert pm.cache.stats.get("fill") > 200
    assert calls["write"] == 0
    assert pm.cache.backed_blocks == low


def test_policies_count_the_cache_as_free_and_placement_claims_it():
    pm = ContestedPm()
    cache, fs = pm.cache, pm.stack.filesystems["pm"]
    state = {t.tier_id: t for t in pm.mux.tier_states()}[pm.pm]
    assert state.free_bytes == fs.statfs().free_bytes + (502 - MIN_SLOTS) * BS
    # a write pinned to PM that its free blocks alone cannot hold
    path = "/hot"
    handle = pm.mux.create(path)
    pm.mux.set_placement(path, pm.pm)
    data = b"".join(content("hot", i) for i in range(1600))
    pm.mux.write(handle, 0, data)
    pm.check()
    inode = pm.mux.ns.resolve(path)
    assert inode.blt.blocks_on(pm.pm) == 1600
    assert cache.backed_blocks < 502 and cache.stats.get("shrunk") == 502 - cache.backed_blocks
    assert pm.mux.read(handle, 0, len(data)) == data
