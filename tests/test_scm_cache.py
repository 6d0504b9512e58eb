"""SCM cache manager (§2.5): DAX cache file, MGLRU replacement, coherence."""

import pytest

from repro.core.cache import CACHE_FILE, ScmCacheManager
from repro.core.policy import MigrationOrder
from repro.errors import ReproError

BS = 4096


@pytest.fixture
def cache(nova, clock):
    return ScmCacheManager(clock, nova, capacity_blocks=8, block_size=BS)


class TestCacheFile:
    def test_cache_file_created_and_preallocated(self, nova, clock):
        ScmCacheManager(clock, nova, capacity_blocks=16, block_size=BS)
        st = nova.getattr(CACHE_FILE)
        assert st.size == 16 * BS
        assert st.blocks == 16 * (BS // 512)  # fully materialized, no holes

    def test_requires_dax_fs(self, xfs, clock):
        with pytest.raises(ReproError):
            ScmCacheManager(clock, xfs, capacity_blocks=4, block_size=BS)

    def test_recreated_on_rebuild(self, nova, clock):
        ScmCacheManager(clock, nova, capacity_blocks=4, block_size=BS)
        ScmCacheManager(clock, nova, capacity_blocks=4, block_size=BS)
        assert nova.getattr(CACHE_FILE).size == 4 * BS


class TestGetPut:
    def test_miss_then_hit(self, cache):
        assert cache.get(1, 0) is None
        cache.put(1, 0, b"a" * BS)
        assert cache.get(1, 0) == b"a" * BS
        assert cache.stats.get("hit") == 1
        assert cache.stats.get("miss") == 1

    def test_update_in_place(self, cache):
        cache.put(1, 0, b"a" * BS)
        cache.put(1, 0, b"b" * BS)
        assert cache.get(1, 0) == b"b" * BS
        assert cache.cached_blocks == 1

    def test_whole_blocks_only(self, cache):
        with pytest.raises(ValueError):
            cache.put(1, 0, b"small")

    def test_distinct_keys(self, cache):
        cache.put(1, 0, b"a" * BS)
        cache.put(2, 0, b"b" * BS)
        cache.put(1, 1, b"c" * BS)
        assert cache.get(1, 0) == b"a" * BS
        assert cache.get(2, 0) == b"b" * BS
        assert cache.get(1, 1) == b"c" * BS

    def test_data_stored_on_pm_device(self, cache, pm):
        writes_before = pm.stats.bytes_written
        cache.put(1, 0, b"z" * BS)
        assert pm.stats.bytes_written >= writes_before + BS

    def test_hit_charges_pm_load(self, cache, pm, clock):
        cache.put(1, 0, b"z" * BS)
        reads_before = pm.stats.read_ops
        cache.get(1, 0)
        assert pm.stats.read_ops > reads_before


class TestEviction:
    def test_capacity_respected(self, cache):
        for fb in range(20):
            cache.put(1, fb, bytes([fb]) * BS)
        assert cache.cached_blocks == 8
        cache.check_invariants()

    def test_slots_recycled(self, cache):
        for fb in range(30):
            if fb >= 8:  # a full cache admits a block on its second miss
                cache.put(1, fb, bytes([fb % 251]) * BS)
                assert not cache.contains(1, fb)
            cache.put(1, fb, bytes([fb % 251]) * BS)
            assert cache.get(1, fb) == bytes([fb % 251]) * BS
        cache.check_invariants()
        assert cache.stats.get("evict") == 22

    def test_recently_used_survives(self, cache):
        for fb in range(8):
            cache.put(1, fb, bytes([fb]) * BS)
        cache.get(1, 0)  # freshen
        for fb in range(8, 12):
            cache.put(1, fb, bytes([fb]) * BS)
        assert cache.get(1, 0) is not None


class TestInvalidation:
    def test_invalidate_block(self, cache):
        cache.put(1, 0, b"a" * BS)
        assert cache.invalidate(1, 0) is True
        assert cache.get(1, 0) is None
        assert cache.invalidate(1, 0) is False

    def test_invalidate_file(self, cache):
        for fb in range(4):
            cache.put(1, fb, bytes(BS))
        cache.put(2, 0, bytes(BS))
        assert cache.invalidate_file(1) == 4
        assert cache.cached_blocks == 1
        cache.check_invariants()


class TestCacheThroughMux:
    def test_slow_tier_reads_populate_cache(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(8 * BS))
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 8, stack.tier_id("pm"), stack.tier_id("hdd"))
        )
        assert mux.cache is not None
        mux.read(handle, 0, 8 * BS)
        assert mux.cache.cached_blocks == 8
        mux.close(handle)

    def test_cached_reads_skip_slow_device(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(8 * BS))
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 8, stack.tier_id("pm"), stack.tier_id("hdd"))
        )
        mux.read(handle, 0, 8 * BS)  # populate
        hdd_reads = stack.devices["hdd"].stats.read_ops
        mux.read(handle, 0, 8 * BS)  # hit
        assert stack.devices["hdd"].stats.read_ops == hdd_reads
        mux.close(handle)

    def test_cached_read_faster_than_hdd_read(self, stack):
        mux = stack.mux
        clock = stack.clock
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(BS))
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 1, stack.tier_id("pm"), stack.tier_id("hdd"))
        )
        t0 = clock.now_ns
        mux.read(handle, 0, BS)
        cold = clock.now_ns - t0
        # the fill runs behind the cold read; a read issued before it
        # lands waits for it (tests/test_fill_behind.py pins that case)
        clock.advance_to(max(mux.cache._landing.values()))
        t0 = clock.now_ns
        mux.read(handle, 0, BS)
        warm = clock.now_ns - t0
        # the "cold" read may itself hit ext4's DRAM page cache (migration
        # just wrote those pages), so only a modest factor is guaranteed
        assert warm < cold / 2
        mux.close(handle)

    def test_pm_tier_reads_not_cached(self, stack):
        """Caching PM-resident data in a PM cache is pointless (§2.5)."""
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(4 * BS))  # lands on pm
        mux.read(handle, 0, 4 * BS)
        assert mux.cache.cached_blocks == 0
        mux.close(handle)

    def test_write_invalidates_cache(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(2 * BS))
        hdd_id = stack.tier_id("hdd")
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 2, stack.tier_id("pm"), hdd_id)
        )
        mux.read(handle, 0, 2 * BS)  # cache both blocks
        # partial write updates block 0 on hdd; the cache copy must die
        mux.write(handle, 10, b"FRESH")
        data = mux.read(handle, 0, 16)
        assert data[10:15] == b"FRESH"
        mux.close(handle)

    def test_single_tier_stack_has_no_cache(self):
        from repro.stack import build_stack

        stack = build_stack(tiers=["hdd"])
        assert stack.mux.cache is None

    def test_migration_invalidates_cache(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(2 * BS))
        hdd_id = stack.tier_id("hdd")
        ssd_id = stack.tier_id("ssd")
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 2, stack.tier_id("pm"), hdd_id)
        )
        mux.read(handle, 0, 2 * BS)  # cached from hdd
        mux.engine.migrate_now(MigrationOrder(handle.ino, 0, 2, hdd_id, ssd_id))
        assert mux.cache.cached_blocks == 0
        mux.close(handle)


class TestPmCallTranscript:
    """Characterisation: the exact calls the cache makes on the PM device.

    Recorded before ``FileSystem.dax_map`` replaced the cache's own
    address table; whatever sits between the cache and the device must
    issue the same methods, addresses, sizes and ``ops=`` in the same
    order — simulated time and the muxbench ``devices.pm`` counts are
    sums over exactly these calls.
    """

    TAPPED = ("load", "store", "load_run", "store_run", "flush_range", "drain")

    #: preallocation of the 8-slot cache file on a fragmented NOVA: slots
    #: 0-5 land on device blocks 26-31, slots 6-7 on blocks 16-17
    MAP_CALLS = [
        ("store", 1536, 64), ("store_run", 1536, 64, 64), ("flush_range", 1536, 64),
        ("store", 1600, 64), ("store_run", 1600, 64, 64), ("flush_range", 1600, 64),
        ("store", 0, 8), ("store_run", 0, 8, 8), ("flush_range", 0, 8),
        ("drain",),
        ("store", 106496, 24576), ("store_run", 106496, 24576, 24576),
        ("flush_range", 106496, 24576),
        ("store", 65536, 8192), ("store_run", 65536, 8192, 8192),
        ("flush_range", 65536, 8192),
        ("drain",),
        ("store", 1664, 64), ("store_run", 1664, 64, 64), ("flush_range", 1664, 64),
        ("store", 0, 8), ("store_run", 0, 8, 8), ("flush_range", 0, 8),
        ("drain",),
    ]
    USE_CALLS = [
        # put_many(1, 0..7): one run per device-contiguous slot range
        ("store_run", 106496, 24576, 4096), ("flush_range", 106496, 24576, ("ops", 6)),
        ("store_run", 65536, 8192, 4096), ("flush_range", 65536, 8192, ("ops", 2)),
        # put_many(2, 0..1) into the recycled slots 3 and 1
        ("store_run", 118784, 4096, 4096), ("flush_range", 118784, 4096, ("ops", 1)),
        ("store_run", 110592, 4096, 4096), ("flush_range", 110592, 4096, ("ops", 1)),
        # get(2, 1)
        ("load", 110592, 4096), ("load_run", 110592, 1, 4096),
        # get_many(1, 4..7) across the discontiguity
        ("load_run", 122880, 2, 4096), ("load_run", 65536, 2, 4096),
        # get_many(2, 0..1): adjacent file blocks, non-adjacent slots
        ("load_run", 118784, 1, 4096), ("load_run", 110592, 1, 4096),
        # write_hit(1, 6) partial block
        ("store", 65836, 100), ("store_run", 65836, 100, 100),
        ("flush_range", 65836, 100),
        # load_for_destage(1, 4..7)
        ("load_run", 122880, 2, 4096), ("load_run", 65536, 2, 4096),
        # put_many(3, 0..4) into the full cache: five first misses, all
        # refused, so no store
    ]

    def _record(self, pm, log):
        for name in self.TAPPED:
            inner = getattr(pm, name)

            def tap(*args, _name=name, _inner=inner, **kwargs):
                sized = tuple(len(a) if hasattr(a, "__len__") else a for a in args)
                log.append((_name,) + sized + tuple(sorted(kwargs.items())))
                return _inner(*args, **kwargs)

            setattr(pm, name, tap)

    def test_fixed_script_issues_the_recorded_pm_calls(self, clock):
        from repro.devices.pm import PersistentMemoryDevice
        from repro.fs.nova import NovaFileSystem

        pm = PersistentMemoryDevice("pm0", 32 * BS, clock)
        nova = NovaFileSystem("nova", pm, clock)
        # fragment the allocator so the cache file is not one extent
        for name, blocks in (("/a", 3), ("/b", 2), ("/c", 3), ("/d", 2), ("/e", 3)):
            nova.write_file(name, bytes(blocks * BS))
        for name in ("/a", "/c", "/e"):
            nova.unlink(name)
        log = []
        self._record(pm, log)
        cache = ScmCacheManager(
            clock, nova, capacity_blocks=8, block_size=BS, write_back=True
        )
        assert log == self.MAP_CALLS
        del log[:]

        def blocks(base, n):
            return b"".join(bytes([base + i]) * BS for i in range(n))

        cache.put_many(1, 0, blocks(0, 8))
        cache.invalidate(1, 1)
        cache.invalidate(1, 3)
        cache.put_many(2, 0, blocks(0x20, 2))
        assert cache.get(2, 1) == bytes([0x21]) * BS
        out = bytearray(5 * BS)
        cache.get_many(1, 4, 4, out, BS)
        assert bytes(out) == bytes(BS) + blocks(4, 4)
        out = bytearray(2 * BS)
        cache.get_many(2, 0, 2, out, 0)
        assert bytes(out) == blocks(0x20, 2)
        assert cache.write_hit(1, 6, b"W" * 100, 300)
        patched = bytes([6]) * 300 + b"W" * 100 + bytes([6]) * (BS - 400)
        assert cache.load_for_destage(1, 4, 4) == (
            blocks(4, 2) + patched + blocks(7, 1)
        )
        # overfill: a full cache refuses the first misses
        cache.put_many(3, 0, blocks(0x30, 5))
        assert log == self.USE_CALLS
        assert cache.cache_counters() == {
            "fill": 10, "invalidate": 2, "hit": 7, "write_hit": 1,
            "refused": 5, "dirty_blocks": 1,
        }
        assert clock.now_ns == 79065
        cache.check_invariants()
