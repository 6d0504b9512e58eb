"""Write-back SCM cache: absorption, batched destaging, durability, fsck.

The tentpole semantics under test:

* writes to cache-resident slow-tier blocks update the DAX slot in place
  and mark the block dirty (absorption);
* dirty runs destage in coalesced batches on fsync, close, eviction,
  migration, and the writeback budget — and the destage is made durable
  on the receiving tier;
* a crash with dirty SCM blocks is legal (the cache file is on PM):
  fsck reports them as destageable and ``reconcile_cache`` pushes them
  out on recovery.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import cache_writeback
from repro.core import calibration as cal
from repro.core.cache import ScmCacheManager
from repro.core.intervals import BlockIntervalSet
from repro.core.policy import MigrationOrder
from repro.core.health import HealthState
from repro.devices.faults import FaultConfig
from repro.errors import CrashTriggered, DeviceIoError, TierUnavailable
from repro.stack import build_stack
from repro.tools.fsck import check_mux, reconcile_cache
from repro.vfs.interface import OpenFlags

BS = 4096


def nova_factory():
    """Fresh NOVA + clock per call (hypothesis needs per-example state)."""
    from repro.devices.pm import PersistentMemoryDevice
    from repro.fs.nova import NovaFileSystem
    from repro.sim.clock import SimClock

    clock = SimClock()
    pm = PersistentMemoryDevice("pm0", 64 * 1024 * 1024, clock)
    return NovaFileSystem("nova", pm, clock), clock


@pytest.fixture
def wb():
    return build_stack(cache_write_back=True)


def demoted_warm_file(stack, path="/f", blocks=8, to="hdd"):
    """Create ``path``, demote its blocks to ``to``, warm the SCM cache."""
    mux = stack.mux
    handle = mux.create(path)
    mux.write(handle, 0, bytes(blocks * BS))
    mux.engine.migrate_now(
        MigrationOrder(
            handle.ino, 0, blocks, stack.tier_id("pm"), stack.tier_id(to)
        )
    )
    mux.read(handle, 0, blocks * BS)  # every block now cache-resident
    assert mux.cache.cached_blocks >= blocks
    return handle


class TestAbsorption:
    def test_write_to_cached_block_is_absorbed(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        hdd_writes = wb.devices["hdd"].stats.write_ops
        mux.write(handle, 2 * BS, b"A" * BS)
        assert mux.stats.get("writes_absorbed") == 1
        assert mux.cache.dirty_block_count == 1
        assert mux.cache.is_dirty(handle.ino, 2)
        # nothing reached the slow tier yet
        assert wb.devices["hdd"].stats.write_ops == hdd_writes
        assert mux.read(handle, 2 * BS, BS) == b"A" * BS
        mux.close(handle)

    def test_partial_block_write_absorbed_in_place(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        mux.write(handle, 10, b"FRESH")
        assert mux.stats.get("writes_absorbed") == 1
        data = mux.read(handle, 0, 32)
        assert data[10:15] == b"FRESH"
        assert data[:10] == bytes(10)  # rest of the block kept
        assert mux.cache.is_dirty(handle.ino, 0)  # whole block marked
        mux.close(handle)

    def test_multi_block_write_absorbed(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        mux.write(handle, BS, b"B" * (3 * BS))
        assert mux.stats.get("writes_absorbed") == 1
        assert mux.cache.dirty_runs(handle.ino) == [(1, 3)]
        assert mux.read(handle, BS, 3 * BS) == b"B" * (3 * BS)
        mux.close(handle)

    def test_uncached_block_takes_invalidate_path(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        mux.cache.invalidate_file(handle.ino)
        mux.write(handle, 0, b"C" * BS)
        assert mux.stats.get("writes_absorbed") == 0
        assert mux.cache.dirty_block_count == 0
        assert mux.read(handle, 0, BS) == b"C" * BS
        mux.close(handle)

    def test_pm_resident_blocks_not_absorbed(self, wb):
        """Absorption only applies to slow-tier blocks; PM writes are
        already at memory speed and must not detour through the cache."""
        mux = wb.mux
        handle = mux.create("/pmfile")
        mux.write(handle, 0, bytes(2 * BS))  # lands on pm
        mux.read(handle, 0, 2 * BS)
        mux.write(handle, 0, b"D" * BS)
        assert mux.stats.get("writes_absorbed") == 0
        mux.close(handle)

    def test_absorption_refused_during_migration(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        inode = mux.ns.get(handle.ino)
        inode.migration_active = True
        mux.write(handle, 0, b"E" * BS)
        inode.migration_active = False
        assert mux.stats.get("writes_absorbed") == 0
        mux.close(handle)

    def test_o_sync_absorbed_write_skips_slow_tier(self, wb):
        """O_SYNC is satisfied by the PM slot store itself — the paper's
        absorption win: synchronous small writes commit at memory speed."""
        mux = wb.mux
        handle = demoted_warm_file(wb, path="/sync")
        mux.close(handle)
        handle = mux.open("/sync", OpenFlags.RDWR | OpenFlags.SYNC)
        hdd = wb.devices["hdd"].stats
        writes, flushes = hdd.write_ops, hdd.flush_ops
        t0 = wb.clock.now_ns
        mux.write(handle, 0, b"F" * BS)
        sync_ns = wb.clock.now_ns - t0
        assert mux.stats.get("writes_absorbed") == 1
        assert (hdd.write_ops, hdd.flush_ops) == (writes, flushes)
        # far below a single HDD access; this is the latency headline
        assert sync_ns < 50_000
        mux.close(handle)

    def test_absorbed_write_updates_metadata(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        before = mux.getattr("/f").mtime
        wb.clock.advance_ns(1_000_000)
        mux.write(handle, 0, b"G" * BS)
        assert mux.getattr("/f").mtime > before
        mux.close(handle)


class TestDestage:
    def test_fsync_destages_and_persists(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        mux.write(handle, 0, b"H" * BS)
        mux.write(handle, 5 * BS, b"I" * BS)
        assert mux.cache.dirty_block_count == 2
        mux.fsync(handle)
        assert mux.cache.dirty_block_count == 0
        assert mux.cache.stats.get("destaged_blocks") == 2
        # the slow tier now holds the absorbed bytes
        mux.cache.invalidate_file(handle.ino)
        assert mux.read(handle, 0, BS) == b"H" * BS
        assert mux.read(handle, 5 * BS, BS) == b"I" * BS
        mux.close(handle)

    def test_destage_coalesces_contiguous_runs(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        for fb in (2, 3, 4, 6):
            mux.write(handle, fb * BS, bytes([fb]) * BS)
        runs_before = mux.cache.stats.get("destage_runs")
        mux.fsync(handle)
        # [2,5) and [6,7): two coalesced tier writes, not four
        assert mux.cache.stats.get("destage_runs") - runs_before == 2
        assert mux.cache.stats.get("destaged_blocks") == 4
        mux.close(handle)

    def test_close_destages(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        mux.write(handle, 0, b"J" * BS)
        mux.close(handle)
        assert wb.mux.cache.dirty_block_count == 0
        handle = mux.open("/f")
        mux.cache.invalidate_file(handle.ino)
        assert mux.read(handle, 0, BS) == b"J" * BS
        mux.close(handle)

    def test_close_destage_is_durable(self, wb):
        """Close moves bytes PM -> slow tier; they must not park in the
        slow tier's volatile page cache (that would *lose* durability)."""
        mux = wb.mux
        handle = demoted_warm_file(wb)
        mux.write(handle, 3 * BS, b"K" * BS)
        mux.close(handle)
        mux.crash()
        mux.recover()
        handle = mux.open("/f")
        assert mux.read(handle, 3 * BS, BS) == b"K" * BS
        mux.close(handle)

    def test_writeback_budget_interval_destages(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        mux.write(handle, 0, b"L" * BS)  # arms the writeback timer
        assert mux.cache.dirty_block_count == 1
        wb.clock.advance_ns(cal.CACHE_WRITEBACK_INTERVAL_NS + 1)
        mux.write(handle, 1 * BS, b"M" * BS)  # deadline passed: flush all
        assert mux.cache.dirty_block_count == 0
        assert mux.cache.stats.get("destaged_blocks") == 2
        mux.close(handle)

    def test_sync_destages_everything(self, wb):
        mux = wb.mux
        h1 = demoted_warm_file(wb, path="/s1")
        h2 = demoted_warm_file(wb, path="/s2")
        mux.write(h1, 0, b"N" * BS)
        mux.write(h2, 0, b"O" * BS)
        assert mux.cache.dirty_block_count == 2
        mux.sync()
        assert mux.cache.dirty_block_count == 0
        mux.close(h1)
        mux.close(h2)

    def test_migration_destages_first(self, wb):
        """OCC pre-step: absorbed bytes reach the source before the copy
        phase reads it, so the moved data includes them."""
        mux = wb.mux
        handle = demoted_warm_file(wb)
        mux.write(handle, 0, b"P" * BS)
        hdd, ssd = wb.tier_id("hdd"), wb.tier_id("ssd")
        result = mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 8, hdd, ssd)
        )
        assert result.moved_blocks == 8
        assert mux.cache.dirty_block_count == 0
        assert mux.cache.cached_blocks == 0  # commit invalidated the range
        assert mux.read(handle, 0, BS) == b"P" * BS  # served from ssd
        mux.close(handle)


def put_evicting(cache, ino, fb, data):
    """Put a block into a full cache so that it evicts: its first miss is
    refused and makes it a ghost, its second is admitted."""
    cache.put(ino, fb, data)
    assert not cache.contains(ino, fb)
    cache.put(ino, fb, data)


class TestEvictionDestage:
    """Unit-level: a dirty victim destages through the callback."""

    def _cache(self, nova, clock, capacity=4):
        return ScmCacheManager(
            clock, nova, capacity_blocks=capacity, block_size=BS,
            write_back=True,
        )

    def test_dirty_victim_destages_on_eviction(self, nova, clock):
        cache = self._cache(nova, clock)
        calls = []

        def destage(ino, runs):
            calls.append((ino, tuple(runs)))
            for start, count in runs:
                cache.mark_clean(ino, start, count)

        cache.destage_fn = destage
        for fb in range(4):
            cache.put(1, fb, bytes([fb]) * BS)
        cache.write_hit(1, 0, b"Q" * BS, 0)
        for fb in range(4, 8):  # force evictions
            put_evicting(cache, 2, fb, bytes([fb]) * BS)
        assert (1, ((0, 1),)) in calls
        assert cache.stats.get("destage_lost") == 0
        cache.check_invariants()

    def test_failed_destage_counts_lost(self, nova, clock):
        cache = self._cache(nova, clock)

        def destage(ino, runs):
            raise TierUnavailable("owner offline")

        cache.destage_fn = destage
        for fb in range(4):
            cache.put(1, fb, bytes([fb]) * BS)
        cache.write_hit(1, 0, b"R" * BS, 0)
        for fb in range(4, 8):
            put_evicting(cache, 2, fb, bytes([fb]) * BS)
        assert cache.stats.get("destage_lost") == 1
        assert cache.dirty_block_count == 0  # eviction completed anyway
        cache.check_invariants()

    def test_failed_destage_records_lost_interval(self, nova, clock):
        """The loss is a ledger entry and a callback, not just a counter —
        fsck reports exactly which bytes vanished, and the mux latches
        the inode's errseq through ``on_lost``."""
        cache = self._cache(nova, clock)
        latched = []
        cache.destage_fn = lambda ino, runs: (_ for _ in ()).throw(
            TierUnavailable("owner offline")
        )
        cache.on_lost = lambda ino, runs: latched.append((ino, tuple(runs)))
        for fb in range(4):
            cache.put(1, fb, bytes([fb]) * BS)
        cache.write_hit(1, 2, b"S" * BS, 0)
        for fb in range(4, 8):
            put_evicting(cache, 2, fb, bytes([fb]) * BS)
        assert cache.lost_intervals() == [(1, 2, 1)]
        assert latched == [(1, ((2, 1),))]
        cache.clear_lost()
        assert cache.lost_intervals() == []
        cache.check_invariants()

    def test_crash_during_destage_is_not_a_loss(self, nova, clock):
        """Power loss mid-destage must propagate (the explorer depends on
        it) — absorbing it as a destage failure would mark PM-durable
        dirty blocks clean and fake a data loss that never happened."""
        cache = self._cache(nova, clock)
        cache.destage_fn = lambda ino, runs: (_ for _ in ()).throw(
            CrashTriggered("power lost")
        )
        for fb in range(4):
            cache.put(1, fb, bytes([fb]) * BS)
        cache.write_hit(1, 0, b"T" * BS, 0)
        with pytest.raises(CrashTriggered):
            for fb in range(4, 8):
                put_evicting(cache, 2, fb, bytes([fb]) * BS)
        assert cache.stats.get("destage_lost") == 0
        assert cache.lost_intervals() == []


class TestCrashAndReconcile:
    def test_dirty_blocks_survive_crash_and_reconcile(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        mux.write(handle, 1 * BS, b"S" * BS)
        mux.write(handle, 2 * BS, b"T" * BS)
        mux.crash()
        mux.recover()
        # legal state: dirty PM-resident blocks; fsck reports them as
        # destageable, not as corruption
        assert mux.cache.dirty_block_count == 2
        assert check_mux(mux, deep=False) == []
        # the cache still serves the absorbed bytes meanwhile
        handle = mux.open("/f")
        assert mux.read(handle, 1 * BS, BS) == b"S" * BS
        assert reconcile_cache(mux, None) == 2
        assert mux.cache.dirty_block_count == 0
        mux.cache.invalidate_file(handle.ino)
        assert mux.read(handle, 1 * BS, BS) == b"S" * BS  # now from hdd
        assert mux.read(handle, 2 * BS, BS) == b"T" * BS
        mux.close(handle)

    def test_fsck_flags_orphaned_dirty_marks(self, wb):
        mux = wb.mux
        dirty = BlockIntervalSet()
        dirty.add(0)
        mux.cache._dirty[9999] = dirty
        mux.cache.dirty_block_count += 1  # the mark, as the cache counts it
        problems = check_mux(mux, deep=False)
        assert any("dead ino 9999" in p for p in problems)
        assert reconcile_cache(mux, None) == 1
        assert mux.cache.dirty_block_count == 0

    def test_reconcile_noop_without_write_back(self):
        stack = build_stack()
        assert reconcile_cache(stack.mux, None) == 0

    def test_lost_ledger_survives_crash_and_is_reported(self, wb):
        """The loss ledger lives with the cache metadata on PM, so a
        pre-crash destage loss is still reportable after recovery —
        fsck names the interval and reconcile acknowledges it."""
        mux = wb.mux
        handle = demoted_warm_file(wb)
        mux.cache._lost.setdefault(handle.ino, []).append((3, 2))
        mux.crash()
        mux.recover()
        problems = check_mux(mux, deep=False)
        assert any("lost to a failed destage" in p for p in problems)
        report = []
        reconcile_cache(mux, report)
        assert any(f"ino {handle.ino}" in line and "unrecoverable" in line
                   for line in report)
        assert mux.cache.lost_intervals() == []
        assert check_mux(mux, deep=False) == []


class TestDegradedDestage:
    def test_offline_owner_defers_destage(self, wb):
        mux = wb.mux
        handle = demoted_warm_file(wb)
        mux.write(handle, 0, b"U" * BS)
        hdd_tier = mux.registry.get(wb.tier_id("hdd"))
        hdd_tier.health.mark_offline()
        wb.clock.advance_ns(cal.CACHE_WRITEBACK_INTERVAL_NS + 1)
        mux.write(handle, 1 * BS, b"V" * BS)  # budget fires, owner offline
        assert mux.stats.get("destage_deferred") >= 2
        assert mux.cache.dirty_block_count == 2  # kept for later
        hdd_tier.health.mark_online()
        mux.fsync(handle)
        assert mux.cache.dirty_block_count == 0
        mux.cache.invalidate_file(handle.ino)
        assert mux.read(handle, 0, BS) == b"U" * BS
        mux.close(handle)

    def test_persistent_destage_error_walks_owner_to_suspect(self, wb):
        """A latched media error on the owner tier during fsync destage:
        each fsync raises, the health machine walks HEALTHY -> SUSPECT
        after 3 consecutive failures, and (the owner being XFS, policy
        ``keep``) the dirty pages retry to durability once healed — no
        data loss on record."""
        mux = wb.mux
        xfs = wb.filesystems["ssd"]
        handle = demoted_warm_file(wb, blocks=2, to="ssd")
        mux.write(handle, 0, b"\x70" * (2 * BS))
        assert mux.cache.dirty_block_count == 2
        real = type(xfs.device).write_blocks

        def failing(block_no, data):
            if block_no >= xfs._data_base:
                raise DeviceIoError(
                    f"latched media error at block {block_no}", transient=False
                )
            return real(xfs.device, block_no, data)

        xfs.device.write_blocks = failing
        tier = mux.registry.get(wb.tier_id("ssd"))
        for _ in range(3):
            with pytest.raises(TierUnavailable):
                mux.fsync(handle)
        assert tier.health.state is HealthState.SUSPECT
        assert tier.health.consecutive_errors == 3
        # keep-policy: the failed pages wait, dirty, at the tier FS
        assert len(xfs.page_cache.dirty_items(handle.ino)) == 2
        del xfs.device.write_blocks
        mux.fsync(handle)  # the retry lands the data durably
        assert xfs.page_cache.dirty_items(handle.ino) == []
        assert xfs.lost_intervals() == []
        assert mux.lost_intervals() == []
        assert tier.health.consecutive_errors == 0
        mux.cache.invalidate_file(handle.ino)
        assert mux.read(handle, 0, BS) == b"\x70" * BS
        mux.close(handle)

    def test_owner_dying_between_destage_write_and_flush_is_counted(self):
        """A durable destage whose tier write landed (in the tier's DRAM
        page cache) but whose flush found the device gone: the close must
        not fail, the blocks are clean in the cache, and the volatile
        window is on record for fsck's cache reconciliation."""
        wb = build_stack(cache_write_back=True, faults={"hdd": FaultConfig()})
        mux = wb.mux
        handle = demoted_warm_file(wb, blocks=2)
        mux.write(handle, 0, b"\x71" * (2 * BS))
        assert mux.cache.dirty_block_count == 2
        wb.injectors["hdd"].set_offline()  # the device, not yet the tier
        mux.close(handle)  # destage with durable=True
        assert mux.stats.get("destage_flush_failed") == 1
        assert mux.cache.dirty_block_count == 0
        assert mux.cache.stats.get("destaged_blocks") == 2
        assert mux.registry.get(wb.tier_id("hdd")).health.is_offline

    def test_metafile_flush_defers_while_its_tier_is_offline(self):
        """Mux's own bookkeeping must never fail a user op: records stay
        buffered while the metafile's device rejects I/O and land on the
        first flush after it returns."""
        wb = build_stack(faults={"pm": FaultConfig()})
        mux = wb.mux
        meta = mux.meta
        flushes = meta.stats.get("flushes")
        wb.injectors["pm"].set_offline()
        mux.mkdir("/d")  # notes a record and flushes: must not raise
        assert meta.stats.get("flush_deferred") == 1
        assert meta.stats.get("flushes") == flushes
        assert meta._buffered == 1
        wb.injectors["pm"].set_online()
        meta.flush()
        assert meta._buffered == 0
        assert meta.stats.get("flushes") == flushes + 1


class TestSlowTierWriteReduction:
    def test_write_back_reduces_slow_tier_writes(self):
        """The acceptance headline: coalesced destaging beats per-write
        slow-tier I/O by a wide margin on the O_SYNC hot-write mix."""
        wb_stack = build_stack(cache_write_back=True)
        wb_counts = cache_writeback(
            wb_stack, file_bytes=1 * 1024 * 1024, operations=200
        )
        wi_stack = build_stack()
        wi_counts = cache_writeback(
            wi_stack, file_bytes=1 * 1024 * 1024, operations=200
        )
        assert wb_counts["write_hits"] > 0
        assert wb_counts["dirty_at_end"] == 0  # close destaged the rest
        # coalescing collapsed repeat overwrites of the hot range
        assert wb_counts["destaged_blocks"] < wb_counts["write_hits"]
        # >=4x fewer slow-tier device writes (observed ~50x)
        assert wb_counts["hdd_write_ops"] * 4 < wi_counts["hdd_write_ops"]
        # and the simulated loop is faster: no per-write HDD round trip
        assert wb_counts["loop_ns"] * 10 < wi_counts["loop_ns"]


class IterCountingDict(dict):
    """Counts whole-table scans; pop/getitem stay free."""

    def __init__(self, *args):
        super().__init__(*args)
        self.scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def keys(self):
        self.scans += 1
        return super().keys()

    def items(self):
        self.scans += 1
        return super().items()


class TestInvalidationComplexity:
    """invalidate_file/range must not scan the global slot table."""

    def _populated(self, nova, clock):
        cache = ScmCacheManager(
            clock, nova, capacity_blocks=64, block_size=BS, write_back=True
        )
        for fb in range(4):
            cache.put(1, fb, b"a" * BS)
        for fb in range(40):
            cache.put(2, fb, b"b" * BS)
        cache._slots = IterCountingDict(cache._slots)
        return cache

    def test_invalidate_file_touches_only_its_blocks(self, nova, clock):
        cache = self._populated(nova, clock)
        assert cache.invalidate_file(1) == 4
        assert cache._slots.scans == 0
        assert cache.cached_blocks == 40

    def test_invalidate_range_touches_only_its_blocks(self, nova, clock):
        cache = self._populated(nova, clock)
        assert cache.invalidate_range(2, 10, 5) == 5
        assert cache._slots.scans == 0
        assert cache.cached_blocks == 39


# ---------------------------------------------------------------------------
# property test: per-ino index + dirty-interval invariants under random ops
# ---------------------------------------------------------------------------

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(1, 3), st.integers(0, 15)),
        st.tuples(st.just("write_hit"), st.integers(1, 3), st.integers(0, 15)),
        st.tuples(st.just("get"), st.integers(1, 3), st.integers(0, 15)),
        st.tuples(st.just("invalidate"), st.integers(1, 3), st.integers(0, 15)),
        st.tuples(
            st.just("invalidate_range"), st.integers(1, 3), st.integers(0, 15)
        ),
        st.tuples(st.just("invalidate_file"), st.integers(1, 3), st.just(0)),
        st.tuples(st.just("mark_clean"), st.integers(1, 3), st.integers(0, 15)),
    ),
    min_size=1,
    max_size=60,
)


class TestPropertyInvariants:
    @settings(max_examples=120, deadline=None)
    @given(ops=OPS, capacity=st.integers(2, 10))
    def test_index_and_dirty_invariants(self, ops, capacity):
        nova, clock = nova_factory()
        cache = ScmCacheManager(
            clock, nova, capacity_blocks=capacity, block_size=BS,
            write_back=True,
        )
        marked = set()  # (ino, fb) we dirtied and never cleaned ourselves
        for op, ino, fb in ops:
            if op == "put":
                cache.put(ino, fb, bytes([ino]) * BS)
            elif op == "write_hit":
                if cache.write_hit(ino, fb, bytes([fb]) * BS, 0):
                    marked.add((ino, fb))
            elif op == "get":
                cache.get(ino, fb)
            elif op == "invalidate":
                cache.invalidate(ino, fb)
                marked.discard((ino, fb))
            elif op == "invalidate_range":
                cache.invalidate_range(ino, fb, 3)
                for b in range(fb, fb + 3):
                    marked.discard((ino, b))
            elif op == "invalidate_file":
                cache.invalidate_file(ino)
                marked = {(i, b) for i, b in marked if i != ino}
            elif op == "mark_clean":
                cache.mark_clean(ino, fb, 2)
                marked.discard((ino, fb))
                marked.discard((ino, fb + 1))
            cache.check_invariants()
            # dirty set == marked blocks still resident (evictions destage
            # via destage_fn; with none installed they count destage_lost
            # and drop both the slot and the mark)
            actual = {
                (ino_, b)
                for ino_ in cache.dirty_files()
                for start, count in cache.dirty_runs(ino_)
                for b in range(start, start + count)
            }
            expected = {
                (i, b) for i, b in marked if cache.contains(i, b)
            }
            assert actual == expected
