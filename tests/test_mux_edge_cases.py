"""Mux edge cases: removal with a live cache, reads at EOF boundaries,
plans over deleted files, metafile wraparound, reserved names."""

import pytest

from repro.core import calibration as cal
from repro.core.policy import MigrationOrder
from repro.errors import InvalidArgument
from repro.stack import build_stack
from repro.tools.fsck import check_mux
from repro.vfs.interface import OpenFlags

MIB = 1024 * 1024
BS = 4096


class TestTierRemovalWithCache:
    def test_removing_pm_tier_drops_cache(self):
        stack = build_stack(
            capacities={"pm": 16 * MIB, "ssd": 64 * MIB, "hdd": 128 * MIB}
        )
        mux = stack.mux
        assert mux.cache is not None
        mux.write_file("/f", bytes(8 * BS))
        mux.remove_tier(stack.tier_id("pm"))
        assert mux.cache is None
        # everything still works cache-less
        assert mux.read_file("/f") == bytes(8 * BS)
        assert check_mux(mux, deep=True) == []


class TestEofBoundaries:
    def test_partial_block_at_eof_through_cache(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, b"X" * (BS + 100))  # 1 full block + 100 bytes
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 2, stack.tier_id("pm"), stack.tier_id("hdd"))
        )
        # cached read of the EOF partial block must not invent bytes
        assert mux.read(handle, BS, 500) == b"X" * 100
        assert mux.read(handle, BS, 500) == b"X" * 100  # now from SCM cache
        mux.close(handle)

    def test_read_exactly_at_size(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, b"12345")
        assert mux.read(handle, 5, 1) == b""
        assert mux.read(handle, 4, 1) == b"5"
        mux.close(handle)

    def test_zero_length_ops(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        assert mux.write(handle, 0, b"") == 0
        assert mux.read(handle, 0, 0) == b""
        mux.punch_hole(handle, 0, 0)
        mux.close(handle)


class TestPlansOverDeletedFiles:
    def test_maintain_skips_vanished_files(self, stack_nocache):
        from repro.core.policies import LruTieringPolicy

        stack = stack_nocache
        mux = stack.mux
        class EagerLru(LruTieringPolicy):
            HIGH_WATERMARK = 0.3
            LOW_WATERMARK = 0.2

        mux.policy = EagerLru()
        handle = mux.create("/doomed")
        mux.write(handle, 0, bytes(8 * MIB))
        mux.close(handle)
        # the plan will want to demote /doomed; delete it first
        orders = mux.policy.plan_migrations(mux.tier_states(), mux.file_views())
        mux.unlink("/doomed")
        for order in orders:
            # engine must not blow up on stale ino; mux.maintain filters
            from repro.errors import FileNotFound

            try:
                mux.ns.get(order.ino)
            except FileNotFound:
                continue
        assert mux.maintain() >= 0  # runs cleanly with nothing to do


class TestMetafileWraparound:
    def test_metafile_write_wraps_at_cap(self, stack):
        mux = stack.mux
        meta = mux.meta
        # drive enough records through to exceed MAX_BYTES several times
        records_needed = (meta.MAX_BYTES // cal.META_RECORD_BYTES) + 100
        for _ in range(records_needed // cal.META_SYNC_RECORDS + 2):
            meta.note(cal.META_SYNC_RECORDS)
        assert meta._offset <= meta.MAX_BYTES
        # the metafile never exceeds the cap on the PM tier
        size = stack.filesystems["pm"].getattr("/.mux_meta").size
        assert size <= meta.MAX_BYTES


class TestStatsSurfaces:
    def test_split_read_counter(self, stack_nocache):
        stack = stack_nocache
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(8 * BS))
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 4, 4, stack.tier_id("pm"), stack.tier_id("ssd"))
        )
        before = mux.stats.get("split_reads")
        mux.read(handle, 0, 8 * BS)
        assert mux.stats.get("split_reads") > before
        mux.close(handle)

    def test_bytes_counters(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(1000))
        mux.read(handle, 0, 1000)
        assert mux.stats.get("bytes_written") == 1000
        assert mux.stats.get("bytes_read") == 1000
        mux.close(handle)


class TestReservedNames:
    """``.mux_*`` names are Mux's own files on the tiers (the metafile, the
    SCM cache file): a user name that starts with one is refused."""

    @pytest.mark.parametrize("name", ["/.mux_meta", "/.mux_cache", "/d/.mux_x"])
    def test_every_new_name_is_refused(self, name):
        mux = build_stack().mux
        mux.mkdir("/d")
        handle = mux.create("/d/f")
        mux.close(handle)
        for op in (
            lambda: mux.create(name),
            lambda: mux.open(name, OpenFlags.RDWR | OpenFlags.CREAT),
            lambda: mux.mkdir(name),
            lambda: mux.rename("/d/f", name),
        ):
            with pytest.raises(InvalidArgument, match="reserved"):
                op()
        assert mux.readdir("/") == ["d"] and mux.readdir("/d") == ["f"]

    def test_a_user_file_cannot_delete_the_metafile(self):
        """Creating and unlinking ``/.mux_meta`` used to delete the State
        Bookkeeper's metafile and wedge every later namespace op."""
        stack = build_stack()
        mux = stack.mux
        with pytest.raises(InvalidArgument):
            mux.close(mux.create("/.mux_meta"))
        with pytest.raises(InvalidArgument):
            mux.close(mux.create("/.mux_cache"))
        assert stack.vfs.exists("/tiers/pm/.mux_meta")
        assert stack.vfs.exists("/tiers/pm/.mux_cache")
        mux.mkdir("/after")
        mux.close(mux.create("/after/f"))
        assert check_mux(mux, deep=True) == []
