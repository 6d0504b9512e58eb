"""Behaviour at the edge of capacity: spills, reserves, safe migration
aborts — the paths a production tiered FS must get right."""

import pytest

from repro.core.policies import PinnedPolicy
from repro.core.policy import MigrationOrder
from repro.errors import NoSpace
from repro.stack import build_stack
from repro.tools.fsck import check_mux, check_native_fs

MIB = 1024 * 1024
BS = 4096


@pytest.fixture
def tight_stack():
    """A stack with a tiny PM tier so pressure is easy to create."""
    return build_stack(
        capacities={"pm": 8 * MIB, "ssd": 16 * MIB, "hdd": 64 * MIB},
        enable_cache=False,
    )


def fill_tier(stack, name, path="/ballast"):
    """Write until the named tier refuses more data; returns bytes placed."""
    mux = stack.mux
    mux.policy = PinnedPolicy(stack.tier_id(name))
    handle = mux.create(path)
    written = 0
    chunk = bytes(64 * 1024)
    inode = mux.ns.get(handle.ino)
    tier_id = stack.tier_id(name)
    while True:
        mux.write(handle, written, chunk)
        written += len(chunk)
        if inode.blt.lookup((written - 1) // BS) != tier_id:
            break  # the write spilled: the tier is effectively full
    mux.close(handle)
    return written


class TestWriteSpill:
    def test_spill_preserves_data(self, tight_stack):
        stack = tight_stack
        written = fill_tier(stack, "pm")
        handle = stack.mux.open("/ballast")
        assert stack.mux.getattr("/ballast").size == written
        assert stack.mux.read(handle, written - 16, 16) == bytes(16)
        stack.mux.close(handle)

    def test_spill_goes_down_rank(self, tight_stack):
        stack = tight_stack
        fill_tier(stack, "pm")
        inode = stack.mux.ns.resolve("/ballast")
        tiers = inode.blt.tiers_used()
        assert stack.tier_id("pm") in tiers
        assert stack.tier_id("ssd") in tiers  # spilled to the next rank

    def test_reserve_keeps_headroom(self, tight_stack):
        stack = tight_stack
        fill_tier(stack, "pm")
        # the placement reserve must leave the PM tier some free blocks
        # (COW file systems and the Mux metafile need transient space)
        assert stack.filesystems["pm"].statfs().free_blocks >= 32

    def test_spill_counter(self, tight_stack):
        stack = tight_stack
        fill_tier(stack, "pm")
        # spills happen via placement fallback and/or ENOSPC retries;
        # either way the system kept accepting writes
        assert stack.mux.exists("/ballast")

    def test_consistent_after_pressure(self, tight_stack):
        stack = tight_stack
        fill_tier(stack, "pm")
        assert check_mux(stack.mux, deep=True) == []
        for fs in stack.filesystems.values():
            assert check_native_fs(fs) == []

    def test_everything_full_raises(self):
        stack = build_stack(
            tiers=["pm"], capacities={"pm": 8 * MIB}, enable_cache=False
        )
        mux = stack.mux
        handle = mux.create("/f")
        with pytest.raises(NoSpace):
            offset = 0
            while True:
                mux.write(handle, offset, bytes(256 * 1024))
                offset += 256 * 1024


class TestMigrationUnderPressure:
    def test_migration_into_full_tier_aborts_safely(self, tight_stack):
        stack = tight_stack
        mux = stack.mux
        fill_tier(stack, "pm")
        # a big file on ssd that cannot possibly fit into what's left of pm
        mux.policy = PinnedPolicy(stack.tier_id("ssd"))
        handle = mux.create("/victim")
        mux.write(handle, 0, bytes(4 * MIB))
        inode = mux.ns.get(handle.ino)
        result = mux.engine.migrate_now(
            MigrationOrder(
                handle.ino,
                0,
                inode.blt.end_block(),
                stack.tier_id("ssd"),
                stack.tier_id("pm"),
            )
        )
        assert result.aborted_no_space
        # nothing lost: data still fully on ssd and readable
        assert inode.blt.blocks_on(stack.tier_id("ssd")) == 4 * MIB // BS
        assert mux.read(handle, 0, 16) == bytes(16)
        assert not inode.migration_active
        mux.close(handle)

    def test_policy_maintenance_survives_pressure(self, tight_stack):
        """plan/migrate cycles at capacity never crash or corrupt."""
        stack = tight_stack
        mux = stack.mux
        from repro.core.policies import LruTieringPolicy

        class EagerLru(LruTieringPolicy):
            HIGH_WATERMARK = 0.6
            LOW_WATERMARK = 0.4

        mux.policy = EagerLru()
        for i in range(8):
            handle = mux.create(f"/f{i}")
            mux.write(handle, 0, bytes([i]) * (1 * MIB))
            mux.close(handle)
            mux.maintain()
        assert check_mux(mux, deep=True) == []
        for i in range(8):
            assert mux.read_file(f"/f{i}")[:4] == bytes([i]) * 4

    def test_no_space_abort_counted(self, tight_stack):
        stack = tight_stack
        mux = stack.mux
        fill_tier(stack, "pm")
        mux.policy = PinnedPolicy(stack.tier_id("ssd"))
        handle = mux.create("/victim")
        mux.write(handle, 0, bytes(4 * MIB))
        mux.engine.migrate_now(
            MigrationOrder(
                handle.ino, 0, 1024, stack.tier_id("ssd"), stack.tier_id("pm")
            )
        )
        assert mux.engine.stats.get("skipped_no_space") >= 1
        mux.close(handle)
