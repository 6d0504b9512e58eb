"""Metadata affinity and the collective inode (§2.3)."""

import pytest

from repro.core.metadata import MetadataAffinity
from repro.core.policy import MigrationOrder
from repro.errors import InvalidArgument
from repro.vfs.stat import SINGLE_OWNER_ATTRS

BS = 4096


class TestMetadataAffinity:
    def test_initial_owner(self):
        affinity = MetadataAffinity(initial_tier=2)
        for attr in SINGLE_OWNER_ATTRS:
            assert affinity.owner(attr) == 2

    def test_set_owner(self):
        affinity = MetadataAffinity(0)
        affinity.set_owner("size", 1)
        assert affinity.owner("size") == 1
        assert affinity.owner("mtime") == 0

    def test_unknown_attribute(self):
        affinity = MetadataAffinity(0)
        with pytest.raises(InvalidArgument):
            affinity.owner("blocks")  # aggregated attr has no single owner
        with pytest.raises(InvalidArgument):
            affinity.set_owner("nope", 1)

    def test_owners_snapshot(self):
        affinity = MetadataAffinity(0)
        owners = affinity.owners()
        owners["size"] = 99
        assert affinity.owner("size") == 0


class TestAffinityThroughMux:
    def test_creation_host_owns_everything(self, stack):
        """§2.3: at creation the host FS is affinitive for all metadata."""
        mux = stack.mux
        mux.create("/f")
        st = mux.getattr("/f")
        owners = st.extra["affinity"]
        pm_id = stack.tier_id("pm")
        assert all(owner == pm_id for owner in owners.values())

    def test_write_moves_mtime_affinity(self, stack_nocache):
        stack = stack_nocache
        mux = stack.mux
        from repro.core.policies import PinnedPolicy

        handle = mux.create("/f")
        mux.policy = PinnedPolicy(stack.tier_id("ssd"))
        mux.write(handle, 0, bytes(BS))
        owners = mux.getattr("/f").extra["affinity"]
        assert owners["mtime"] == stack.tier_id("ssd")
        assert owners["size"] == stack.tier_id("ssd")
        mux.close(handle)

    def test_read_moves_atime_affinity(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(2 * BS))
        hdd_id = stack.tier_id("hdd")
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 1, 1, stack.tier_id("pm"), hdd_id)
        )
        mux.read(handle, BS, 10)  # served by the hdd tier
        owners = mux.getattr("/f").extra["affinity"]
        assert owners["atime"] == hdd_id
        mux.close(handle)

    def test_size_owner_is_tier_holding_last_byte(self, stack_nocache):
        """§2.3: the FS storing the last byte owns the logical size."""
        stack = stack_nocache
        mux = stack.mux
        from repro.core.policies import PinnedPolicy

        handle = mux.create("/f")
        mux.write(handle, 0, bytes(BS))
        mux.policy = PinnedPolicy(stack.tier_id("hdd"))
        mux.append(handle, bytes(BS))  # extends on hdd
        owners = mux.getattr("/f").extra["affinity"]
        assert owners["size"] == stack.tier_id("hdd")
        mux.close(handle)


class TestCollectiveInode:
    def test_getattr_served_from_cache_not_tiers(self, stack):
        """§2.3: attributes come from the collective inode, no fan-out."""
        mux = stack.mux
        mux.write_file("/f", b"x" * 100)
        pm_ops = stack.filesystems["pm"].stats.get("getattr")
        for _ in range(10):
            mux.getattr("/f")
        assert stack.filesystems["pm"].stats.get("getattr") == pm_ops

    def test_size_authoritative_across_tiers(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(3 * BS + 17))
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 4, stack.tier_id("pm"), stack.tier_id("ssd"))
        )
        assert mux.getattr("/f").size == 3 * BS + 17
        mux.close(handle)

    def test_blocks_aggregated_across_tiers(self, stack):
        """§2.3: disk consumption is managed across all related FSes."""
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(8 * BS))
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 4, stack.tier_id("pm"), stack.tier_id("ssd"))
        )
        st = mux.getattr("/f")
        assert st.blocks == 8 * (BS // 512)
        mux.close(handle)

    def test_version_counter_exposed(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(BS))
        v0 = mux.getattr("/f").extra["version"]
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 1, stack.tier_id("pm"), stack.tier_id("ssd"))
        )
        assert mux.getattr("/f").extra["version"] == v0 + 2  # start + end
        mux.close(handle)

    def test_setattr_updates_collective(self, stack):
        mux = stack.mux
        mux.write_file("/f", b"x")
        st = mux.setattr("/f", mtime=123.0, mode=0o600)
        assert st.mtime == 123.0
        assert st.mode == 0o600
        assert mux.getattr("/f").mtime == 123.0

    def test_mtime_advances_on_write(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        m0 = mux.getattr("/f").mtime
        stack.clock.advance_ns(5_000_000)
        mux.write(handle, 0, b"x")
        assert mux.getattr("/f").mtime > m0
        mux.close(handle)
