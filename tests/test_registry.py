"""Tier registry + runtime add/remove of tiers (§2.1)."""

import pytest

from repro.core.policies import PinnedPolicy
from repro.core.registry import TierRegistry
from repro.devices.profile import (
    OPTANE_PMEM_200,
    OPTANE_SSD_P4800X,
    SEAGATE_EXOS_X18,
)
from repro.errors import InvalidArgument, ReproError
from repro.stack import build_stack

MIB = 1024 * 1024
BS = 4096


class TestTierRegistry:
    def test_default_rank_by_device_kind(self, nova, xfs, ext4):
        registry = TierRegistry()
        hdd_tier = registry.add("hdd", ext4, "/h", SEAGATE_EXOS_X18, None)
        pm_tier = registry.add("pm", nova, "/p", OPTANE_PMEM_200, None)
        ssd_tier = registry.add("ssd", xfs, "/s", OPTANE_SSD_P4800X, None)
        assert [t.name for t in registry.ordered()] == ["pm", "ssd", "hdd"]
        assert registry.fastest() is pm_tier

    def test_explicit_rank_overrides(self, nova, xfs):
        registry = TierRegistry()
        registry.add("a", nova, "/a", OPTANE_PMEM_200, rank=5)
        registry.add("b", xfs, "/b", OPTANE_SSD_P4800X, rank=0)
        assert registry.ordered()[0].name == "b"

    def test_duplicate_name_rejected(self, nova, xfs):
        registry = TierRegistry()
        registry.add("t", nova, "/a", OPTANE_PMEM_200, None)
        with pytest.raises(InvalidArgument):
            registry.add("t", xfs, "/b", OPTANE_SSD_P4800X, None)

    def test_remove(self, nova):
        registry = TierRegistry()
        tier = registry.add("t", nova, "/a", OPTANE_PMEM_200, None)
        registry.remove(tier.tier_id)
        assert len(registry) == 0
        with pytest.raises(ReproError):
            registry.get(tier.tier_id)

    def test_kinds_follow_add_and_remove(self, nova, xfs, ext4):
        # the read path hands ``kinds`` to the scheduler as is: it must
        # equal the map rebuilt from the registered tiers after every
        # add/remove, and a rank change must leave it alone
        registry = TierRegistry()

        def rebuilt():
            return {t.tier_id: t.kind for t in registry.ordered()}

        pm = registry.add("pm", nova, "/p", OPTANE_PMEM_200, None)
        ssd = registry.add("ssd", xfs, "/s", OPTANE_SSD_P4800X, None)
        assert registry.kinds == rebuilt()
        ssd.rank = -1
        assert registry.kinds == rebuilt()
        registry.remove(pm.tier_id)
        assert registry.kinds == rebuilt() == {ssd.tier_id: ssd.kind}
        hdd = registry.add("hdd", ext4, "/h", SEAGATE_EXOS_X18, None)
        assert registry.kinds == rebuilt()
        assert registry.kinds[hdd.tier_id] is hdd.kind

    def test_by_name(self, nova):
        registry = TierRegistry()
        tier = registry.add("t", nova, "/a", OPTANE_PMEM_200, None)
        assert registry.by_name("t") is tier
        with pytest.raises(ReproError):
            registry.by_name("ghost")

    def test_states(self, nova):
        registry = TierRegistry()
        registry.add("t", nova, "/a", OPTANE_PMEM_200, None)
        states = [tier.state(None) for tier in registry.ordered()]
        assert len(states) == 1
        assert states[0].free_bytes > 0


class TestRuntimeTierManagement:
    def test_add_tier_at_runtime(self):
        """§2.1: adding a device can be done at runtime."""
        from repro.devices.ssd import SolidStateDrive
        from repro.fs.xfs import XfsFileSystem

        stack = build_stack(tiers=["pm"], enable_cache=False)
        mux = stack.mux
        mux.write_file("/before", b"old data")
        new_dev = SolidStateDrive("ssd-late", 32 * MIB, stack.clock)
        new_fs = XfsFileSystem("xfs-late", new_dev, stack.clock)
        stack.vfs.mount("/tiers/late", new_fs)
        tier = mux.add_tier("late", new_fs, "/tiers/late", OPTANE_SSD_P4800X)
        assert tier.tier_id in mux.tier_ids()
        # the new tier is immediately usable
        mux.policy = PinnedPolicy(tier.tier_id)
        mux.write_file("/after", b"new data")
        assert stack.vfs.exists("/tiers/late/after")
        assert mux.read_file("/before") == b"old data"

    def test_remove_tier_migrates_data_off(self, stack_nocache):
        """§2.1: to remove a device, data must be migrated first."""
        stack = stack_nocache
        mux = stack.mux
        pm_id = stack.tier_id("pm")
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(32 * BS))  # lands on pm
        inode = mux.ns.get(handle.ino)
        assert inode.blt.blocks_on(pm_id) == 32
        mux.remove_tier(pm_id)
        assert pm_id not in mux.tier_ids()
        assert inode.blt.blocks_on(pm_id) == 0
        assert mux.read(handle, 0, 4) == bytes(4)
        mux.close(handle)

    def test_remove_last_tier_rejected(self):
        stack = build_stack(tiers=["ssd"], enable_cache=False)
        with pytest.raises(InvalidArgument):
            stack.mux.remove_tier(stack.tier_id("ssd"))

    def test_writes_after_removal_use_remaining_tiers(self, stack_nocache):
        stack = stack_nocache
        mux = stack.mux
        mux.write_file("/f", b"x" * 4096)
        mux.remove_tier(stack.tier_id("pm"))
        mux.write_file("/g", b"y" * 4096)
        assert stack.vfs.exists("/tiers/ssd/g")
        assert mux.read_file("/f") == b"x" * 4096

    def test_mismatched_mount_rejected(self, stack_nocache):
        stack = stack_nocache
        with pytest.raises(InvalidArgument):
            stack.mux.add_tier(
                "bogus",
                stack.filesystems["pm"],
                "/tiers/ssd",  # resolves to xfs, not the pm fs
                OPTANE_PMEM_200,
            )

    def test_block_size_mismatch_rejected(self, stack_nocache):
        from repro.devices.ssd import SolidStateDrive
        from repro.fs.xfs import XfsFileSystem

        stack = stack_nocache
        odd_dev = SolidStateDrive(
            "odd", 32 * MIB, stack.clock, block_size=8192
        )
        odd_fs = XfsFileSystem("odd", odd_dev, stack.clock)
        stack.vfs.mount("/tiers/odd", odd_fs)
        with pytest.raises(InvalidArgument):
            stack.mux.add_tier("odd", odd_fs, "/tiers/odd", OPTANE_SSD_P4800X)
