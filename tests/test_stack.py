"""Stack assembly helper."""

import pytest

from repro.core.policies import TpfsPolicy
from repro.errors import InvalidArgument
from repro.fs.ext4 import Ext4FileSystem
from repro.fs.nova import NovaFileSystem
from repro.fs.xfs import XfsFileSystem
from repro.stack import build_stack

MIB = 1024 * 1024


class TestBuildStack:
    def test_default_three_tiers(self):
        stack = build_stack()
        assert set(stack.tier_ids) == {"pm", "ssd", "hdd"}
        assert isinstance(stack.filesystems["pm"], NovaFileSystem)
        assert isinstance(stack.filesystems["ssd"], XfsFileSystem)
        assert isinstance(stack.filesystems["hdd"], Ext4FileSystem)

    def test_mux_mounted(self):
        stack = build_stack()
        fs, inner = stack.vfs.resolve("/mux/some/file")
        assert fs is stack.mux
        assert inner == "/some/file"

    def test_subset_of_tiers(self):
        stack = build_stack(tiers=["ssd"])
        assert list(stack.tier_ids) == ["ssd"]
        assert stack.mux.cache is None

    def test_custom_capacities(self):
        stack = build_stack(capacities={"pm": 8 * MIB})
        assert stack.devices["pm"].capacity_bytes == 8 * MIB

    def test_custom_policy(self):
        policy = TpfsPolicy()
        stack = build_stack(policy=policy)
        assert stack.mux.policy is policy

    def test_unknown_tier_rejected(self):
        with pytest.raises(InvalidArgument):
            build_stack(tiers=["tape"])

    def test_cache_provisioned_with_pm_and_slower_tier(self):
        stack = build_stack()
        assert stack.mux.cache is not None

    def test_shared_clock(self):
        stack = build_stack()
        assert stack.clock is stack.mux.clock
        for device in stack.devices.values():
            assert device.clock is stack.clock

    def test_end_to_end_through_vfs_mount(self):
        stack = build_stack()
        stack.vfs.write_file("/mux/hello.txt", b"via the vfs")
        assert stack.vfs.read_file("/mux/hello.txt") == b"via the vfs"

    def test_tier_id_lookup(self):
        stack = build_stack()
        assert stack.tier_id("pm") in stack.mux.tier_ids()

    @pytest.mark.parametrize("interval", [0, -5])
    def test_non_positive_pressure_interval_rejected(self, interval):
        # a zero or negative interval would make the monitor sample on
        # every call instead of failing
        with pytest.raises(InvalidArgument, match="pressure_interval_ns"):
            build_stack(pressure_interval_ns=interval)
