"""New device types joining the hierarchy (the paper's §1 motivation)."""

import pytest

from repro.core.policy import MigrationOrder
from repro.devices.cxl import ARCHIVAL, CXL_SSD, ArchivalDevice, CxlSsd
from repro.devices.pm import PersistentMemoryDevice
from repro.devices.profile import OPTANE_PMEM_200
from repro.fs.ext4 import Ext4FileSystem
from repro.fs.nfs import NetworkFileSystem
from repro.fs.nova import NovaFileSystem
from repro.stack import build_stack
from repro.tools.fsck import check_mux, check_native_fs

MIB = 1024 * 1024
BS = 4096


@pytest.fixture
def five_tier():
    stack = build_stack(
        capacities={"pm": 16 * MIB, "ssd": 32 * MIB, "hdd": 64 * MIB},
        enable_cache=False,
    )
    cxl_dev = CxlSsd("cxl0", 64 * MIB, stack.clock)
    cxl_fs = NovaFileSystem("nova-cxl", cxl_dev, stack.clock)
    stack.vfs.mount("/tiers/cxl", cxl_fs)
    cxl = stack.mux.add_tier("cxl", cxl_fs, "/tiers/cxl", CXL_SSD, rank=1)
    stack.tier_ids["cxl"] = cxl.tier_id

    cold_dev = ArchivalDevice("glass0", 256 * MIB, stack.clock)
    cold_fs = Ext4FileSystem("ext4-cold", cold_dev, stack.clock)
    stack.vfs.mount("/tiers/cold", cold_fs)
    cold = stack.mux.add_tier("cold", cold_fs, "/tiers/cold", ARCHIVAL, rank=9)
    stack.tier_ids["cold"] = cold.tier_id
    return stack


class TestCxlDevice:
    def test_nova_runs_on_cxl_unchanged(self, clock):
        cxl = CxlSsd("c0", 32 * MIB, clock)
        nova = NovaFileSystem("nova-cxl", cxl, clock)
        nova.write_file("/f", b"byte addressable flash")
        assert nova.read_file("/f") == b"byte addressable flash"
        assert check_native_fs(nova) == []

    def test_cxl_slower_than_pm_faster_than_archival(self, clock, pm):
        cxl = CxlSsd("c0", 32 * MIB, clock)
        t0 = clock.now_ns
        pm.load(0, 64)
        pm_cost = clock.now_ns - t0
        t0 = clock.now_ns
        cxl.load(0, 64)
        cxl_cost = clock.now_ns - t0
        cold = ArchivalDevice("g0", 32 * MIB, clock)
        t0 = clock.now_ns
        cold.read_blocks(0)
        cold_cost = clock.now_ns - t0
        assert pm_cost < cxl_cost < cold_cost

    def test_flush_semantics_preserved(self, clock):
        cxl = CxlSsd("c0", 32 * MIB, clock)
        cxl.store(0, b"dirty")
        assert cxl.unflushed_lines == 1
        cxl.flush_range(0, 5)
        assert cxl.unflushed_lines == 0


class TestFiveTierHierarchy:
    def test_all_tiers_registered(self, five_tier):
        assert len(five_tier.mux.registry) == 5

    def test_every_pair_migratable(self, five_tier):
        mux = five_tier.mux
        ids = mux.tier_ids()
        assert len(ids) == 5
        for src in ids:
            for dst in ids:
                assert mux.engine.supports(src, dst) == (src != dst)

    def test_data_flows_through_all_five(self, five_tier):
        stack = five_tier
        mux = stack.mux
        handle = mux.create("/f")
        payload = bytes(range(256)) * 16 * 5  # 20 KiB -> 5 blocks
        mux.write(handle, 0, payload)
        order = ["pm", "ssd", "cxl", "hdd", "cold"]
        for i, name in enumerate(order[1:], start=1):
            mux.engine.migrate_now(
                MigrationOrder(
                    handle.ino,
                    i,
                    1,
                    stack.tier_id("pm"),
                    stack.tier_id(name),
                )
            )
        inode = mux.ns.get(handle.ino)
        assert len(inode.blt.tiers_used()) == 5
        assert mux.read(handle, 0, len(payload)) == payload
        assert check_mux(mux, deep=True) == []
        mux.close(handle)

    def test_archive_tier_charged_realistically(self, five_tier):
        stack = five_tier
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(BS))
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 1, stack.tier_id("pm"), stack.tier_id("cold"))
        )
        stack.filesystems["hdd"]  # unrelated
        cold_fs, _ = stack.vfs.resolve("/tiers/cold")
        cold_fs.page_cache.drop_clean()
        t0 = stack.clock.now_ns
        mux.read(handle, 0, 1)
        assert stack.clock.now_ns - t0 > 100_000_000  # media fetch: >100 ms
        mux.close(handle)

    def test_fsck_clean_everywhere(self, five_tier):
        stack = five_tier
        mux = stack.mux
        mux.write_file("/a", bytes(8 * BS))
        mux.engine.migrate_now(
            MigrationOrder(
                mux.ns.resolve("/a").ino, 0, 4,
                stack.tier_id("pm"), stack.tier_id("cxl"),
            )
        )
        assert check_mux(mux, deep=True) == []
        for mount in ("/tiers/pm", "/tiers/cxl", "/tiers/cold"):
            fs, _ = stack.vfs.resolve(mount)
            assert check_native_fs(fs) == []


class DaxForwardingFs(NetworkFileSystem):
    """*Not* a NovaFileSystem: forwards the VFS calls (NetworkFileSystem
    does that) plus the two optional capabilities to an inner file system."""

    def dax_map(self, handle):
        return self.remote.dax_map(self._remote_handle(handle))

    def load_hint(self):
        return self.remote.load_hint()


def _slow_stack(**kwargs):
    """SSD + HDD only; the tests below bring their own fast tier."""
    return build_stack(
        tiers=["ssd", "hdd"],
        capacities={"ssd": 32 * MIB, "hdd": 64 * MIB},
        **kwargs,
    )


def _add_pm_kind_tier(stack, name, fs, rank=None):
    mount = f"/tiers/{name}"
    stack.vfs.mount(mount, fs)
    tier = stack.mux.add_tier(name, fs, mount, OPTANE_PMEM_200, rank=rank)
    stack.tier_ids[name] = tier.tier_id
    return tier


def _file_on(stack, path, tier_name, nblocks):
    mux = stack.mux
    handle = mux.create(path)
    mux.set_placement(path, stack.tier_id(tier_name))
    mux.write(handle, 0, b"".join(bytes([i + 1]) * BS for i in range(nblocks)))
    mux.fsync(handle)
    return handle


class TestCacheHostIsACapability:
    """The SCM cache goes wherever ``dax_map`` answers — Mux never asks
    what class a tier's file system is (no edit under ``core/`` needed)."""

    def test_cache_attaches_to_a_non_nova_file_system_that_maps(self):
        stack = _slow_stack(cache_write_back=True)
        mux = stack.mux
        assert mux.cache is None  # no PM-class tier yet
        pm = PersistentMemoryDevice("pm9", 16 * MIB, stack.clock)
        wrapper = DaxForwardingFs(
            "daxwrap", NovaFileSystem("nova", pm, stack.clock), stack.clock
        )
        assert not isinstance(wrapper, NovaFileSystem)
        tier = _add_pm_kind_tier(stack, "pmwrap", wrapper)
        assert mux.cache is not None
        # load_hint forwarded: the pressure monitor tracks the wrapped tier
        mux.tier_states()  # samples every tracked tier
        assert tier.tier_id in mux.pressure.snapshot()

        handle = _file_on(stack, "/f", "hdd", 4)
        expect = b"".join(bytes([i + 1]) * BS for i in range(4))
        assert mux.read(handle, 0, 4 * BS) == expect  # miss + fill
        assert mux.cache.cached_blocks == 4
        hdd_reads = stack.devices["hdd"].stats.read_ops
        pm_reads = pm.stats.read_ops
        assert mux.read(handle, 0, 4 * BS) == expect  # served from the map
        assert stack.devices["hdd"].stats.read_ops == hdd_reads
        assert pm.stats.read_ops > pm_reads
        assert mux.cache.stats.get("hit") == 4
        # write-back: a write to cached blocks is absorbed on the wrapped PM
        hdd_writes = stack.devices["hdd"].stats.write_ops
        mux.write(handle, BS, b"Z" * BS)
        assert mux.stats.get("writes_absorbed") == 1
        assert mux.cache.dirty_block_count == 1
        assert stack.devices["hdd"].stats.write_ops == hdd_writes
        assert mux.read(handle, BS, BS) == b"Z" * BS
        mux.fsync(handle)  # destage reaches the hdd
        assert mux.cache.dirty_block_count == 0
        assert stack.devices["hdd"].stats.write_ops > hdd_writes
        mux.close(handle)
        assert check_mux(mux, deep=True) == []

    def test_pm_kind_tier_without_a_dax_path_gets_no_cache(self):
        stack = _slow_stack()
        mux = stack.mux
        pm = PersistentMemoryDevice("pm9", 16 * MIB, stack.clock)
        plain = NetworkFileSystem(
            "nodax", NovaFileSystem("nova", pm, stack.clock), stack.clock
        )
        _add_pm_kind_tier(stack, "nodax", plain)  # must not raise
        assert mux.cache is None
        assert not plain.exists("/.mux_cache")  # the probe cleaned up
        handle = _file_on(stack, "/f", "hdd", 2)
        assert mux.read(handle, 0, 2 * BS) == bytes([1]) * BS + bytes([2]) * BS
        mux.close(handle)
        # the next PM-class tier in rank order that *does* map hosts it
        cxl_fs = NovaFileSystem(
            "nova-cxl", CxlSsd("cxl0", 16 * MIB, stack.clock), stack.clock
        )
        _add_pm_kind_tier(stack, "cxl", cxl_fs, rank=1)
        assert mux.cache is not None
        assert cxl_fs.exists("/.mux_cache")
        assert not plain.exists("/.mux_cache")


class TestRemoveTierKeepsForeignCache:
    def test_removing_a_pm_kind_tier_that_does_not_host_the_cache(self):
        """Regression: ``remove_tier`` tore the cache down whenever the
        departing tier was PM-*kind*, not when it *hosted* the cache."""
        stack = build_stack(
            capacities={"pm": 16 * MIB, "ssd": 32 * MIB, "hdd": 64 * MIB}
        )
        mux = stack.mux
        cxl_fs = NovaFileSystem(
            "nova-cxl", CxlSsd("cxl0", 16 * MIB, stack.clock), stack.clock
        )
        stack.vfs.mount("/tiers/cxl", cxl_fs)
        cxl = mux.add_tier("cxl", cxl_fs, "/tiers/cxl", CXL_SSD, rank=1)
        handle = _file_on(stack, "/f", "hdd", 16)
        mux.read(handle, 0, 16 * BS)  # warm the cache (hosted on pm)
        cache = mux.cache
        assert cache.cached_blocks == 16
        pm_writes = stack.devices["pm"].stats.write_ops

        mux.remove_tier(cxl.tier_id)

        assert mux.cache is cache
        assert cache.cached_blocks == 16
        assert stack.devices["pm"].stats.write_ops == pm_writes
        hdd_reads = stack.devices["hdd"].stats.read_ops
        mux.read(handle, 0, 16 * BS)  # still all hits
        assert stack.devices["hdd"].stats.read_ops == hdd_reads
        mux.close(handle)

    def test_removing_the_host_still_tears_the_cache_down(self):
        stack = build_stack(
            capacities={"pm": 16 * MIB, "ssd": 32 * MIB, "hdd": 64 * MIB},
            cache_write_back=True,
        )
        mux = stack.mux
        handle = _file_on(stack, "/f", "hdd", 4)
        mux.read(handle, 0, 4 * BS)
        mux.write(handle, 0, b"Q" * BS)  # absorbed: dirty on the host
        assert mux.cache.dirty_block_count == 1
        mux.remove_tier(stack.tier_id("pm"))
        assert mux.cache is None  # no PM-class tier left to host one
        assert mux.read(handle, 0, BS) == b"Q" * BS  # destaged, not lost
        mux.close(handle)
