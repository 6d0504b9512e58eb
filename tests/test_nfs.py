"""Networked file system adapter + attaching it as a Mux tier (§4)."""

import pytest

from repro.core.policy import MigrationOrder
from repro.devices.ssd import SolidStateDrive
from repro.fs.nfs import NetworkFileSystem, network_profile
from repro.fs.xfs import XfsFileSystem
from repro.vfs.interface import OpenFlags

MIB = 1024 * 1024
BS = 4096


@pytest.fixture
def remote_env(clock):
    backing_dev = SolidStateDrive("remote-ssd", 64 * MIB, clock)
    backing = XfsFileSystem("remote-xfs", backing_dev, clock)
    nfs = NetworkFileSystem("nfs", backing, clock, rtt_us=200.0)
    return nfs, backing, clock


class TestNetworkFileSystem:
    def test_roundtrip(self, remote_env):
        nfs, _, _ = remote_env
        handle = nfs.create("/f")
        nfs.write(handle, 0, b"over the wire")
        assert nfs.read(handle, 0, 13) == b"over the wire"
        nfs.close(handle)

    def test_every_op_pays_rtt(self, remote_env):
        nfs, _, clock = remote_env
        t0 = clock.now_ns
        nfs.mkdir("/d")
        assert clock.now_ns - t0 >= nfs.rtt_ns

    def test_transfer_charged_by_size(self, remote_env):
        nfs, _, clock = remote_env
        handle = nfs.create("/f")
        t0 = clock.now_ns
        nfs.write(handle, 0, bytes(64 * 1024))
        big = clock.now_ns - t0
        t0 = clock.now_ns
        nfs.write(handle, 0, bytes(1024))
        small = clock.now_ns - t0
        assert big > small
        nfs.close(handle)

    def test_rpc_accounting(self, remote_env):
        nfs, _, _ = remote_env
        handle = nfs.create("/f")
        nfs.write(handle, 0, b"x" * 1000)
        nfs.fsync(handle)
        nfs.close(handle)
        assert nfs.stats.get("rpcs") == 4
        assert nfs.stats.get("bytes_on_wire") >= 1000

    def test_namespace_forwarded(self, remote_env):
        nfs, backing, _ = remote_env
        nfs.mkdir("/d")
        nfs.write_file("/d/f", b"1")
        assert backing.readdir("/d") == ["f"]
        nfs.rename("/d/f", "/d/g")
        assert nfs.readdir("/d") == ["g"]
        nfs.unlink("/d/g")
        nfs.rmdir("/d")

    def test_sparse_and_punch(self, remote_env):
        nfs, _, _ = remote_env
        handle = nfs.create("/f")
        nfs.write(handle, 4 * BS, b"tail")
        assert nfs.read(handle, 0, 4) == bytes(4)
        nfs.write(handle, 0, bytes(4 * BS))
        nfs.punch_hole(handle, 0, BS)
        assert nfs.read(handle, 0, 4) == bytes(4)
        nfs.close(handle)

    def test_truncate_setattr_and_sync_are_forwarded_and_charged(self, remote_env):
        nfs, backing, clock = remote_env
        handle = nfs.create("/f")
        nfs.write(handle, 0, b"x" * (2 * BS))
        rpcs = nfs.stats.get("rpcs")
        t0 = clock.now_ns
        nfs.truncate(handle, BS)
        assert backing.getattr("/f").size == BS
        stat = nfs.setattr("/f", mode=0o600, mtime=12.5)
        assert (stat.mode, stat.mtime) == (0o600, 12.5)
        assert backing.getattr("/f").mode == 0o600
        assert backing.page_cache.dirty_pages > 0
        nfs.sync()  # flushes the remote file system, not just this file
        assert backing.page_cache.dirty_pages == 0
        assert nfs.stats.get("rpcs") == rpcs + 3
        assert clock.now_ns - t0 >= 3 * nfs.rtt_ns
        nfs.close(handle)

    def test_crash_recovery_delegates(self, remote_env):
        nfs, _, _ = remote_env
        handle = nfs.create("/f")
        nfs.write(handle, 0, b"durable")
        nfs.fsync(handle)
        nfs.crash()
        nfs.recover()
        assert nfs.read_file("/f") == b"durable"

    def test_network_profile(self):
        profile = network_profile(rtt_us=500, bandwidth=1e9)
        assert profile.read_latency_ns == 500_000
        assert profile.read_bandwidth == 1e9


class TestRemoteTierUnderMux:
    """§4: a networked file system attached as just another Mux tier."""

    @pytest.fixture
    def stack_with_remote(self):
        from repro.stack import build_stack

        stack = build_stack(tiers=["pm", "ssd"], enable_cache=False)
        remote_dev = SolidStateDrive("r-ssd", 128 * MIB, stack.clock)
        remote_backing = XfsFileSystem("r-xfs", remote_dev, stack.clock)
        nfs = NetworkFileSystem("nfs", remote_backing, stack.clock, rtt_us=150.0)
        stack.vfs.mount("/tiers/remote", nfs)
        tier = stack.mux.add_tier(
            "remote", nfs, "/tiers/remote", network_profile(150.0, 1.25e9)
        )
        stack.tier_ids["remote"] = tier.tier_id
        return stack, nfs

    def test_remote_tier_registered(self, stack_with_remote):
        stack, _ = stack_with_remote
        assert "remote" in [t.name for t in stack.mux.registry.ordered()]
        # the network tier ranks slowest, so the LRU policy treats it as
        # the capacity tier
        assert stack.mux.registry.ordered()[-1].name == "remote"

    def test_migrate_to_remote_and_back(self, stack_with_remote):
        stack, nfs = stack_with_remote
        mux = stack.mux
        handle = mux.create("/archive.bin")
        payload = bytes(range(256)) * 64  # 16 KiB
        mux.write(handle, 0, payload)
        remote_id = stack.tier_id("remote")
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 4, stack.tier_id("pm"), remote_id)
        )
        inode = mux.ns.get(handle.ino)
        assert inode.blt.blocks_on(remote_id) == 4
        assert nfs.stats.get("rpcs") > 0
        assert mux.read(handle, 0, len(payload)) == payload
        # promote back to local PM
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 4, remote_id, stack.tier_id("pm"))
        )
        assert inode.blt.blocks_on(remote_id) == 0
        assert mux.read(handle, 0, len(payload)) == payload
        mux.close(handle)

    def test_remote_reads_slower_than_local(self, stack_with_remote):
        stack, _ = stack_with_remote
        mux = stack.mux
        clock = stack.clock
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(2 * BS))
        mux.engine.migrate_now(
            MigrationOrder(
                handle.ino, 1, 1, stack.tier_id("pm"), stack.tier_id("remote")
            )
        )
        t0 = clock.now_ns
        mux.read(handle, 0, 16)  # local pm block
        local = clock.now_ns - t0
        t0 = clock.now_ns
        mux.read(handle, BS, 16)  # remote block
        remote = clock.now_ns - t0
        assert remote > local + 100_000  # at least the RTT apart
        mux.close(handle)

    def test_occ_works_across_the_network(self, stack_with_remote):
        from repro.sim.tasks import run_interleaved

        stack, _ = stack_with_remote
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(128 * BS))
        task = mux.engine.submit(
            MigrationOrder(
                handle.ino, 0, 128, stack.tier_id("pm"), stack.tier_id("remote")
            )
        )

        def racer(step):
            if step == 0:
                mux.write(handle, 0, b"racing the network")

        result = run_interleaved(task, racer)
        assert mux.read(handle, 0, 18) == b"racing the network"
        inode = mux.ns.get(handle.ino)
        assert inode.blt.blocks_on(stack.tier_id("remote")) == 128
        mux.close(handle)
