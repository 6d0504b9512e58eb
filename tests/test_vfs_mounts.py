"""Unit tests for the VFS mount table and dispatch."""

import pytest

from repro.errors import CrossDevice, FileNotFound, InvalidArgument
from repro.vfs.interface import OpenFlags
from repro.vfs.vfs import VFS


@pytest.fixture
def vfs(clock, nova, xfs):
    v = VFS(clock)
    v.mount("/pm", nova)
    v.mount("/ssd", xfs)
    return v


class TestMountTable:
    def test_resolve_longest_prefix(self, vfs, nova):
        fs, inner = vfs.resolve("/pm/a/b")
        assert fs is nova
        assert inner == "/a/b"

    def test_resolve_mount_point_itself(self, vfs, xfs):
        fs, inner = vfs.resolve("/ssd")
        assert fs is xfs
        assert inner == "/"

    def test_unmounted_path(self, vfs):
        with pytest.raises(FileNotFound):
            vfs.resolve("/other/x")

    def test_duplicate_mount_rejected(self, vfs, ext4):
        with pytest.raises(InvalidArgument):
            vfs.mount("/pm", ext4)

    def test_nested_mount_rejected(self, vfs, ext4):
        with pytest.raises(InvalidArgument):
            vfs.mount("/pm/sub", ext4)

    def test_unmount(self, vfs, nova):
        assert vfs.unmount("/pm") is nova
        with pytest.raises(FileNotFound):
            vfs.resolve("/pm/x")

    def test_unmount_missing(self, vfs):
        with pytest.raises(FileNotFound):
            vfs.unmount("/nope")

    def test_mounts_snapshot(self, vfs):
        assert set(vfs.mounts()) == {"/pm", "/ssd"}


class TestDispatch:
    def test_write_read_through_vfs(self, vfs):
        vfs.write_file("/pm/f", b"data")
        assert vfs.read_file("/pm/f") == b"data"

    def test_handle_ops(self, vfs):
        handle = vfs.create("/ssd/f")
        vfs.write(handle, 0, b"abcdef")
        assert vfs.read(handle, 2, 3) == b"cde"
        vfs.truncate(handle, 3)
        assert vfs.getattr("/ssd/f").size == 3
        vfs.fsync(handle)
        vfs.close(handle)

    def test_setattr_reaches_the_mounted_fs(self, vfs, xfs, clock):
        vfs.write_file("/ssd/f", b"abc")
        t0 = clock.now_ns
        stat = vfs.setattr("/ssd/f", mode=0o600, atime=7.0)
        assert (stat.mode, stat.atime) == (0o600, 7.0)
        assert xfs.getattr("/f").mode == 0o600  # mount prefix stripped
        assert clock.now_ns > t0
        with pytest.raises(InvalidArgument):
            vfs.setattr("/ssd/f", size=0)  # not a settable attribute

    def test_rename_within_fs(self, vfs):
        vfs.write_file("/pm/a", b"1")
        vfs.rename("/pm/a", "/pm/b")
        assert vfs.read_file("/pm/b") == b"1"

    def test_rename_across_fs_rejected(self, vfs):
        vfs.write_file("/pm/a", b"1")
        with pytest.raises(CrossDevice):
            vfs.rename("/pm/a", "/ssd/a")

    def test_mkdir_readdir(self, vfs):
        vfs.mkdir("/pm/d")
        vfs.write_file("/pm/d/f", b"x")
        assert vfs.readdir("/pm/d") == ["f"]
        vfs.unlink("/pm/d/f")
        vfs.rmdir("/pm/d")
        assert vfs.readdir("/pm") == []

    def test_exists(self, vfs):
        assert not vfs.exists("/pm/ghost")
        vfs.write_file("/pm/real", b"")
        assert vfs.exists("/pm/real")

    def test_statfs(self, vfs, nova):
        stats = vfs.statfs("/pm/whatever")
        assert stats.total_blocks == nova.statfs().total_blocks

    def test_dispatch_charges_time(self, vfs, clock):
        t0 = clock.now_ns
        vfs.exists("/pm/x")
        assert clock.now_ns > t0

    def test_open_create_flag(self, vfs):
        handle = vfs.open("/pm/new", OpenFlags.RDWR | OpenFlags.CREAT)
        vfs.write(handle, 0, b"z")
        vfs.close(handle)
        assert vfs.read_file("/pm/new") == b"z"
