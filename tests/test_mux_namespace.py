"""Mux namespace: the uniform merged directory tree (§2.1)."""

import pytest

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
)
from repro.vfs.interface import OpenFlags


@pytest.fixture
def mux(stack):
    return stack.mux


class TestNamespace:
    def test_create_and_stat(self, mux):
        mux.create("/f")
        st = mux.getattr("/f")
        assert st.size == 0
        assert not st.is_dir

    def test_create_duplicate(self, mux):
        mux.create("/f")
        with pytest.raises(FileExists):
            mux.create("/f")

    def test_open_missing(self, mux):
        with pytest.raises(FileNotFound):
            mux.open("/ghost", OpenFlags.RDONLY)

    def test_open_creat_trunc(self, mux):
        mux.write_file("/f", b"old content")
        handle = mux.open("/f", OpenFlags.RDWR | OpenFlags.TRUNC)
        assert mux.getattr("/f").size == 0
        mux.close(handle)

    def test_mkdir_tree(self, mux):
        mux.mkdir("/a")
        mux.mkdir("/a/b")
        mux.write_file("/a/b/f", b"x")
        assert mux.readdir("/a") == ["b"]
        assert mux.readdir("/a/b") == ["f"]

    def test_rmdir(self, mux):
        mux.mkdir("/d")
        mux.rmdir("/d")
        assert not mux.exists("/d")

    def test_rmdir_nonempty(self, mux):
        mux.mkdir("/d")
        mux.write_file("/d/f", b"")
        with pytest.raises(DirectoryNotEmpty):
            mux.rmdir("/d")

    def test_unlink(self, mux):
        mux.write_file("/f", b"bye")
        mux.unlink("/f")
        assert not mux.exists("/f")

    def test_unlink_dir_rejected(self, mux):
        mux.mkdir("/d")
        with pytest.raises(IsADirectory):
            mux.unlink("/d")

    def test_readdir_hides_mux_internal_files(self, mux):
        assert mux.readdir("/") == []


class TestBackingFiles:
    """Mux mirrors files as sparse backing files on the tiers it uses."""

    def test_backing_file_created_on_initial_tier(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, b"data")
        # LRU policy places on the fastest tier: pm
        assert stack.vfs.exists("/tiers/pm/f")
        mux.close(handle)

    def test_backing_files_in_subdirs(self, stack):
        mux = stack.mux
        mux.mkdir("/deep")
        mux.mkdir("/deep/er")
        mux.write_file("/deep/er/f", b"x")
        assert stack.vfs.exists("/tiers/pm/deep/er/f")

    def test_unlink_removes_backing(self, stack):
        mux = stack.mux
        mux.write_file("/f", b"x")
        assert stack.vfs.exists("/tiers/pm/f")
        mux.unlink("/f")
        assert not stack.vfs.exists("/tiers/pm/f")

    def test_same_name_on_multiple_tiers(self, stack):
        """§2.1: the same file name exists in different file systems."""
        from repro.core.policy import MigrationOrder

        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(8 * 4096))
        mux.engine.migrate_now(
            MigrationOrder(
                handle.ino, 0, 4, stack.tier_id("pm"), stack.tier_id("ssd")
            )
        )
        assert stack.vfs.exists("/tiers/pm/f")
        assert stack.vfs.exists("/tiers/ssd/f")
        mux.close(handle)


class TestRename:
    def test_rename_moves_backing_files(self, stack):
        mux = stack.mux
        mux.write_file("/a", b"payload")
        mux.rename("/a", "/b")
        assert mux.read_file("/b") == b"payload"
        assert not stack.vfs.exists("/tiers/pm/a")
        assert stack.vfs.exists("/tiers/pm/b")

    def test_rename_into_directory(self, stack):
        mux = stack.mux
        mux.mkdir("/d")
        mux.write_file("/a", b"1")
        mux.rename("/a", "/d/a")
        assert mux.read_file("/d/a") == b"1"
        assert stack.vfs.exists("/tiers/pm/d/a")

    def test_rename_directory_moves_children(self, stack):
        mux = stack.mux
        mux.mkdir("/d1")
        mux.write_file("/d1/f", b"deep")
        mux.rename("/d1", "/d2")
        assert mux.read_file("/d2/f") == b"deep"
        assert stack.vfs.exists("/tiers/pm/d2/f")

    def test_file_can_take_a_renamed_directorys_old_name(self, stack):
        """Found by test_namespace_model: the emptied backing directory
        used to stay behind on the tier and shadow the new file."""
        mux = stack.mux
        mux.mkdir("/d1")
        mux.write_file("/d1/f", b"deep")
        mux.rename("/d1", "/d2")
        assert not stack.vfs.exists("/tiers/pm/d1")
        mux.write_file("/d1", b"now a file")
        assert mux.read_file("/d1") == b"now a file"

    def test_rename_overwrite(self, stack):
        mux = stack.mux
        mux.write_file("/a", b"new")
        mux.write_file("/b", b"old")
        mux.rename("/a", "/b")
        assert mux.read_file("/b") == b"new"

    def test_rename_overwrite_drops_the_replaced_files_backing(self, stack):
        """The replaced file lived on a tier the moving file never touched:
        its backing file used to stay behind under the new name, and its
        bytes showed through the holes of the file that took the name."""
        mux = stack.mux
        hdd = stack.tier_ids["hdd"]
        handle = mux.create("/b")
        mux.set_placement("/b", hdd)
        mux.write(handle, 0, b"B" * 8192)
        mux.fsync(handle)
        mux.close(handle)
        mux.write_file("/a", b"new")  # on PM
        mux.rename("/a", "/b")
        assert not stack.vfs.exists("/tiers/hdd/b")
        mux.set_placement("/b", hdd)
        handle = mux.open("/b", OpenFlags.RDWR)
        mux.write(handle, 4196, b"x" * 10)  # sub-block write into a hole
        assert mux.read(handle, 4096, 8) == bytes(8)
        mux.close(handle)

    def test_reopen_after_rename(self, stack):
        mux = stack.mux
        mux.write_file("/a", b"v")
        mux.rename("/a", "/b")
        handle = mux.open("/b", OpenFlags.RDWR)
        mux.write(handle, 1, b"2")
        assert mux.read(handle, 0, 2) == b"v2"
        mux.close(handle)


class TestStatfs:
    def test_aggregates_all_tiers(self, stack):
        mux = stack.mux
        total = sum(
            fs.statfs().total_blocks for fs in stack.filesystems.values()
        )
        assert mux.statfs().total_blocks == total

    def test_single_device_view(self, stack):
        """§1: expose the hierarchy as a single device."""
        stats = stack.mux.statfs()
        assert stats.free_bytes > 0
        assert stats.used_bytes >= 0
