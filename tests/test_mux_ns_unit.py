"""MuxNamespace unit tests (direct, without a full stack)."""

import pytest

from repro.core.blt import ExtentBlt
from repro.core.metadata import CollectiveInode, MuxNamespace
from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.vfs.stat import FileType


@pytest.fixture
def ns():
    return MuxNamespace(now=0.0)


class TestResolution:
    def test_root(self, ns):
        assert ns.resolve("/") is ns.root

    def test_missing(self, ns):
        with pytest.raises(FileNotFound):
            ns.resolve("/ghost")

    def test_nested(self, ns):
        ns.mkdir("/a", 1.0, 0o755)
        inode = ns.create_file("/a/f", 2.0, 0o644, initial_tier=0, blt=None)
        assert ns.resolve("/a/f") is inode

    def test_file_as_directory(self, ns):
        ns.create_file("/f", 1.0, 0o644, initial_tier=0, blt=None)
        with pytest.raises(NotADirectory):
            ns.resolve("/f/below")

    def test_get_by_ino(self, ns):
        inode = ns.create_file("/f", 1.0, 0o644, initial_tier=0, blt=None)
        assert ns.get(inode.ino) is inode
        with pytest.raises(FileNotFound):
            ns.get(424242)


class TestMutation:
    def test_create_updates_parent_times(self, ns):
        ns.create_file("/f", 5.0, 0o644, initial_tier=0, blt=None)
        assert ns.root.mtime == 5.0

    def test_duplicate(self, ns):
        ns.create_file("/f", 1.0, 0o644, initial_tier=0, blt=None)
        with pytest.raises(FileExists):
            ns.create_file("/f", 2.0, 0o644, initial_tier=0, blt=None)

    def test_mkdir_nlink(self, ns):
        base_nlink = ns.root.nlink
        ns.mkdir("/d", 1.0, 0o755)
        assert ns.root.nlink == base_nlink + 1
        ns.rmdir("/d", 2.0)
        assert ns.root.nlink == base_nlink

    def test_unlink_frees_inode(self, ns):
        inode = ns.create_file("/f", 1.0, 0o644, initial_tier=0, blt=None)
        ns.unlink("/f", 2.0)
        with pytest.raises(FileNotFound):
            ns.get(inode.ino)

    def test_unlink_dir_rejected(self, ns):
        ns.mkdir("/d", 1.0, 0o755)
        with pytest.raises(IsADirectory):
            ns.unlink("/d", 2.0)

    def test_rmdir_nonempty(self, ns):
        ns.mkdir("/d", 1.0, 0o755)
        ns.create_file("/d/f", 2.0, 0o644, initial_tier=0, blt=None)
        with pytest.raises(DirectoryNotEmpty):
            ns.rmdir("/d", 3.0)

    def test_root_operations_rejected(self, ns):
        with pytest.raises(InvalidArgument):
            ns.unlink("/", 1.0)
        with pytest.raises(InvalidArgument):
            ns.mkdir("/", 1.0, 0o755)

    def test_rename_into_self_rejected(self, ns):
        ns.mkdir("/d", 1.0, 0o755)
        with pytest.raises(InvalidArgument):
            ns.rename("/d", "/d/sub", 2.0)

    def test_rename_same_path_is_noop(self, ns):
        inode = ns.create_file("/f", 1.0, 0o644, initial_tier=0, blt=None)
        moved, replaced = ns.rename("/f", "/f", 2.0)
        assert moved is inode
        assert replaced is None

    def test_custom_blt_injected(self, ns):
        blt = ExtentBlt()
        inode = ns.create_file("/f", 1.0, 0o644, initial_tier=0, blt=blt)
        assert inode.blt is blt


class TestIntrospection:
    def test_readdir_sorted(self, ns):
        ns.create_file("/b", 1.0, 0o644, initial_tier=0, blt=None)
        ns.create_file("/a", 1.0, 0o644, initial_tier=0, blt=None)
        assert ns.readdir("/") == ["a", "b"]

    def test_files_iterates_regular_only(self, ns):
        ns.mkdir("/d", 1.0, 0o755)
        ns.create_file("/f", 1.0, 0o644, initial_tier=0, blt=None)
        files = list(ns.files())
        assert len(files) == 1
        assert files[0].file_type is FileType.REGULAR

    def test_path_of(self, ns):
        ns.mkdir("/a", 1.0, 0o755)
        inode = ns.create_file("/a/deep", 2.0, 0o644, initial_tier=0, blt=None)
        assert ns.path_of(inode) == "/a/deep"
        assert ns.path_of(ns.root) == "/"

    def test_len_counts_inodes(self, ns):
        assert len(ns) == 1  # root
        ns.mkdir("/d", 1.0, 0o755)
        ns.create_file("/f", 1.0, 0o644, initial_tier=0, blt=None)
        assert len(ns) == 3


class TestCollectiveInodeUnit:
    def test_stat_extra_fields(self):
        inode = CollectiveInode(7, FileType.REGULAR, 1.0, 0o644, initial_tier=2)
        stat = inode.stat(blocks=16)
        assert stat.ino == 7
        assert stat.blocks == 16
        assert stat.extra["version"] == 0
        assert stat.extra["affinity"]["size"] == 2

    def test_occ_state_defaults(self):
        inode = CollectiveInode(1, FileType.REGULAR, 0.0, 0o644)
        assert inode.version == 0
        assert not inode.migration_active
        assert not inode.locked
        assert inode.dirty_during_migration == set()
