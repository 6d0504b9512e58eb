"""The fsck consistency checkers: clean systems pass, corruption is found."""

import pytest

from repro.core.policy import MigrationOrder
from repro.tools.fsck import check_mux, check_native_fs, report

BS = 4096


class TestNativeFsck:
    def test_fresh_fs_clean(self, any_fs):
        assert check_native_fs(any_fs) == []

    def test_busy_fs_clean(self, any_fs):
        any_fs.mkdir("/d")
        for i in range(5):
            handle = any_fs.create(f"/d/f{i}")
            any_fs.write(handle, 0, bytes((i + 1) * BS))
            any_fs.write(handle, 10 * BS, b"sparse tail")
            any_fs.fsync(handle)
            any_fs.close(handle)
        any_fs.unlink("/d/f0")
        any_fs.rename("/d/f1", "/d/g1")
        assert check_native_fs(any_fs) == []

    def test_after_truncate_and_punch(self, any_fs):
        handle = any_fs.create("/f")
        any_fs.write(handle, 0, bytes(16 * BS))
        any_fs.fsync(handle)
        any_fs.punch_hole(handle, 4 * BS, 4 * BS)
        any_fs.truncate(handle, 6 * BS)
        any_fs.fsync(handle)
        any_fs.close(handle)
        assert check_native_fs(any_fs) == []

    def test_after_crash_recovery(self, ext4):
        handle = ext4.create("/f")
        ext4.write(handle, 0, bytes(8 * BS))
        ext4.fsync(handle)
        ext4.crash()
        ext4.recover()
        assert check_native_fs(ext4) == []

    def test_detects_leaked_block(self, ext4):
        ext4.allocator.alloc_block()  # allocated, owned by nobody
        problems = check_native_fs(ext4)
        assert any("leaked" in p for p in problems)

    def test_detects_double_ownership(self, ext4):
        h1 = ext4.create("/a")
        ext4.write(h1, 0, bytes(BS))
        ext4.fsync(h1)
        inode_a = ext4.inodes.get(h1.ino)
        block = inode_a.blockmap.lookup(0)
        h2 = ext4.create("/b")
        inode_b = ext4.inodes.get(h2.ino)
        inode_b.blockmap.map_range(0, 1, block)  # corrupt: same device block
        inode_b.allocated_blocks += 1
        inode_b.size = BS
        problems = check_native_fs(ext4)
        assert any("owned by both" in p for p in problems)

    def test_detects_dangling_dirent(self, any_fs):
        any_fs.write_file("/f", b"")
        root = any_fs._root
        root.entries["ghost"] = 9999
        problems = check_native_fs(any_fs)
        assert any("dangling" in p for p in problems)

    def test_detects_blocks_past_eof(self, ext4):
        handle = ext4.create("/f")
        ext4.write(handle, 0, bytes(4 * BS))
        ext4.fsync(handle)
        inode = ext4.inodes.get(handle.ino)
        inode.size = BS  # corrupt the size without punching
        problems = check_native_fs(ext4)
        assert any("beyond EOF" in p for p in problems)

    def test_report_formatting(self, ext4):
        assert report([], "ext4") == "ext4: clean"
        text = report(["bad thing"], "ext4")
        assert "1 problem" in text
        assert "bad thing" in text


class TestMuxFsck:
    def test_fresh_stack_clean(self, stack):
        assert check_mux(stack.mux, deep=True) == []

    def test_busy_stack_clean(self, stack):
        mux = stack.mux
        mux.mkdir("/d")
        handle = mux.create("/d/data")
        mux.write(handle, 0, bytes(32 * BS))
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 8, stack.tier_id("pm"), stack.tier_id("ssd"))
        )
        mux.engine.migrate_now(
            MigrationOrder(handle.ino, 8, 8, stack.tier_id("pm"), stack.tier_id("hdd"))
        )
        mux.read(handle, 0, 32 * BS)
        mux.fsync(handle)
        assert check_mux(stack.mux, deep=True) == []
        mux.close(handle)

    def test_clean_after_policy_maintenance(self, stack_nocache):
        stack = stack_nocache
        mux = stack.mux
        for i in range(6):
            handle = mux.create(f"/f{i}")
            mux.write(handle, 0, bytes([i]) * (2 * 1024 * 1024))
            mux.close(handle)
            mux.maintain()
        assert check_mux(mux, deep=True) == []
        for fs in stack.filesystems.values():
            assert check_native_fs(fs) == []

    def test_detects_blt_pointing_at_missing_data(self, stack_nocache):
        stack = stack_nocache
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(4 * BS))
        inode = mux.ns.get(handle.ino)
        # corrupt: claim blocks live on the hdd tier where nothing exists
        hdd_id = stack.tier_id("hdd")
        inode.blt.map_range(0, 2, hdd_id)
        problems = check_mux(mux, deep=True)
        assert problems
        mux.close(handle)

    def test_detects_stuck_migration_flag(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(BS))
        mux.ns.get(handle.ino).migration_active = True
        problems = check_mux(mux, deep=False)
        assert any("migration flag" in p for p in problems)
        mux.close(handle)

    def test_detects_unknown_tier_in_blt(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.write(handle, 0, bytes(BS))
        mux.ns.get(handle.ino).blt.map_range(5, 1, 99)
        problems = check_mux(mux, deep=False)
        assert any("unknown tier" in p for p in problems)
        mux.close(handle)
