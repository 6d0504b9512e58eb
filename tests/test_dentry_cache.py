"""Dentry cache correctness: hits stay coherent through every namespace
mutation (create/unlink/rename/rmdir), tier removal and VFS mount-table
changes — a stale entry must never change an operation's outcome."""

import pytest

from repro.core.dcache import DentryCache
from repro.errors import FileNotFound
from repro.vfs.interface import OpenFlags


def small_dcache(capacity):
    return type("SmallDcache", (DentryCache,), {"CAPACITY": capacity})()


class TestDentryCacheUnit:
    def test_positive_and_negative_entries(self):
        dc = DentryCache()
        assert dc.get("/a") is None
        dc.put("/a", 7)
        assert dc.get("/a") == 7
        dc.put_negative("/b")
        assert DentryCache.is_negative(dc.get("/b"))
        assert not DentryCache.is_negative(dc.get("/a"))
        assert dc.hits == 3 and dc.misses == 1

    def test_invalidate_single(self):
        dc = DentryCache()
        dc.put("/a", 1)
        dc.invalidate("/a")
        assert dc.get("/a") is None
        dc.invalidate("/never-cached")  # no-op, no error

    def test_invalidate_prefix_spares_siblings(self):
        dc = DentryCache()
        dc.put("/dir", 1)
        dc.put("/dir/x", 2)
        dc.put_negative("/dir/sub/gone")
        dc.put("/dirx", 3)  # shares the string prefix but is a sibling
        dc.invalidate_prefix("/dir")
        assert dc.get("/dir") is None
        assert dc.get("/dir/x") is None
        assert dc.get("/dir/sub/gone") is None
        assert dc.get("/dirx") == 3

    def test_capacity_bounded_fifo(self):
        dc = small_dcache(4)
        for i in range(6):
            dc.put(f"/f{i}", i)
        assert len(dc) == 4
        assert dc.get("/f0") is None  # oldest evicted
        assert dc.get("/f5") == 5

    def test_overwrite_does_not_evict(self):
        dc = small_dcache(2)
        dc.put("/a", 1)
        dc.put("/b", 2)
        dc.put("/a", 10)  # update in place
        assert len(dc) == 2
        assert dc.get("/a") == 10
        assert dc.get("/b") == 2

    def test_clear(self):
        dc = DentryCache()
        dc.put("/a", 1)
        dc.clear()
        assert len(dc) == 0


class TestMuxResolutionCoherence:
    def test_repeat_lookup_hits_cache(self, stack):
        mux = stack.mux
        handle = mux.create("/f")
        mux.close(handle)
        mux.getattr("/f")
        hits_before = mux.ns.dcache.hits
        st = mux.getattr("/f")
        assert mux.ns.dcache.hits > hits_before
        assert st.ino == handle.ino

    def test_negative_entry_revalidated_on_create(self, stack):
        mux = stack.mux
        assert not mux.exists("/ghost")
        assert not mux.exists("/ghost")  # second probe served negative
        handle = mux.create("/ghost")
        # creation must kill the negative entry immediately
        assert mux.exists("/ghost")
        assert mux.getattr("/ghost").ino == handle.ino
        mux.close(handle)

    def test_unlink_invalidates(self, stack):
        mux = stack.mux
        handle = mux.create("/victim")
        mux.close(handle)
        mux.getattr("/victim")  # warm the cache
        mux.unlink("/victim")
        assert not mux.exists("/victim")
        with pytest.raises(FileNotFound):
            mux.getattr("/victim")

    def test_rename_file_invalidates_both_paths(self, stack):
        mux = stack.mux
        handle = mux.create("/old")
        mux.write(handle, 0, b"payload")
        mux.close(handle)
        mux.getattr("/old")  # cache the source
        assert not mux.exists("/new")  # cache a negative for the target
        mux.rename("/old", "/new")
        assert not mux.exists("/old")
        st = mux.getattr("/new")
        assert st.ino == handle.ino
        h2 = mux.open("/new", OpenFlags.RDONLY)
        assert mux.read(h2, 0, 7) == b"payload"
        mux.close(h2)

    def test_rename_directory_moves_children(self, stack):
        mux = stack.mux
        mux.mkdir("/srcdir")
        handle = mux.create("/srcdir/child")
        mux.close(handle)
        mux.getattr("/srcdir/child")  # cache a path under the dir
        mux.rename("/srcdir", "/dstdir")
        with pytest.raises(FileNotFound):
            mux.getattr("/srcdir/child")
        assert mux.getattr("/dstdir/child").ino == handle.ino

    def test_rmdir_drops_negative_entries_beneath(self, stack):
        mux = stack.mux
        mux.mkdir("/d")
        assert not mux.exists("/d/x")  # negative entry under /d
        mux.rmdir("/d")
        # rebuild the same name via a directory rename; the old negative
        # entry must not shadow the now-existing file
        mux.mkdir("/e")
        handle = mux.create("/e/x")
        mux.close(handle)
        mux.rename("/e", "/d")
        assert mux.exists("/d/x")
        assert mux.getattr("/d/x").ino == handle.ino

    def test_unnormalized_paths_share_entries(self, stack):
        mux = stack.mux
        handle = mux.create("/a")
        mux.close(handle)
        assert mux.getattr("//a/").ino == handle.ino
        mux.unlink("/a//")
        assert not mux.exists("/a")

    def test_remove_tier_clears_cache(self, stack):
        mux = stack.mux
        handle = mux.create("/kept")
        mux.write(handle, 0, b"z" * 4096)
        mux.close(handle)
        mux.getattr("/kept")
        assert len(mux.ns.dcache) > 0
        mux.remove_tier(stack.tier_id("hdd"))
        assert len(mux.ns.dcache) == 0
        # resolution still works and repopulates
        assert mux.getattr("/kept").ino == handle.ino
        assert len(mux.ns.dcache) > 0


class TestVfsMountMemoCoherence:
    def test_unmount_invalidates_resolve_memo(self, stack):
        vfs, mux = stack.vfs, stack.mux
        handle = mux.create("/f")
        mux.close(handle)
        assert vfs.getattr("/mux/f").ino == handle.ino  # memoize the route
        vfs.unmount("/mux")
        with pytest.raises(FileNotFound):
            vfs.getattr("/mux/f")
        vfs.mount("/mux", mux)
        assert vfs.getattr("/mux/f").ino == handle.ino

    def test_longest_prefix_wins_after_nested_mount(self, stack):
        vfs = stack.vfs
        # /tiers/pm is mounted under the /tiers hierarchy; resolution must
        # dispatch to the deepest mount even with the memo warm
        pm = stack.filesystems["pm"]
        handle = pm.create("/direct")
        pm.close(handle)
        assert vfs.exists("/tiers/pm/direct")
        assert vfs.getattr("/tiers/pm/direct").ino == handle.ino
