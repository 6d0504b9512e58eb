"""Unit tests for the DRAM page cache."""

import pytest

from repro.fscommon.pagecache import PageCache
from repro.sim.clock import SimClock

PAGE = 4096


@pytest.fixture
def cache_env():
    clock = SimClock()
    written = []

    def writeback(ino, fb, data):
        written.append((ino, fb, data))

    cache = PageCache(clock, capacity_pages=4, page_size=PAGE, writeback=writeback)
    return cache, written, clock


def page(tag: int) -> bytes:
    return bytes([tag]) * PAGE


class TestLookup:
    def test_miss(self, cache_env):
        cache, _, _ = cache_env
        assert cache.get(1, 0) is None
        assert cache.stats.get("miss") == 1

    def test_hit(self, cache_env):
        cache, _, _ = cache_env
        cache.put(1, 0, page(7), dirty=False)
        assert cache.get(1, 0) == page(7)
        assert cache.stats.get("hit") == 1

    def test_hit_charges_time(self, cache_env):
        cache, _, clock = cache_env
        cache.put(1, 0, page(7), dirty=False)
        t0 = clock.now_ns
        cache.get(1, 0)
        assert clock.now_ns > t0

    def test_wrong_size_rejected(self, cache_env):
        cache, _, _ = cache_env
        with pytest.raises(ValueError):
            cache.put(1, 0, b"tiny", dirty=False)

    def test_hit_ratio(self, cache_env):
        cache, _, _ = cache_env
        cache.put(1, 0, page(1), dirty=False)
        cache.get(1, 0)
        cache.get(1, 1)
        assert cache.hit_ratio() == pytest.approx(0.5)


class TestEviction:
    def test_lru_eviction_order(self, cache_env):
        cache, _, _ = cache_env
        for fb in range(4):
            cache.put(1, fb, page(fb), dirty=False)
        cache.get(1, 0)  # freshen block 0
        cache.put(1, 4, page(4), dirty=False)  # evicts block 1 (oldest)
        assert cache.contains(1, 0)
        assert not cache.contains(1, 1)

    def test_dirty_eviction_writes_back(self, cache_env):
        cache, written, _ = cache_env
        for fb in range(5):
            cache.put(1, fb, page(fb), dirty=True)
        assert written == [(1, 0, page(0))]

    def test_clean_eviction_silent(self, cache_env):
        cache, written, _ = cache_env
        for fb in range(5):
            cache.put(1, fb, page(fb), dirty=False)
        assert written == []

    def test_capacity_respected(self, cache_env):
        cache, _, _ = cache_env
        for fb in range(10):
            cache.put(1, fb, page(fb), dirty=False)
        assert cache.cached_pages == 4

    def test_failed_writeback_keeps_the_victim(self):
        """A callback that raises (a transient device error the caller
        retries) must not cost the dirty page it was asked to write."""
        written = []
        fail = [True]

        def writeback(ino, fb, data):
            if fail:
                fail.clear()
                raise OSError("transient")
            written.append((ino, fb, data))

        cache = PageCache(SimClock(), 4, PAGE, writeback)
        for fb in range(4):
            cache.put(1, fb, page(fb), dirty=True)
        with pytest.raises(OSError):
            cache.put(1, 4, page(4), dirty=True)  # evicting block 0 fails
        assert cache.contains(1, 0)
        assert (0, page(0)) in cache.dirty_items(1)
        assert cache.dirty_pages == 5
        assert written == []
        cache.put(1, 4, page(4), dirty=True)  # the retry evicts block 0 again
        assert written == [(1, 0, page(0))]
        assert not cache.contains(1, 0)
        assert cache.cached_pages == 4


class TestFlush:
    def test_flush_inode(self, cache_env):
        cache, written, _ = cache_env
        cache.put(1, 0, page(1), dirty=True)
        cache.put(2, 0, page(2), dirty=True)
        flushed = cache.flush_inode(1)
        assert flushed == 1
        assert written == [(1, 0, page(1))]
        assert cache.dirty_pages == 1  # ino 2 still dirty

    def test_flush_all(self, cache_env):
        cache, written, _ = cache_env
        cache.put(1, 0, page(1), dirty=True)
        cache.put(2, 0, page(2), dirty=True)
        assert cache.flush_all() == 2
        assert cache.dirty_pages == 0

    def test_flush_idempotent(self, cache_env):
        cache, written, _ = cache_env
        cache.put(1, 0, page(1), dirty=True)
        cache.flush_inode(1)
        cache.flush_inode(1)
        assert len(written) == 1

    def test_overwrite_keeps_dirty(self, cache_env):
        cache, _, _ = cache_env
        cache.put(1, 0, page(1), dirty=True)
        cache.put(1, 0, page(2), dirty=False)
        assert cache.dirty_pages == 1
        assert cache.get(1, 0) == page(2)


class TestInvalidation:
    def test_invalidate_inode(self, cache_env):
        cache, _, _ = cache_env
        cache.put(1, 0, page(1), dirty=True)
        cache.put(2, 0, page(2), dirty=False)
        cache.invalidate_inode(1)
        assert not cache.contains(1, 0)
        assert cache.contains(2, 0)

    def test_invalidate_range(self, cache_env):
        cache, _, _ = cache_env
        for fb in range(4):
            cache.put(1, fb, page(fb), dirty=False)
        cache.invalidate_range(1, 1, 2)
        assert cache.contains(1, 0)
        assert not cache.contains(1, 1)
        assert not cache.contains(1, 2)
        assert cache.contains(1, 3)

    def test_invalidate_from(self, cache_env):
        cache, _, _ = cache_env
        for fb in range(4):
            cache.put(1, fb, page(fb), dirty=False)
        cache.invalidate_from(1, 2)
        assert cache.contains(1, 1)
        assert not cache.contains(1, 3)

    def test_drop_clean_drops_everything(self, cache_env):
        cache, _, _ = cache_env
        cache.put(1, 0, page(1), dirty=True)
        cache.drop_clean()
        assert cache.cached_pages == 0


class TestBatchHelpers:
    def test_dirty_items_sorted(self, cache_env):
        cache, _, _ = cache_env
        cache.put(1, 3, page(3), dirty=True)
        cache.put(1, 1, page(1), dirty=True)
        cache.put(1, 2, page(2), dirty=False)
        assert [fb for fb, _ in cache.dirty_items(1)] == [1, 3]

    def test_mark_clean(self, cache_env):
        cache, _, _ = cache_env
        cache.put(1, 0, page(0), dirty=True)
        cache.put(1, 1, page(1), dirty=True)
        cache.mark_clean(1, [0])
        assert [fb for fb, _ in cache.dirty_items(1)] == [1]

    def test_dirty_run_stops_at_the_first_block_not_cached_dirty(self, cache_env):
        cache, _, clock = cache_env
        cache.put(1, 1, page(1), dirty=True)
        cache.put(1, 2, page(2), dirty=True)
        cache.put(1, 3, page(3), dirty=False)
        cache.put(2, 4, page(4), dirty=True)
        before = (clock.now_ns, cache.stats.get("hit"))
        assert cache.dirty_run(1, 1) == [(1, page(1)), (2, page(2))]
        assert cache.dirty_run(1, 3) == []
        assert cache.dirty_run(1, 4) == []  # block 4 is another inode's
        assert cache.dirty_run(3, 0) == []
        assert (clock.now_ns, cache.stats.get("hit")) == before

    def test_written_back_cleans_and_counts_the_run(self, cache_env):
        cache, _, _ = cache_env
        cache.put(1, 1, page(1), dirty=True)
        cache.put(1, 2, page(2), dirty=True)
        cache.written_back(1, [0, 1])  # block 0, the victim, left the cache
        assert [fb for fb, _ in cache.dirty_items(1)] == [2]
        assert (cache.stats.get("wb_runs"), cache.stats.get("wb_blocks")) == (1, 2)
