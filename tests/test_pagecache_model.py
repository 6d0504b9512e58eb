"""Differential test: the indexed PageCache against the scans it replaced.

``ScanCache`` below is the page cache as it was before the per-inode
indexes: one LRU table, every per-file answer recomputed by walking all of
it.  Random operation sequences drive both with the same write-back
outcomes; after every step they must agree on every observable (answers,
LRU order, counters, clock, write-back transcript) and the real cache's
two indexes must be exactly what a scan of its page table yields.  A fixed
tour through every index update rides the same harness, so removing any
single one fails deterministically.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given
from hypothesis import strategies as st

from repro.fscommon.pagecache import DRAM_PAGE_COPY_NS, PageCache
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet

PS = 4  # tiny pages: contents only need to be distinguishable
INOS = (1, 2, 3)
BLOCKS = 6  # first blocks drawn from [0, BLOCKS); spans reach up to END
END = BLOCKS + 4


class ScanCache:
    """Reference: no indexes, whole-table scans."""

    def __init__(self, capacity, writeback):
        self.capacity = capacity
        self.writeback = writeback
        self.pages = OrderedDict()  # (ino, fb) -> [data, dirty]
        self.stats = CounterSet()
        self.charged_ns = 0

    def get(self, ino, fb):
        page = self.pages.get((ino, fb))
        if page is None:
            self.stats.add("miss")
            return None
        self.pages.move_to_end((ino, fb))
        self.charged_ns += DRAM_PAGE_COPY_NS
        self.stats.add("hit")
        return page[0]

    def put_span(self, ino, first, data, dirty):
        count = len(data) // PS
        self.charged_ns += count * DRAM_PAGE_COPY_NS
        for i in range(count):
            key = (ino, first + i)
            block = data[i * PS : (i + 1) * PS]
            if key in self.pages:
                page = self.pages[key]
                page[0] = block
                page[1] = page[1] or dirty
                self.pages.move_to_end(key)
            else:
                self.pages[key] = [block, dirty]
                try:
                    self.evict()
                except Exception:
                    # a failed clean fill is undone; a dirty insert stays
                    if dirty or key not in self.pages:
                        self.stats.add("insert")
                    else:
                        del self.pages[key]
                    raise
                self.stats.add("insert")
                continue
            self.evict()

    def evict(self):
        attempts = len(self.pages)
        while len(self.pages) > self.capacity and attempts > 0:
            attempts -= 1
            key, page = self.pages.popitem(last=False)
            self.stats.add("evict")
            if page[1]:
                self.stats.add("evict_dirty")
                try:
                    kept = self.writeback(key[0], key[1], page[0]) is False
                except Exception:
                    self.pages[key] = page
                    self.pages.move_to_end(key, last=False)
                    raise
                if kept:
                    self.stats.add("evict_kept")
                    self.pages[key] = page

    def flush(self, ino=None):
        flushed = 0
        for key, page in list(self.pages.items()):
            if page[1] and ino in (None, key[0]):
                if self.writeback(key[0], key[1], page[0]) is False:
                    continue
                page[1] = False
                flushed += 1
        if ino is not None:
            self.stats.add("fsync_pages", flushed)
        return flushed

    def dirty_items(self, ino):
        return sorted(
            (key[1], page[0])
            for key, page in self.pages.items()
            if key[0] == ino and page[1]
        )

    def mark_clean(self, ino, fbs):
        for fb in fbs:
            if (ino, fb) in self.pages:
                self.pages[(ino, fb)][1] = False

    def invalidate(self, ino, lo, hi):
        for key in [k for k in self.pages if k[0] == ino and lo <= k[1] < hi]:
            del self.pages[key]


inos = st.sampled_from(INOS)
blocks = st.integers(0, BLOCKS - 1)
# weighted towards writes so the tiny cache stays full and mostly dirty:
# every eviction, flush and invalidation then has index entries to get wrong
dirty_flag = st.sampled_from([True, True, False])
put_span = st.tuples(st.just("put_span"), inos, blocks, st.integers(1, 4), dirty_flag)
ops = st.one_of(
    put_span,
    put_span,
    put_span,
    st.tuples(st.just("get"), inos, blocks),
    st.tuples(st.just("mark_clean"), inos, st.lists(blocks, min_size=1)),
    st.tuples(st.just("flush_inode"), inos),
    st.tuples(st.just("flush_all")),
    st.tuples(st.just("invalidate_inode"), inos),
    st.tuples(st.just("invalidate_range"), inos, blocks, st.integers(0, 2 * END)),
    st.tuples(st.just("invalidate_from"), inos, blocks),
    st.tuples(st.just("drop_clean")),
)
#: what the n-th write-back call does: succeed, refuse (keep the page
#: dirty), raise, or — like ext4's failure policy — mark the page clean
#: from inside the callback and let it go
outcomes = st.lists(
    st.sampled_from(["ok", "keep", "raise", "drop"]), min_size=1, max_size=12
)


def callback(transcript, outcome_list, mark_clean):
    def writeback(ino, fb, data):
        outcome = outcome_list[len(transcript) % len(outcome_list)]
        transcript.append((ino, fb, bytes(data), outcome))
        if outcome == "raise":
            raise OSError("injected")
        if outcome == "drop":
            mark_clean(ino, [fb])
        return False if outcome == "keep" else None

    return writeback


#: the reference's equivalent of each PageCache method (put/put_span aside)
REF_CALL = {
    "get": lambda ref, ino, fb: ref.get(ino, fb),
    "mark_clean": lambda ref, ino, fbs: ref.mark_clean(ino, fbs),
    "flush_inode": lambda ref, ino: ref.flush(ino),
    "flush_all": lambda ref: ref.flush(),
    "invalidate_inode": lambda ref, ino: ref.invalidate(ino, 0, END),
    "invalidate_range": lambda ref, ino, fb, n: ref.invalidate(ino, fb, fb + n),
    "invalidate_from": lambda ref, ino, fb: ref.invalidate(ino, fb, END),
    "drop_clean": lambda ref: ref.pages.clear(),
}


def apply(cache, ref, op, serial):
    """Run one op on both; returns the two (result-or-exception-type)s."""
    name, args = op[0], op[1:]
    if name == "put_span":
        ino, fb, count, dirty = args
        data = b"".join((serial * 8 + i).to_bytes(PS, "big") for i in range(count))
        put = cache.put if count == 1 else cache.put_span
        calls = (
            lambda: put(ino, fb, data, dirty),
            lambda: ref.put_span(ino, fb, data, dirty),
        )
    else:
        calls = (
            lambda: getattr(cache, name)(*args),
            lambda: REF_CALL[name](ref, *args),
        )
    results = []
    for call in calls:
        try:
            results.append(call())
        except OSError as exc:
            results.append(type(exc))
    return results


def run_both(capacity, steps, outcome_list):
    """Drive both caches through ``steps``, comparing after every one."""
    clock = SimClock()
    real_calls, ref_calls = [], []
    cache = PageCache(clock, capacity, PS, lambda *a: writeback(*a))
    writeback = callback(real_calls, outcome_list, cache.mark_clean)
    ref = ScanCache(capacity, lambda *a: ref_writeback(*a))
    ref_writeback = callback(ref_calls, outcome_list, ref.mark_clean)

    for serial, op in enumerate(steps):
        got, want = apply(cache, ref, op, serial)
        assert got == want, op
        assert real_calls == ref_calls, op
        # same pages in the same LRU order with the same contents and bits
        table = [(key, page.data, page.dirty) for key, page in cache._pages.items()]
        assert table == [(key, p[0], p[1]) for key, p in ref.pages.items()], op
        for ino in INOS:
            assert cache.dirty_items(ino) == ref.dirty_items(ino), op
            for fb in range(END):
                assert cache.contains(ino, fb) == ((ino, fb) in ref.pages), op
        assert cache.cached_pages == len(ref.pages), op
        assert cache.dirty_pages == sum(p[1] for p in ref.pages.values()), op
        assert cache.stats.snapshot() == ref.stats.snapshot(), op
        assert clock.now_ns == ref.charged_ns, op
        # the indexes are exactly a scan of the page table: no stale
        # block, no missing block, no empty set left behind
        cached, dirty = {}, {}
        for (ino, fb), page in cache._pages.items():
            cached.setdefault(ino, set()).add(fb)
            if page.dirty:
                dirty.setdefault(ino, set()).add(fb)
        assert cache._cached == cached, op
        assert cache._dirty == dirty, op


@given(
    capacity=st.integers(1, 6),
    steps=st.lists(ops, min_size=10, max_size=60),
    outcome_list=outcomes,
)
def test_indexed_cache_matches_the_scan_reference(capacity, steps, outcome_list):
    run_both(capacity, steps, outcome_list)


def test_every_index_update_is_visited():
    """A fixed tour through every place ``pagecache.py`` touches an index,
    so that deleting any one of them fails here whatever the random test
    happens to draw."""
    steps = [
        ("put_span", 1, 0, 1, False),  # clean insert
        ("put_span", 1, 0, 1, True),  # clean page overwritten dirty
        ("mark_clean", 1, [0]),  # last dirty block of the inode cleaned
        ("put_span", 2, 0, 1, True),  # dirty insert
        ("flush_inode", 2),  # write-back #0: ok
        ("put_span", 2, 0, 1, True),
        ("flush_all",),  # write-back #1: ok
        ("put_span", 1, 0, 1, True),
        ("put_span", 3, 0, 1, True),  # evicts clean (2, 0): inode 2 leaves the index
        ("put_span", 3, 1, 1, True),  # evicting (1, 0): write-back #2 raises
        ("put_span", 3, 1, 1, True),  # retry: #3 keeps (1, 0), #4 writes (3, 0)
        ("invalidate_range", 3, 1, 1),  # drops a dirty page
        ("put_span", 2, 5, 2, False),  # evicting (1, 0): write-back #5 ok
        ("invalidate_from", 2, 6),
        ("invalidate_inode", 2),
        ("put_span", 1, 0, 2, True),
        ("drop_clean",),
    ]
    run_both(2, steps, ["ok", "ok", "raise", "keep", "ok", "ok"])
