"""DRAM page cache used by the block-device file systems (XFS, Ext4).

The paper's §2.5 observes that "each file system may use DRAM as its page
cache [but] the cache cannot be shared across devices" — this class is that
per-file-system DRAM cache.  NOVA does not instantiate one (DAX bypasses
the page cache); Mux's *shared* SCM cache is a separate component built in
``repro.core.cache``.

Write-back semantics: dirty pages accumulate until fsync writes them, or
until LRU pressure evicts one.  An evicted dirty page goes to the file
system's write-back callback, which (like the kernel's flusher) may write
it together with the dirty pages that follow it in its file, via
:meth:`PageCache.dirty_run` and :meth:`PageCache.written_back`.  DRAM hits
charge only a copy cost.

Beside the LRU-ordered page table the cache keeps two per-inode indexes so
that an fsync, unlink or truncate costs what that file has cached or dirty,
not what the whole cache holds:

* ``_cached[ino]`` is exactly the set of file blocks ``fb`` with
  ``(ino, fb)`` in the page table;
* ``_dirty[ino]`` is exactly the subset of those whose page has its dirty
  bit set (dirty ⊆ cached = keys of the page table);
* neither index ever holds an empty set.

Every place a page appears, disappears or changes its dirty bit updates
them.  They are host-side bookkeeping only: no index operation charges the
clock, touches LRU order or bumps a counter, so simulated results do not
depend on them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet

#: Cost of copying one 4 KiB page from DRAM (~10 GB/s effective + lookup).
DRAM_PAGE_COPY_NS = 400

PageKey = Tuple[int, int]  # (ino, file block index)
#: (ino, file_block, data) -> keep?  A ``False`` return means the write
#: failed under a keep-dirty policy and the page must stay cached; any
#: other return (including None) lets the cache dispose of the page.
WritebackFn = Callable[[int, int, bytes], Optional[bool]]


class Page:
    __slots__ = ("data", "dirty")

    def __init__(self, data: bytes, dirty: bool) -> None:
        self.data = data
        self.dirty = dirty


class PageCache:
    """Fixed-capacity LRU write-back page cache."""

    def __init__(
        self,
        clock: SimClock,
        capacity_pages: int,
        page_size: int,
        writeback: WritebackFn,
    ) -> None:
        if capacity_pages <= 0:
            raise ValueError("page cache needs positive capacity")
        self.clock = clock
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self._writeback = writeback
        self._pages: "OrderedDict[PageKey, Page]" = OrderedDict()
        #: ino -> file blocks in the page table / with the dirty bit set
        self._cached: Dict[int, Set[int]] = {}
        self._dirty: Dict[int, Set[int]] = {}
        self.stats = CounterSet()

    # -- index maintenance ---------------------------------------------------

    def _insert(self, key: PageKey, page: Page) -> None:
        """Add an absent page at the MRU end and index it."""
        self._pages[key] = page
        ino, fb = key
        cached = self._cached.get(ino)
        if cached is None:
            cached = self._cached[ino] = set()
        cached.add(fb)
        if page.dirty:
            self._index_dirty(ino, fb)

    def _index_dirty(self, ino: int, fb: int) -> None:
        dirty = self._dirty.get(ino)
        if dirty is None:
            dirty = self._dirty[ino] = set()
        dirty.add(fb)

    def _unindex_dirty(self, ino: int, file_blocks: Iterable[int]) -> None:
        dirty = self._dirty.get(ino)
        if dirty is not None:
            dirty.difference_update(file_blocks)
            if not dirty:
                del self._dirty[ino]

    def _unindex(self, ino: int, file_blocks: Iterable[int]) -> None:
        """Forget cached pages of ``ino`` that just left the page table."""
        cached = self._cached[ino]
        cached.difference_update(file_blocks)
        if not cached:
            del self._cached[ino]
        self._unindex_dirty(ino, file_blocks)

    def _drop(self, ino: int, file_blocks: List[int]) -> None:
        """Remove cached pages of ``ino`` from the table and both indexes."""
        if file_blocks:
            for fb in file_blocks:
                del self._pages[(ino, fb)]
            self._unindex(ino, file_blocks)

    # -- lookup ------------------------------------------------------------

    def get(self, ino: int, file_block: int) -> Optional[bytes]:
        """Cached page contents or None; a hit charges the DRAM copy cost."""
        key = (ino, file_block)
        page = self._pages.get(key)
        if page is None:
            self.stats.add("miss")
            return None
        self._pages.move_to_end(key)
        self.clock.advance_ns(DRAM_PAGE_COPY_NS)
        self.stats.add("hit")
        return page.data

    def contains(self, ino: int, file_block: int) -> bool:
        return (ino, file_block) in self._pages

    def span_cached(self, ino: int, first_block: int, count: int) -> int:
        """Length of the contiguous cached prefix of the span (no charges)."""
        pages = self._pages
        n = 0
        while n < count and (ino, first_block + n) in pages:
            n += 1
        return n

    def span_uncached(self, ino: int, first_block: int, count: int) -> int:
        """Length of the contiguous *uncached* prefix of the span (no charges)."""
        pages = self._pages
        n = 0
        while n < count and (ino, first_block + n) not in pages:
            n += 1
        return n

    def get_span(
        self, ino: int, first_block: int, count: int, out: bytearray, out_off: int
    ) -> None:
        """Copy ``count`` consecutive cached pages into ``out``.

        Every page must be cached (check with :meth:`span_cached` first).
        Timing-equivalent to ``count`` :meth:`get` calls — same LRU touch
        order, same hit stats, same total copy cost — but one clock charge
        and one slice copy per page instead of per-call overhead.
        """
        if count <= 0:
            return
        pages = self._pages
        ps = self.page_size
        pos = out_off
        for i in range(count):
            key = (ino, first_block + i)
            page = pages[key]
            pages.move_to_end(key)
            out[pos : pos + ps] = page.data
            pos += ps
        self.clock.advance_ns(count * DRAM_PAGE_COPY_NS)
        self.stats.add("hit", count)

    # -- insert / update -------------------------------------------------------

    def put(self, ino: int, file_block: int, data: bytes, dirty: bool) -> None:
        """Insert or overwrite a page; may trigger LRU eviction."""
        if len(data) != self.page_size:
            raise ValueError(
                f"page must be exactly {self.page_size} bytes, got {len(data)}"
            )
        self.put_span(ino, file_block, data, dirty)

    def put_span(self, ino: int, first_block: int, data, dirty: bool) -> None:
        """Insert consecutive pages from block-aligned ``data``.

        Inserts happen in ascending order with the eviction check after
        each insert, so the LRU victim sequence is that of one :meth:`put`
        per page; the copy cost is charged in one clock advance.
        """
        ps = self.page_size
        if len(data) == 0 or len(data) % ps:
            raise ValueError(
                f"span must be a positive multiple of {ps} bytes, got {len(data)}"
            )
        count = len(data) // ps
        if count == 1:
            # one page (every ``put``): no view, no slicing
            blocks = (bytes(data),)
        else:
            src = memoryview(data)
            blocks = [bytes(src[i * ps : (i + 1) * ps]) for i in range(count)]
        pages = self._pages
        capacity = self.capacity_pages
        inserted = 0
        self.clock.advance_ns(count * DRAM_PAGE_COPY_NS)
        try:
            for fb, block in enumerate(blocks, first_block):
                key = (ino, fb)
                existing = pages.get(key)
                if existing is not None:
                    existing.data = block
                    if dirty and not existing.dirty:
                        existing.dirty = True
                        self._index_dirty(ino, fb)
                    pages.move_to_end(key)
                else:
                    self._insert(key, Page(block, dirty))
                    inserted += 1
                if len(pages) > capacity:
                    try:
                        self._evict_to_capacity()
                    except BaseException:
                        if existing is None and not dirty and key in pages:
                            # a failed fill leaves the cache as it found
                            # it: the retried read misses and evicts
                            # again.  A new dirty page stays (its bytes
                            # are cached nowhere else); the retried write
                            # finds it and evicts the cache back to size
                            self._drop(ino, [fb])
                            inserted -= 1
                        raise
        finally:
            # counted once, also when an eviction's write-back raised
            if inserted:
                self.stats.add("insert", inserted)

    def _evict_to_capacity(self) -> None:
        # bound the scan so a cache full of unevictable pages (every
        # writeback refused under a keep-dirty policy) degrades to running
        # over capacity instead of livelocking
        pages = self._pages
        attempts = len(pages)
        while len(pages) > self.capacity_pages and attempts > 0:
            attempts -= 1
            key, page = pages.popitem(last=False)
            ino, fb = key
            cached = self._cached[ino]
            cached.discard(fb)
            if not cached:
                del self._cached[ino]
            if page.dirty:
                self._unindex_dirty(ino, (fb,))
            self.stats.add("evict")
            if page.dirty:
                self.stats.add("evict_dirty")
                try:
                    kept = self._writeback(ino, fb, page.data) is False
                except BaseException:
                    # the write never happened (e.g. a transient device
                    # error the caller will retry): the victim goes back
                    # to the LRU end it came from, still dirty, so the
                    # retried operation evicts and writes it again
                    self._insert(key, page)
                    pages.move_to_end(key, last=False)
                    raise
                if kept:
                    # the FS kept the page dirty (failed write under a
                    # keep-dirty policy): reinsert at the MRU end and try
                    # the next victim
                    self.stats.add("evict_kept")
                    self._insert(key, page)

    # -- flushing ---------------------------------------------------------------

    def flush_inode(self, ino: int) -> int:
        """Write back all dirty pages of one inode; returns pages flushed."""
        flushed = 0
        # visits in LRU order, which only the page table knows
        for key, page in list(self._pages.items()):
            if key[0] == ino and page.dirty:
                if self._writeback(key[0], key[1], page.data) is False:
                    continue  # write refused; the page stays dirty
                page.dirty = False
                self._unindex_dirty(ino, (key[1],))
                flushed += 1
        self.stats.add("fsync_pages", flushed)
        return flushed

    def flush_all(self) -> int:
        """Write back every dirty page."""
        flushed = 0
        for key, page in self._pages.items():
            if page.dirty:
                if self._writeback(key[0], key[1], page.data) is False:
                    continue  # write refused; the page stays dirty
                page.dirty = False
                self._unindex_dirty(key[0], (key[1],))
                flushed += 1
        return flushed

    def dirty_items(self, ino: int) -> List[Tuple[int, bytes]]:
        """(file_block, data) for every dirty page of ``ino``, sorted.

        Used by the journaled file systems to batch writeback into large
        contiguous device writes instead of page-at-a-time callbacks.
        """
        pages = self._pages
        return [(fb, pages[(ino, fb)].data) for fb in sorted(self._dirty.get(ino, ()))]

    def dirty_run(self, ino: int, first_block: int) -> List[Tuple[int, bytes]]:
        """(file_block, data) of the dirty pages of ``ino`` from
        ``first_block`` on, up to the first block that is not cached dirty.

        No charges, no LRU touch: an eviction write-back uses it to take a
        victim's dirty followers along in one run.
        """
        dirty = self._dirty.get(ino)
        run: List[Tuple[int, bytes]] = []
        if dirty:
            pages = self._pages
            fb = first_block
            while fb in dirty:
                run.append((fb, pages[(ino, fb)].data))
                fb += 1
        return run

    def written_back(self, ino: int, file_blocks: List[int]) -> None:
        """One eviction write-back run landed ``file_blocks`` of ``ino``:
        those still cached turn clean, and the run is counted."""
        self.mark_clean(ino, file_blocks)
        self.stats.add("wb_runs")
        self.stats.add("wb_blocks", len(file_blocks))

    def mark_clean(self, ino: int, file_blocks: Iterable[int]) -> None:
        """Clear the dirty bit on specific pages after a batched writeback."""
        dirty = self._dirty.get(ino)
        if dirty is None:
            return
        cleaned = [fb for fb in file_blocks if fb in dirty]
        for fb in cleaned:
            self._pages[(ino, fb)].dirty = False
        self._unindex_dirty(ino, cleaned)

    def invalidate_inode(self, ino: int) -> None:
        """Drop all pages of an inode (unlink/truncate); dirty pages are lost."""
        self._drop(ino, list(self._cached.get(ino, ())))

    def invalidate_range(self, ino: int, first_block: int, count: int) -> None:
        """Drop pages of ``ino`` in [first_block, first_block+count)."""
        cached = self._cached.get(ino, ())
        end = first_block + count
        if count >= len(cached):
            blocks = [fb for fb in cached if first_block <= fb < end]
        else:
            blocks = [fb for fb in range(first_block, end) if fb in cached]
        self._drop(ino, blocks)

    def invalidate_from(self, ino: int, first_block: int) -> None:
        """Drop pages of ``ino`` at or beyond ``first_block`` (truncate)."""
        self._drop(
            ino, [fb for fb in self._cached.get(ino, ()) if fb >= first_block]
        )

    def drop_clean(self) -> None:
        """Drop every page, *dirty ones included* — the name is historical.

        ``crash()`` relies on exactly that (nothing volatile survives), so
        a caller that only wants cold reads must flush first.
        """
        self._pages.clear()
        self._cached.clear()
        self._dirty.clear()

    # -- introspection ------------------------------------------------------------

    @property
    def cached_pages(self) -> int:
        return len(self._pages)

    @property
    def dirty_pages(self) -> int:
        return sum(len(blocks) for blocks in self._dirty.values())

    def hit_ratio(self) -> float:
        hits = self.stats.get("hit")
        total = hits + self.stats.get("miss")
        return hits / total if total else 0.0
