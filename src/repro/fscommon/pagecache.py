"""DRAM page cache used by the block-device file systems (XFS, Ext4).

The paper's §2.5 observes that "each file system may use DRAM as its page
cache [but] the cache cannot be shared across devices" — this class is that
per-file-system DRAM cache.  NOVA does not instantiate one (DAX bypasses
the page cache); Mux's *shared* SCM cache is a separate component built in
``repro.core.cache``.

Write-back semantics: dirty pages accumulate and are flushed on fsync or
when evicted by LRU pressure.  DRAM hits charge only a copy cost.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, List, Optional, Tuple

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
        self.stats = CounterSet()

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
        src = memoryview(data)
        self.clock.advance_ns(count * DRAM_PAGE_COPY_NS)
        for i in range(count):
            key = (ino, first_block + i)
            block = bytes(src[i * ps : (i + 1) * ps])
            existing = self._pages.get(key)
            if existing is not None:
                existing.data = block
                existing.dirty = existing.dirty or dirty
                self._pages.move_to_end(key)
            else:
                self._pages[key] = Page(block, dirty)
                self.stats.add("insert")
            self._evict_to_capacity()

    def _evict_to_capacity(self) -> None:
        # bound the scan so a cache full of unevictable pages (every
        # writeback refused under a keep-dirty policy) degrades to running
        # over capacity instead of livelocking
        attempts = len(self._pages)
        while len(self._pages) > self.capacity_pages and attempts > 0:
            attempts -= 1
            key, page = self._pages.popitem(last=False)
            self.stats.add("evict")
            if page.dirty:
                self.stats.add("evict_dirty")
                if self._writeback(key[0], key[1], page.data) is False:
                    # the FS kept the page dirty (failed write under a
                    # keep-dirty policy): reinsert at the MRU end and try
                    # the next victim
                    self.stats.add("evict_kept")
                    self._pages[key] = page

    # -- flushing ---------------------------------------------------------------

    def flush_inode(self, ino: int) -> int:
        """Write back all dirty pages of one inode; returns pages flushed."""
        flushed = 0
        for key, page in list(self._pages.items()):
            if key[0] == ino and page.dirty:
                if self._writeback(key[0], key[1], page.data) is False:
                    continue  # write refused; the page stays dirty
                page.dirty = False
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
                flushed += 1
        return flushed

    def dirty_items(self, ino: int) -> List[Tuple[int, bytes]]:
        """(file_block, data) for every dirty page of ``ino``, sorted.

        Used by the journaled file systems to batch writeback into large
        contiguous device writes instead of page-at-a-time callbacks.
        """
        items = [
            (key[1], page.data)
            for key, page in self._pages.items()
            if key[0] == ino and page.dirty
        ]
        items.sort()
        return items

    def mark_clean(self, ino: int, file_blocks: Iterable[int]) -> None:
        """Clear the dirty bit on specific pages after a batched writeback."""
        for fb in file_blocks:
            page = self._pages.get((ino, fb))
            if page is not None:
                page.dirty = False

    def invalidate_inode(self, ino: int) -> None:
        """Drop all pages of an inode (unlink/truncate); dirty pages are lost."""
        for key in [k for k in self._pages if k[0] == ino]:
            del self._pages[key]

    def invalidate_range(self, ino: int, first_block: int, count: int) -> None:
        """Drop pages of ``ino`` in [first_block, first_block+count)."""
        if count >= len(self._pages):
            keys = [
                k
                for k in self._pages
                if k[0] == ino and first_block <= k[1] < first_block + count
            ]
        else:
            keys = [
                (ino, fb)
                for fb in range(first_block, first_block + count)
                if (ino, fb) in self._pages
            ]
        for key in keys:
            del self._pages[key]

    def invalidate_from(self, ino: int, first_block: int) -> None:
        """Drop pages of ``ino`` at or beyond ``first_block`` (truncate)."""
        for key in [k for k in self._pages if k[0] == ino and k[1] >= first_block]:
            del self._pages[key]

    def drop_clean(self) -> None:
        """Drop every page, *dirty ones included* — the name is historical.

        ``crash()`` relies on exactly that (nothing volatile survives), so
        a caller that only wants cold reads must flush first.
        """
        self._pages.clear()

    # -- introspection ------------------------------------------------------------

    @property
    def cached_pages(self) -> int:
        return len(self._pages)

    @property
    def dirty_pages(self) -> int:
        return sum(1 for p in self._pages.values() if p.dirty)

    def hit_ratio(self) -> float:
        hits = self.stats.get("hit")
        total = hits + self.stats.get("miss")
        return hits / total if total else 0.0
