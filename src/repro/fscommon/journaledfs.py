"""Base class for the journaled block-device file systems (XFS, Ext4).

Implements ordered-mode write-ahead journaling over the shared
:class:`~repro.fscommon.basefs.NativeFileSystem` skeleton:

* namespace changes (create/unlink/rename/mkdir/...) commit a journal
  transaction immediately;
* data-path metadata (extent mappings, size, mtime) is buffered per inode
  and committed at ``fsync`` — *after* the data pages have been written to
  the device (the "ordered" contract);
* the durable :class:`~repro.fscommon.metastore.MetaStore` only advances at
  journal checkpoint or crash recovery, so crash tests exercise the real
  write-ahead semantics.

Subclasses choose the allocator (single bitmap vs allocation groups) and
whether allocation is delayed to writeback (XFS) or performed at write time
(Ext4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

from repro.devices.base import Device
from repro.errors import DeviceIoError, NoSpace
from repro.fscommon.basefs import MetaRecord, NativeFileSystem
from repro.fscommon.inode import Inode, InodeTable
from repro.fscommon.journal import Journal, JournalFull
from repro.fscommon.metastore import MetaStore
from repro.fscommon.pagecache import PageCache
from repro.sim.clock import SimClock
from repro.vfs.stat import FileType


def _block_runs(blocks: List[int]) -> List[Tuple[int, int]]:
    """Compress a sorted block list into ``(start, count)`` runs."""
    runs: List[Tuple[int, int]] = []
    for fb in blocks:
        if runs and fb == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((fb, 1))
    return runs


def _unlanded(file_blocks: List[int], landed: List[int]) -> List[int]:
    """``file_blocks`` (in their order) minus those in ``landed``."""
    done = set(landed)
    return [fb for fb in file_blocks if fb not in done]


class Allocator(Protocol):
    """What the journaled FS needs from its block allocator."""

    free_blocks: int

    def alloc_extent(self, count: int, hint: Optional[int] = None) -> List[Tuple[int, int]]: ...

    def free_run(self, start: int, count: int = 1) -> None: ...

    def mark_allocated(self, start: int, count: int) -> None: ...


class JournaledFileSystem(NativeFileSystem):
    """Ordered-mode journaling file system over a block device."""

    #: fraction of the device reserved for the journal
    journal_fraction: float = 0.01
    #: minimum journal size in blocks
    journal_min_blocks: int = 64
    #: does allocation wait until writeback (XFS delayed allocation)?
    delayed_allocation: bool = False
    #: page cache capacity as a fraction of device blocks
    page_cache_fraction: float = 0.1
    #: hard cap on page-cache pages (models limited DRAM per FS)
    page_cache_max_pages: int = 16384
    #: what happens to dirty pages when writeback hits a *persistent*
    #: device error (transient faults keep propagating so the tier-level
    #: retry machinery handles them): "clean" marks the pages clean and
    #: forgets them — ext4's infamous failed-fsync behavior, the data is
    #: silently gone and only the errseq/fsck record remains; "keep"
    #: leaves them dirty so later fsyncs retry, bounded by
    #: ``wb_retry_limit`` (XFS), after which they too are dropped
    wb_failure_policy: str = "clean"
    #: failed-writeback retries per inode under the "keep" policy
    wb_retry_limit: int = 3

    def __init__(self, fs_name: str, device: Device, clock: SimClock) -> None:
        super().__init__(fs_name, device, clock)
        journal_blocks = max(
            self.journal_min_blocks, int(device.num_blocks * self.journal_fraction)
        )
        if journal_blocks >= device.num_blocks:
            raise ValueError("device too small for its journal")
        self.journal = Journal(device, 0, journal_blocks)
        self._data_base = journal_blocks
        self._data_blocks = device.num_blocks - journal_blocks
        self.allocator: Allocator = self._make_allocator(
            self._data_base, self._data_blocks
        )
        cache_pages = min(
            self.page_cache_max_pages,
            max(64, int(device.num_blocks * self.page_cache_fraction)),
        )
        self.page_cache = PageCache(
            clock, cache_pages, self.block_size, self._writeback_page
        )
        #: durable metadata (advances only at checkpoint/recovery)
        self._meta = MetaStore()
        self._meta.format(clock.now())
        #: data-path records not yet committed, per inode
        self._pending_data: Dict[int, List[MetaRecord]] = {}
        #: delayed-allocation blocks: ino -> set of unmapped dirty file blocks
        self._delalloc: Dict[int, set] = {}
        #: sequential-read detector: ino -> (last file block read, window)
        self._readahead: Dict[int, Tuple[int, int]] = {}
        #: speculative blocks fetched on background time (gauge for traces)
        self.readahead_bg_blocks = 0
        #: failed-writeback retry counts per inode (the "keep" policy bound)
        self._wb_retries: Dict[int, int] = {}
        #: ino -> completion time of its latest eviction write-back run,
        #: which fsync and sync wait for (the kernel's filemap_fdatawait)
        self._wb_done: Dict[int, int] = {}

    #: maximum readahead window in blocks (Linux default: 128 KiB)
    readahead_max_blocks: int = 32

    #: issue the speculative readahead tail on a background clock frame
    #: (reserved device channels) so it overlaps the demand read instead
    #: of serializing after it.  Off by default: the foreground window
    #: model stays bit-identical unless a stack opts in.
    readahead_background: bool = False

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------

    def _make_allocator(self, base: int, count: int) -> Allocator:
        raise NotImplementedError

    def _total_data_blocks(self) -> int:
        return self._data_blocks

    def _free_data_blocks(self) -> int:
        return self.allocator.free_blocks

    # ------------------------------------------------------------------
    # metadata durability
    # ------------------------------------------------------------------

    def _commit_txn(self, records: List[MetaRecord]) -> None:
        if not records:
            return
        txn = self.journal.begin()
        for kind, fields in records:
            txn.add(kind, **fields)
        try:
            txn.commit()
        except JournalFull:
            self.checkpoint()
            retry = self.journal.begin()
            for kind, fields in records:
                retry.add(kind, **fields)
            retry.commit()

    def _record_namespace(self, records: List[MetaRecord]) -> None:
        # an inode being freed must not leave buffered data-path records
        # behind: they would commit *after* its free_inode record and
        # corrupt checkpoint replay (and its cached pages are dead weight)
        for kind, fields in records:
            if kind == "free_inode":
                ino = int(fields["ino"])  # type: ignore[arg-type]
                self._pending_data.pop(ino, None)
                self._delalloc.pop(ino, None)
                self._readahead.pop(ino, None)
                self._wb_retries.pop(ino, None)
                self._wb_done.pop(ino, None)
                self._wb.forget(ino)
                self.page_cache.invalidate_inode(ino)
        self._commit_txn(records)

    def _record_data_meta(self, inode: Inode, records: List[MetaRecord]) -> None:
        self._pending_data.setdefault(inode.ino, []).extend(records)

    def checkpoint(self) -> int:
        """Apply committed journal transactions to the durable metadata."""
        return self.journal.checkpoint(self._meta.apply)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def _readahead_window(self, ino: int, file_block: int) -> int:
        """Sequential-pattern detector: double the window on consecutive
        reads (like the kernel's readahead ramp-up), reset on random ones."""
        last, window = self._readahead.get(ino, (-2, 0))
        if file_block == last + 1:
            window = min(self.readahead_max_blocks, max(4, window * 2))
        else:
            window = 1
        self._readahead[ino] = (file_block, window)
        return window

    def _read_block(self, inode: Inode, file_block: int) -> Optional[bytes]:
        window = self._readahead_window(inode.ino, file_block)
        cached = self.page_cache.get(inode.ino, file_block)
        if cached is not None:
            return cached
        # extend the read over device-contiguous, uncached blocks up to the
        # readahead window: one large device access instead of many small
        runs = inode.blockmap.runs(file_block, window)
        _, count, dev_block = next(runs)
        if dev_block is None:
            return None
        for _, run, dev in runs:
            if dev != dev_block + count:
                break
            count += run
        count = 1 + self.page_cache.span_uncached(inode.ino, file_block + 1, count - 1)
        if self.readahead_background and count > 1:
            # demand block foreground; the speculative tail rides a
            # background frame against the device's reserved channels, so
            # the user op completes without paying for the prefetch.  The
            # frame cursor is discarded — speculation meets the foreground
            # only through device-channel contention, like any background
            # work — but the pages land in the cache immediately (state
            # mutations stay in program order).
            bs = self.block_size
            data = self.device.read_blocks(dev_block, 1)
            self.page_cache.put(inode.ino, file_block, data[:bs], dirty=False)
            self.clock.push_frame(background=True)
            try:
                tail = self.device.read_blocks(dev_block + 1, count - 1)
                for i in range(count - 1):
                    chunk = tail[i * bs : (i + 1) * bs]
                    self.page_cache.put(
                        inode.ino, file_block + 1 + i, chunk, dirty=False
                    )
            finally:
                self.clock.pop_frame()
            self.readahead_bg_blocks += count - 1
            return data[:bs]
        data = self.device.read_blocks(dev_block, count)
        for i in range(count):
            chunk = data[i * self.block_size : (i + 1) * self.block_size]
            self.page_cache.put(inode.ino, file_block + i, chunk, dirty=False)
        return data[: self.block_size]

    def _read_span_into(
        self, inode: Inode, offset: int, length: int, out: bytearray, out_off: int
    ) -> None:
        """Span read: runs of whole-block page-cache hits copy out in one
        :meth:`PageCache.get_span`; everything else (misses, which go
        through the readahead ramp, and partial edge blocks) falls back to
        the per-block path.  The readahead window still advances once per
        file block, exactly as the scalar loop would."""
        bs = self.block_size
        pos = offset
        end = offset + length
        dst = out_off
        while pos < end:
            fb, block_off = divmod(pos, bs)
            take = min(end - pos, bs - block_off)
            if block_off == 0 and take == bs:
                span = self.page_cache.span_cached(inode.ino, fb, (end - pos) // bs)
                if span:
                    for i in range(span):
                        self._readahead_window(inode.ino, fb + i)
                    self.page_cache.get_span(inode.ino, fb, span, out, dst)
                    pos += span * bs
                    dst += span * bs
                    continue
            block = self._read_block(inode, fb)
            if block is None:
                out[dst : dst + take] = bytes(take)
            else:
                out[dst : dst + take] = block[block_off : block_off + take]
            pos += take
            dst += take

    def _write_span(self, inode: Inode, offset: int, data: bytes) -> None:
        bs = self.block_size
        pos = offset
        idx = 0
        n = len(data)
        src = memoryview(data)
        dirtied: List[int] = []
        while idx < n:
            fb, block_off = divmod(pos, bs)
            take = min(n - idx, bs - block_off)
            if block_off == 0 and take == bs:
                # run of whole-block overwrites: batch into the page cache
                run = (n - idx) // bs
                self.page_cache.put_span(
                    inode.ino, fb, src[idx : idx + run * bs], dirty=True
                )
                dirtied.extend(range(fb, fb + run))
                pos += run * bs
                idx += run * bs
                continue
            base = self._read_block(inode, fb)
            page = bytearray(base if base is not None else bytes(bs))
            page[block_off : block_off + take] = src[idx : idx + take]
            self.page_cache.put(inode.ino, fb, bytes(page), dirty=True)
            dirtied.append(fb)
            pos += take
            idx += take
        if self.delayed_allocation:
            mapped = inode.blockmap.lookup_ascending(dirtied)
            self._delalloc.setdefault(inode.ino, set()).update(
                fb for fb, dev in zip(dirtied, mapped) if dev is None
            )
        else:
            self._allocate_for(inode, dirtied)

    def _allocate_for(self, inode: Inode, file_blocks: List[int]) -> None:
        """Map any unmapped blocks in ``file_blocks`` (ascending), preferring
        contiguity."""
        mapped = inode.blockmap.lookup_ascending(file_blocks)
        unmapped = [fb for fb, dev in zip(file_blocks, mapped) if dev is None]
        if not unmapped:
            return
        # group consecutive file blocks into spans, allocate per span
        spans: List[Tuple[int, int]] = []
        start = unmapped[0]
        run = 1
        for fb in unmapped[1:]:
            if fb == start + run:
                run += 1
            else:
                spans.append((start, run))
                start, run = fb, 1
        spans.append((start, run))
        for span_start, span_len in spans:
            hint = self._alloc_hint(inode, span_start)
            runs = self.allocator.alloc_extent(span_len, hint)
            fb = span_start
            for dev_start, got in runs:
                inode.blockmap.map_range(fb, got, dev_start)
                inode.allocated_blocks += got
                self._record_data_meta(
                    inode,
                    [
                        (
                            "map_extent",
                            {
                                "ino": inode.ino,
                                "start": fb,
                                "count": got,
                                "dev": dev_start,
                            },
                        )
                    ],
                )
                fb += got

    def _alloc_hint(self, inode: Inode, file_block: int) -> Optional[int]:
        """Hint: place new blocks right after the previous file block's home."""
        if file_block == 0:
            return None
        prev = inode.blockmap.lookup(file_block - 1)
        return None if prev is None else prev + 1

    def _writeback_page(self, ino: int, file_block: int, data: bytes) -> Optional[bool]:
        """Eviction-path writeback of a dirty victim, on the flusher's time.

        As in the kernel, reclaim does not write the victim inside the op
        that evicts it.  The victim and the dirty pages that follow it
        contiguously in its file are allocated in one call and written
        through :meth:`_write_pages` on a background clock frame, so the
        evicting op meets that write only as device contention.  The bytes
        reach the device here, in program order, so crash states keep their
        meaning; the followers stay cached, clean.  The run's completion
        time is kept per inode: fsync and sync wait for it, as the kernel
        waits for pages under writeback.

        Returns ``False`` when the victim must stay cached (its write failed
        persistently under the keep-dirty policy); any other return lets the
        eviction proceed.  Transient errors propagate with every page still
        dirty: the caller's retry machinery owns those.
        """
        inode = self.inodes.maybe_get(ino)
        if inode is None:
            return None  # inode went away; the page is stale
        pages = [(file_block, data)] + self.page_cache.dirty_run(ino, file_block + 1)
        fbs = [fb for fb, _ in pages]
        self._allocate_for(inode, fbs)
        marks = self._delalloc.get(ino)
        if marks is not None:
            marks.difference_update(fbs)
            if not marks:
                del self._delalloc[ino]
        landed: List[int] = []
        failed: List[int] = []
        self.clock.push_frame(background=True)
        try:
            self._write_pages(inode, pages, landed)
        except DeviceIoError as exc:
            if exc.transient:
                raise
            failed = _unlanded(fbs, landed)
        finally:
            done = self.clock.pop_frame()
            if done > self._wb_done.get(ino, -1):
                self._wb_done[ino] = done
        if landed:
            self.page_cache.written_back(ino, landed)
        if failed and self._apply_wb_failure_policy(ino, failed):
            # kept dirty; a failed victim (the run's first page) goes back
            return False if failed[0] == file_block else None
        return None

    def _apply_wb_failure_policy(self, ino: int, failed_blocks: List[int]) -> bool:
        """Dispose of dirty pages a persistent write error left behind.

        Returns True when the pages were kept dirty for a bounded retry
        (XFS), False when they were marked clean and forgotten (ext4, or
        XFS past its retry bound) — in which case the lost intervals are
        latched for fsck alongside the errseq bump.
        """
        if self.wb_failure_policy == "keep":
            tries = self._wb_retries.get(ino, 0) + 1
            self._wb_retries[ino] = tries
            if tries <= self.wb_retry_limit:
                self._note_writeback_error(ino)
                self.stats.add("wb_kept_dirty", len(failed_blocks))
                return True
            self._wb_retries.pop(ino, None)
        self.page_cache.mark_clean(ino, failed_blocks)
        self._note_writeback_error(ino, lost=_block_runs(failed_blocks))
        self.stats.add("wb_dropped", len(failed_blocks))
        return False

    def _flush_inode_data(self, inode: Inode) -> None:
        """Write every dirty page of ``inode`` through :meth:`_write_pages`."""
        dirty = self.page_cache.dirty_items(inode.ino)
        if not dirty:
            return
        self._allocate_for(inode, [fb for fb, _ in dirty])
        self._delalloc.pop(inode.ino, None)
        landed: List[int] = []
        try:
            self._write_pages(inode, dirty, landed)
        except DeviceIoError as exc:
            # transient errors leave every page dirty and propagate, so
            # the tier-level retry loop re-drives the whole flush exactly
            # as before; a persistent error is final — batches that landed
            # are clean, the rest go to the per-FS failure policy
            if not exc.transient:
                self.page_cache.mark_clean(inode.ino, landed)
                self._apply_wb_failure_policy(
                    inode.ino, _unlanded([fb for fb, _ in dirty], landed)
                )
            raise
        self.page_cache.mark_clean(inode.ino, landed)
        self._wb_retries.pop(inode.ino, None)

    def _write_pages(
        self, inode: Inode, pages: List[Tuple[int, bytes]], landed: List[int]
    ) -> None:
        """Write mapped dirty pages ``(file_block, data)`` (ascending) with
        batched device writes, appending each batch's file blocks to
        ``landed`` once it is on the device.

        Writeback is elevator-ordered: pages are sorted by *device* block
        (not file offset) and adjacent device blocks are merged into one
        write, modeling the kernel's request-queue sorting.  This is what
        lets a page cache turn random small writes into near-sequential
        disk I/O.  A device error propagates to the caller.
        """
        fbs = [fb for fb, _ in pages]
        by_dev = sorted(
            zip(inode.blockmap.lookup_ascending(fbs), fbs, (d for _, d in pages))
        )
        i, n = 0, len(by_dev)
        while i < n:
            j = i + 1
            while j < n and by_dev[j][0] == by_dev[j - 1][0] + 1:
                j += 1
            self.device.write_blocks(
                by_dev[i][0], b"".join(d for _, _, d in by_dev[i:j])
            )
            landed.extend(fb for _, fb, _ in by_dev[i:j])
            i = j

    def _fsync_inode(self, inode: Inode) -> None:
        # ordered mode: data reaches the device before metadata commits,
        # including an eviction run still in flight on background time
        self._flush_inode_data(inode)
        done = self._wb_done.get(inode.ino)
        if done is not None:
            self.clock.advance_to(done)
        records = self._pending_data.pop(inode.ino, [])
        try:
            self._commit_txn(records)
        except Exception:
            # a failed commit (injected device error) must not lose the
            # records: restore them so a later fsync/sync can retry
            if records:
                existing = self._pending_data.setdefault(inode.ino, [])
                existing[:0] = records
            raise
        self.device.flush()

    def _punch_blocks(self, inode: Inode, from_block: int) -> None:
        """Tail punch (truncate): must also drop delalloc pages, which have
        dirty page-cache state but no blockmap entry yet."""
        self.page_cache.invalidate_from(inode.ino, from_block)
        if inode.ino in self._delalloc:
            self._delalloc[inode.ino] = {
                fb for fb in self._delalloc[inode.ino] if fb < from_block
            }
        super()._punch_blocks(inode, from_block)

    def _punch_range(self, inode: Inode, start_block: int, count: int) -> None:
        # drop cached pages over the punched range (stale, not just dirty)
        self.page_cache.invalidate_range(inode.ino, start_block, count)
        for start, run_len, value in list(inode.blockmap.runs(start_block, count)):
            if value is None:
                continue
            self.allocator.free_run(value, run_len)
            inode.allocated_blocks -= run_len
        inode.blockmap.unmap_range(start_block, count)
        self._record_data_meta(
            inode,
            [
                (
                    "unmap_extent",
                    {"ino": inode.ino, "start": start_block, "count": count},
                )
            ],
        )
        if inode.ino in self._delalloc:
            self._delalloc[inode.ino] = {
                fb
                for fb in self._delalloc[inode.ino]
                if not start_block <= fb < start_block + count
            }

    # ------------------------------------------------------------------
    # sync / crash / recovery
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Flush all dirty data, commit all metadata, checkpoint the journal."""
        for inode in list(self.inodes):
            if not inode.is_dir:
                self._flush_inode_data(inode)
        if self._wb_done:
            self.clock.advance_to(max(self._wb_done.values()))
        for ino in list(self._pending_data):
            records = self._pending_data.pop(ino)
            try:
                self._commit_txn(records)
            except Exception:
                if records:
                    existing = self._pending_data.setdefault(ino, [])
                    existing[:0] = records
                raise
        self.device.flush()
        self.checkpoint()

    def crash(self) -> None:
        """Simulate power loss: all volatile state disappears."""
        self.page_cache.drop_clean()
        self._pending_data.clear()
        self._delalloc.clear()
        self._readahead.clear()
        self._open_handles.clear()
        # the errseq ledger is volatile: after a crash every dirty page is
        # gone anyway (expected crash semantics, not a writeback failure)
        self._wb.clear()
        self._wb_retries.clear()
        self._wb_done.clear()

    def recover(self) -> None:
        """Mount-time recovery: durable metadata + journal replay."""
        store = self._meta.clone()
        for records in self.journal.recover():
            for kind, fields in records:
                store.apply(kind, fields)
        self._meta = store
        self._rebuild_from_meta()

    def _rebuild_from_meta(self) -> None:
        self.inodes = InodeTable()
        table = self.inodes
        # root first so NativeFileSystem invariants hold
        for ino in sorted(self._meta.inodes):
            desc = self._meta.inodes[ino]
            file_type = (
                FileType.DIRECTORY
                if desc["type"] == FileType.DIRECTORY.value
                else FileType.REGULAR
            )
            inode = table.restore(ino, file_type, float(desc["ctime"]), int(desc["mode"]))
            inode.size = int(desc["size"])
            inode.atime = float(desc["atime"])
            inode.mtime = float(desc["mtime"])
            inode.nlink = int(desc["nlink"])
            inode.entries = dict(desc["entries"])
            for start, count, dev in desc["extents"]:
                inode.blockmap.map_range(start, count, dev)
                inode.allocated_blocks += count
        self._root = table.get(InodeTable.ROOT_INO)
        # rebuild the allocator from the recovered extent ownership
        self.allocator = self._make_allocator(self._data_base, self._data_blocks)
        data_end = self._data_base + self._data_blocks
        for dev_start, count in self._meta.allocated_runs():
            if dev_start < self._data_base or dev_start + count > data_end:
                raise NoSpace(
                    f"recovered run [{dev_start},+{count}) outside data region"
                )
            self.allocator.mark_allocated(dev_start, count)
