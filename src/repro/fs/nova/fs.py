"""NOVA: log-structured persistent-memory file system (Xu & Swanson,
FAST '16), modeled at the level the paper's evaluation depends on.

The properties §3.1 of the Mux paper attributes NOVA's advantage to are all
present in the model:

* **DAX data path** — reads and writes go straight to the PM device with
  loads/stores; there is no DRAM page cache and no block-layer copy.
* **Flush-based persistence** — every store is followed by cache-line
  flushes (CLWB model) and a fence, so data is durable at syscall return;
  there is *no* log-then-digest write amplification.
* **Per-inode operation log** — each metadata mutation appends a small log
  entry (one cache line) with an atomic tail update; data writes are
  copy-on-write: new blocks are populated and the index flips atomically.

Because everything is durable at operation return, ``crash()`` loses
nothing and ``recover()`` only charges the log-scan cost — the semantic
model of NOVA's guarantee.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.devices.pm import CACHE_LINE, PersistentMemoryDevice
from repro.errors import ReproError
from repro.fscommon.allocator import BitmapAllocator
from repro.fscommon.basefs import MetaRecord, NativeFileSystem
from repro.fscommon.inode import Inode
from repro.sim.clock import SimClock
from repro.vfs.interface import FileHandle

#: size of one NOVA log entry (a cache line)
LOG_ENTRY_BYTES = CACHE_LINE
#: what a log entry and the 8-byte tail pointer store (the model persists
#: their cost and placement, not their contents)
_ZERO_ENTRY = bytes(LOG_ENTRY_BYTES)
_ZERO_TAIL = bytes(8)


class DaxMapping:
    """A DAX mmap of one NOVA file: block-indexed PM loads and stores.

    The file's blocks are resolved to device addresses at map time; a
    hole maps to nothing, and touching it raises.  :meth:`remap`
    re-resolves named blocks after the file changed under the mapping (a
    punch unmaps a block, a write backs a hole), as a page fault would.
    :meth:`grow` maps blocks a write appended past the old end.  A run of
    requested blocks becomes one device access exactly when their
    addresses are contiguous; stores are flushed (CLWB) before they
    return, and :meth:`fence` orders them.  The device is looked up per
    call, never pre-bound, so wrappers installed on the device *instance*
    (tracers, crash taps) see every access.
    """

    def __init__(
        self,
        pm: PersistentMemoryDevice,
        resolve: Callable[[int], Optional[int]],
        blocks: int,
        block_size: int,
    ) -> None:
        self._pm = pm
        self._resolve = resolve
        self._addrs = [resolve(block) for block in range(blocks)]
        self.block_size = block_size

    @property
    def blocks(self) -> int:
        """How many file blocks the mapping covers."""
        return len(self._addrs)

    def mapped(self, block: int) -> bool:
        return self._addrs[block] is not None

    def remap(self, blocks: Iterable[int]) -> None:
        """Re-resolve ``blocks`` from the file's current block map."""
        for block in blocks:
            self._addrs[block] = self._resolve(block)

    def grow(self, blocks: int) -> None:
        """Map ``blocks`` more file blocks past the current end, after a
        write extended the file; the blocks already mapped stay as they are."""
        start = len(self._addrs)
        self._addrs.extend(map(self._resolve, range(start, start + blocks)))

    def fence(self) -> None:
        """Order every store flushed so far before what follows (SFENCE)."""
        self._pm.drain()

    def _addr(self, block: int) -> int:
        addr = self._addrs[block]
        if addr is None:
            raise ReproError(f"DAX access to unmapped block {block}")
        return addr

    def _runs(self, blocks: Sequence[int]) -> Iterator[Tuple[int, int, int]]:
        """``(index, count, addr)`` per device-contiguous run of ``blocks``."""
        addrs, bs, n = self._addrs, self.block_size, len(blocks)
        i = 0
        while i < n:
            addr = self._addr(blocks[i])
            j = i + 1
            while j < n and addrs[blocks[j]] == addrs[blocks[j - 1]] + bs:
                j += 1
            yield i, j - i, addr
            i = j

    def load(self, block: int) -> bytes:
        return self._pm.load(self._addr(block), self.block_size)

    def load_blocks(self, blocks: Sequence[int], out: bytearray, pos: int) -> None:
        """Copy ``blocks`` (whole, in the order given) into ``out`` at ``pos``."""
        for _, count, addr in self._runs(blocks):
            data = self._pm.load_run(addr, count, self.block_size)
            out[pos : pos + len(data)] = data
            pos += len(data)

    def store(self, block: int, offset: int, data: bytes) -> None:
        """Persist ``data`` at byte ``offset`` inside one block."""
        addr = self._addr(block) + offset
        self._pm.store(addr, data)
        self._pm.flush_range(addr, len(data))

    def store_blocks(self, blocks: Sequence[int], data) -> None:
        """Persist block-aligned ``data`` over ``blocks``, in the order given."""
        bs = self.block_size
        src = memoryview(data)
        for i, count, addr in self._runs(blocks):
            self._pm.store_run(addr, src[i * bs : (i + count) * bs], bs)
            self._pm.flush_range(addr, count * bs, ops=count)


class NovaFileSystem(NativeFileSystem):
    """Log-structured PM file system with a DAX data path."""

    #: per-op software cost: NOVA's syscall path is short (no page cache,
    #: no block layer); measured NOVA syscalls are a couple of microseconds
    op_cost_ns = 1200
    #: DAX writes persist in place at syscall return: there is no deferred
    #: writeback, hence no writeback *loss* — a failing store surfaces at
    #: write() time and the errseq ledger stays empty
    wb_failure_policy = "none"
    #: fraction of the device reserved for inode logs and the inode table
    log_reserve_fraction = 0.02

    def __init__(
        self, fs_name: str, device: PersistentMemoryDevice, clock: SimClock
    ) -> None:
        if not isinstance(device, PersistentMemoryDevice):
            raise TypeError("NOVA requires a PersistentMemoryDevice")
        super().__init__(fs_name, device, clock)
        self.pm = device
        reserve = max(16, int(device.num_blocks * self.log_reserve_fraction))
        self._data_base = reserve
        self._data_blocks = device.num_blocks - reserve
        self.allocator = BitmapAllocator(self._data_base, self._data_blocks)
        self._log_cursor = 0  # rotating offset inside the log reserve

    # ------------------------------------------------------------------
    # per-inode log
    # ------------------------------------------------------------------

    def _log_append(self, entries: int) -> None:
        """Append ``entries`` log entries: store a cache line each, flush,
        then atomically bump the log tail (8-byte store + flush + fence)."""
        pm = self.pm
        wrap = max(LOG_ENTRY_BYTES, self._data_base * self.block_size - LOG_ENTRY_BYTES)
        for _ in range(entries):
            addr = self._log_cursor % wrap
            addr -= addr % LOG_ENTRY_BYTES
            pm.store(addr, _ZERO_ENTRY)
            pm.flush_range(addr, LOG_ENTRY_BYTES)
            self._log_cursor += LOG_ENTRY_BYTES
        # atomic tail pointer update
        pm.store(0, _ZERO_TAIL)
        pm.flush_range(0, 8)
        pm.drain()
        self.stats.add("log_entries", entries)

    def _record_namespace(self, records: List[MetaRecord]) -> None:
        self._log_append(len(records))

    def _record_data_meta(self, inode: Inode, records: List[MetaRecord]) -> None:
        # size/mtime ride in the same write entry that carried the data; a
        # single tail update makes the whole operation visible atomically.
        self._log_append(1)

    # ------------------------------------------------------------------
    # DAX data path
    # ------------------------------------------------------------------

    def _block_addr(self, dev_block: int) -> int:
        return dev_block * self.block_size

    def dax_map(self, handle: FileHandle) -> DaxMapping:
        """mmap the file: resolve every block to its PM address, once.

        Charges nothing — the model's mmap cost is the preallocation the
        caller already paid through :meth:`write`.
        """
        handle.ensure_open()
        inode = self.inodes.get(handle.ino)
        lookup = inode.blockmap.lookup

        def resolve(file_block: int) -> Optional[int]:
            dev_block = lookup(file_block)
            return None if dev_block is None else self._block_addr(dev_block)

        return DaxMapping(
            self.pm, resolve, -(-inode.size // self.block_size), self.block_size
        )

    def _read_block(self, inode: Inode, file_block: int) -> Optional[bytes]:
        dev_block = inode.blockmap.lookup(file_block)
        if dev_block is None:
            return None
        return self.pm.load(self._block_addr(dev_block), self.block_size)

    def _read_span_into(
        self, inode: Inode, offset: int, length: int, out: bytearray, out_off: int
    ) -> None:
        """Run-level DAX reads: one :meth:`PersistentMemoryDevice.load_run`
        per device-contiguous extent instead of one load per file block."""
        bs = self.block_size
        first_fb = offset // bs
        last_fb = (offset + length - 1) // bs
        end = offset + length
        for run_start, run_len, value in inode.blockmap.runs(
            first_fb, last_fb - first_fb + 1
        ):
            lo = max(run_start * bs, offset)
            hi = min((run_start + run_len) * bs, end)
            if value is None:
                out[out_off + lo - offset : out_off + hi - offset] = bytes(hi - lo)
                continue
            fb_lo = lo // bs
            fb_hi = (hi - 1) // bs
            dev_block = value + (fb_lo - run_start)
            data = self.pm.load_run(
                self._block_addr(dev_block), fb_hi - fb_lo + 1, bs
            )
            src = lo - fb_lo * bs
            out[out_off + lo - offset : out_off + hi - offset] = data[
                src : src + (hi - lo)
            ]

    def _write_span(self, inode: Inode, offset: int, data: bytes) -> None:
        """Copy-on-write: populate fresh blocks, then flip the index."""
        bs = self.block_size
        first_fb = offset // bs
        end = offset + len(data)
        last_fb = (end - 1) // bs
        count = last_fb - first_fb + 1

        # Assemble the new contents of the touched span in one buffer;
        # only the edge blocks need a base read (RMW of a partial block).
        # A block-aligned write is its own buffer.
        head_off = offset - first_fb * bs
        if head_off or end % bs:
            buf = bytearray(count * bs)
            if head_off or first_fb == last_fb:
                base = self._read_block(inode, first_fb)
                if base is not None:
                    buf[0:bs] = base
            if last_fb != first_fb and end % bs:
                base = self._read_block(inode, last_fb)
                if base is not None:
                    buf[(count - 1) * bs :] = base
            buf[head_off : head_off + len(data)] = data
        else:
            buf = data

        # Allocate fresh blocks (log-structured: never overwrite in place).
        hint = inode.blockmap.lookup(first_fb - 1) if first_fb else None
        runs = self.allocator.alloc_extent(count, None if hint is None else hint + 1)

        # Store + flush the new data via DAX, one store per allocated run.
        mv = memoryview(buf)
        done = 0
        for dev_start, got in runs:
            addr = self._block_addr(dev_start)
            self.pm.store(addr, mv[done * bs : (done + got) * bs])
            self.pm.flush_range(addr, got * bs)
            done += got
        self.pm.drain()

        # Commit: flip the mapping to the new blocks, free the old runs.
        old_runs = [
            (value, run_len)
            for _, run_len, value in inode.blockmap.runs(first_fb, count)
            if value is not None
        ]
        inode.allocated_blocks += count - sum(r for _, r in old_runs)
        fb = first_fb
        for dev_start, got in runs:
            inode.blockmap.map_range(fb, got, dev_start)
            fb += got
        for old_start, run_len in old_runs:
            self.allocator.free_run(old_start, run_len)
        self.stats.add("cow_blocks", count)

    def _punch_range(self, inode: Inode, start_block: int, count: int) -> None:
        for start, run_len, value in list(inode.blockmap.runs(start_block, count)):
            if value is None:
                continue
            self.allocator.free_run(value, run_len)
            inode.allocated_blocks -= run_len
        inode.blockmap.unmap_range(start_block, count)
        self._log_append(1)

    def _fsync_inode(self, inode: Inode) -> None:
        # NOVA data is durable at write return; fsync is just a fence.
        self.pm.drain()

    # ------------------------------------------------------------------
    # space accounting / recovery
    # ------------------------------------------------------------------

    def _total_data_blocks(self) -> int:
        return self._data_blocks

    def _free_data_blocks(self) -> int:
        return self.allocator.free_blocks

    def crash(self) -> None:
        """NOVA loses nothing: all state was flushed at operation return."""
        self._open_handles.clear()

    def recover(self) -> None:
        """Charge the mount-time log scan and rebuild volatile state.

        NOVA keeps no persistent allocator: the free list is volatile and
        reconstructed from the per-inode logs at mount (Xu & Swanson
        §3.6).  The same scan resolves half-applied operations: an inode
        whose last log commit left it unreachable from the root (a crash
        inside the unlink window) is reaped, and blocks reserved for a
        copy-on-write whose index flip never committed return to the free
        pool instead of leaking.
        """
        scan_entries = max(1, self.stats.get("log_entries"))
        self.pm.load(0, min(scan_entries * LOG_ENTRY_BYTES, self.pm.capacity_bytes))
        reachable = set()
        stack = [self._root]
        while stack:
            inode = stack.pop()
            if inode.ino in reachable:
                continue
            reachable.add(inode.ino)
            if inode.is_dir:
                for child_ino in inode.entries.values():
                    child = self.inodes.maybe_get(child_ino)
                    if child is not None:
                        stack.append(child)
        for inode in list(self.inodes):
            if inode.ino not in reachable:
                self.inodes.free(inode.ino)
                self.stats.add("reaped_orphans")
        rebuilt = BitmapAllocator(self._data_base, self._data_blocks)
        for inode in self.inodes:
            if inode.is_dir:
                continue
            for extent in inode.blockmap:
                rebuilt.mark_allocated(extent.value, extent.count)
        self.allocator = rebuilt
