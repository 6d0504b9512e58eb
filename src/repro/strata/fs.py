"""Strata baseline: a monolithic cross-media tiered file system
(Kwon et al., SOSP '17), modeled at the level the Mux paper compares
against (§3.1).

The model captures the three properties the paper attributes Strata's
deficits to:

* **Log-then-digest writes** — every write first lands in an operation log
  on persistent memory and is later *digested* to its final device.  Data
  whose final home is PM is therefore written twice (write amplification);
  data bound for SSD/HDD is moved in small fixed digest units instead of
  the large batched extents a production file system would issue.
* **A single global extent tree** — "the file extent tree that contains
  both block offset and device index has to be partially locked during
  block-level data migration"; every digest/migration unit charges the
  tree-lock cost, and operations racing a digest pay it too.
* **Static migration routing** — only the PM→SSD and PM→HDD paths are
  wired ("adding a path requires manually matching the threading model,
  block size, and call context of the paired devices"); every other pair
  raises :class:`MigrationUnsupported` — the N/S cells of Figure 3a.

The namespace machinery is inherited from the same skeleton the native
file systems use; everything below the namespace is Strata-specific.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core import calibration as cal
from repro.core.migration import PairStats
from repro.devices.base import Device
from repro.devices.pm import PersistentMemoryDevice
from repro.errors import MigrationUnsupported, NoSpace
from repro.fscommon.allocator import BitmapAllocator
from repro.fscommon.basefs import MetaRecord, NativeFileSystem
from repro.fscommon.inode import Inode
from repro.sim.clock import SimClock

#: extent-tree encoding: value = device_index * STRIDE + device_block
DEVICE_STRIDE = 1 << 40

#: device indices inside the monolithic extent tree
PM, SSD, HDD = 0, 1, 2
DEVICE_NAMES = {PM: "pm", SSD: "ssd", HDD: "hdd"}
DEVICE_INDICES = {v: k for k, v in DEVICE_NAMES.items()}

#: the migration paths Strata has wired (Figure 3a)
SUPPORTED_MIGRATIONS = {(PM, SSD), (PM, HDD)}


def encode(device_index: int, block: int) -> int:
    return device_index * DEVICE_STRIDE + block

def decode(value: int) -> Tuple[int, int]:
    return value // DEVICE_STRIDE, value % DEVICE_STRIDE


class StrataFileSystem(NativeFileSystem):
    """Monolithic tiered file system over PM + SSD + HDD devices."""

    op_cost_ns = cal.STRATA_OP_NS
    #: fraction of PM reserved for the operation log
    log_fraction = 0.25
    #: fraction of the log that, once filled, triggers a digest
    digest_threshold_fraction = 0.75

    def __init__(
        self,
        fs_name: str,
        pm: PersistentMemoryDevice,
        ssd: Device,
        hdd: Device,
        clock: SimClock,
        pin_target: Optional[str] = None,
    ) -> None:
        super().__init__(fs_name, pm, clock)
        self.pm = pm
        self.devices: Dict[int, Device] = {PM: pm, SSD: ssd, HDD: hdd}
        log_blocks = max(64, int(pm.num_blocks * self.log_fraction))
        self._log_blocks = log_blocks
        # block 0 holds the metadata log head/tail; data log starts at 1
        self._log_alloc = BitmapAllocator(1, log_blocks - 1)
        self.allocators: Dict[int, BitmapAllocator] = {
            PM: BitmapAllocator(log_blocks, pm.num_blocks - log_blocks),
            SSD: BitmapAllocator(0, ssd.num_blocks),
            HDD: BitmapAllocator(0, hdd.num_blocks),
        }
        #: (ino, file_block) -> log block, in append (digest) order
        self._log_entries: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self._digest_threshold = int(log_blocks * self.digest_threshold_fraction)
        #: static per-file placement ("always directed to the target
        #: device" in the paper's microbenchmark); None = capacity fill
        self.pin_target = pin_target
        #: digest/migration in flight => extent-tree partial lock charges
        self._tree_busy = False
        self.pair_stats: Dict[Tuple[str, str], PairStats] = {}

    # ------------------------------------------------------------------
    # metadata: everything goes through the PM operation log
    # ------------------------------------------------------------------

    def _log_meta_append(self, records: int) -> None:
        """Metadata log entry: one cache line per record + tail update."""
        for _ in range(records):
            self.clock.advance_ns(cal.STRATA_LOG_ENTRY_NS)
            self.pm.store(0, bytes(64))
            self.pm.flush_range(0, 64)
        self.pm.drain()

    def _record_namespace(self, records: List[MetaRecord]) -> None:
        self._log_meta_append(len(records))

    def _record_data_meta(self, inode: Inode, records: List[MetaRecord]) -> None:
        self._log_meta_append(1)

    # ------------------------------------------------------------------
    # data path: log-then-digest
    # ------------------------------------------------------------------

    def _charge_tree_lock(self) -> None:
        """Partial extent-tree lock: charged while a digest is racing."""
        if self._tree_busy:
            self.clock.advance_ns(cal.STRATA_TREE_LOCK_NS)

    def _read_block(self, inode: Inode, file_block: int) -> Optional[bytes]:
        self._charge_tree_lock()
        value = inode.blockmap.lookup(file_block)
        if value is None:
            return None
        device_index, block = decode(value)
        device = self.devices[device_index]
        if isinstance(device, PersistentMemoryDevice):
            return device.load(block * self.block_size, self.block_size)
        return device.read_blocks(block, 1)

    def _write_span(self, inode: Inode, offset: int, data: bytes) -> None:
        """Append every touched block to the PM log."""
        self._charge_tree_lock()
        bs = self.block_size
        pos = offset
        idx = 0
        while idx < len(data):
            fb, block_off = divmod(pos, bs)
            take = min(len(data) - idx, bs - block_off)
            if take == bs:
                content = bytes(data[idx : idx + take])
            else:
                base = self._read_block(inode, fb)
                page = bytearray(base if base is not None else bytes(bs))
                page[block_off : block_off + take] = data[idx : idx + take]
                content = bytes(page)
            self._append_to_log(inode, fb, content)
            pos += take
            idx += take
        if len(self._log_entries) >= self._digest_threshold:
            self.digest()

    def _append_to_log(self, inode: Inode, fb: int, content: bytes) -> None:
        try:
            log_block = self._log_alloc.alloc_block()
        except NoSpace:
            self.digest()
            log_block = self._log_alloc.alloc_block()
        addr = log_block * self.block_size
        self.pm.store(addr, content)
        self.pm.flush_range(addr, len(content))
        self.clock.advance_ns(cal.STRATA_LOG_ENTRY_NS)
        self._release_old(inode, fb)
        inode.blockmap.map_range(fb, 1, encode(PM, log_block))
        inode.allocated_blocks += 1
        self._log_entries[(inode.ino, fb)] = log_block
        self.stats.add("log_appends")

    def _release_old(self, inode: Inode, fb: int) -> None:
        """Free the superseded copy of a file block, wherever it lives."""
        value = inode.blockmap.lookup(fb)
        if value is None:
            return
        device_index, block = decode(value)
        if device_index == PM and block < self._log_blocks:
            self._log_alloc.free_run(block, 1)
            self._log_entries.pop((inode.ino, fb), None)
        else:
            self.allocators[device_index].free_run(block, 1)
        inode.allocated_blocks -= 1
        inode.blockmap.unmap_range(fb, 1)

    # ------------------------------------------------------------------
    # digest: drain the log to final devices in small units
    # ------------------------------------------------------------------

    def _placement_device(self) -> int:
        """Final home for digested data: pinned target or capacity fill."""
        if self.pin_target is not None:
            return DEVICE_INDICES[self.pin_target]
        for device_index in (PM, SSD, HDD):
            if self.allocators[device_index].free_blocks > 0:
                return device_index
        raise NoSpace("strata: all devices full")

    def digest(self, max_entries: Optional[int] = None) -> int:
        """Move log entries to their final device; returns blocks digested."""
        digested = 0
        self._tree_busy = True
        self.stats.add("digests")
        try:
            while self._log_entries:
                if max_entries is not None and digested >= max_entries:
                    break
                unit: List[Tuple[Tuple[int, int], int]] = []
                while self._log_entries and len(unit) < cal.STRATA_DIGEST_UNIT_BLOCKS:
                    unit.append(self._log_entries.popitem(last=False))
                target = self._placement_device()
                # per-unit extent-tree partial lock
                self.clock.advance_ns(cal.STRATA_TREE_LOCK_NS)
                live: List[Tuple[Inode, int, bytes]] = []
                for (ino, fb), log_block in unit:
                    data = self.pm.load(
                        log_block * self.block_size, self.block_size
                    )
                    self._log_alloc.free_run(log_block, 1)
                    inode = self.inodes.maybe_get(ino)
                    if inode is not None:
                        live.append((inode, fb, data))
                    digested += 1
                self._digest_unit_out(target, live)
                self.stats.add("digest_units")
            self.stats.add("blocks_digested", digested)
            return digested
        finally:
            self._tree_busy = False

    def _digest_unit_out(
        self,
        target: int,
        live: List[Tuple[Inode, int, bytes]],
        batch_blocks: Optional[int] = None,
    ) -> None:
        """Write one digest unit to its final device, log-entry batched."""
        if not live:
            return
        if batch_blocks is None:
            batch_blocks = cal.STRATA_DEVICE_BATCH_BLOCKS
        runs = self.allocators[target].alloc_extent(len(live))
        index = 0
        for run_start, run_len in runs:
            offset = 0
            while offset < run_len:
                batch = min(batch_blocks, run_len - offset)
                datas = [live[index + offset + i][2] for i in range(batch)]
                self._write_device_blocks(target, run_start + offset, datas)
                offset += batch
            for i in range(run_len):
                inode, fb, _ = live[index + i]
                inode.blockmap.map_range(fb, 1, encode(target, run_start + i))
            index += run_len

    def _write_device_blocks(
        self, device_index: int, start_block: int, datas: List[bytes]
    ) -> None:
        device = self.devices[device_index]
        payload = b"".join(datas)
        if isinstance(device, PersistentMemoryDevice):
            addr = start_block * self.block_size
            device.store(addr, payload)
            device.flush_range(addr, len(payload))
        else:
            device.write_blocks(start_block, payload)

    # ------------------------------------------------------------------
    # migration: static routing (Figure 3a)
    # ------------------------------------------------------------------

    def supports_migration(self, src: str, dst: str) -> bool:
        pair = (DEVICE_INDICES[src], DEVICE_INDICES[dst])
        return pair in SUPPORTED_MIGRATIONS

    def migrate_blocks(
        self, path: str, block_start: int, count: int, src: str, dst: str
    ) -> int:
        """Lock-based migration of a block range between devices.

        Raises :class:`MigrationUnsupported` for pairs Strata has not
        wired — everything except PM→SSD and PM→HDD.
        """
        src_index = DEVICE_INDICES[src]
        dst_index = DEVICE_INDICES[dst]
        if (src_index, dst_index) not in SUPPORTED_MIGRATIONS:
            raise MigrationUnsupported(
                f"strata: no migration path {src} -> {dst} (N/S)"
            )
        inode = self._resolve(path)
        stats = self.pair_stats.setdefault((src, dst), PairStats())
        started_ns = self.clock.now_ns
        moved = 0
        self._tree_busy = True
        try:
            pending: List[Tuple[int, int]] = []
            for fb in range(block_start, block_start + count):
                value = inode.blockmap.lookup(fb)
                if value is None:
                    continue
                device_index, block = decode(value)
                if device_index != src_index:
                    continue
                if device_index == PM and block < self._log_blocks:
                    continue  # still in the log; digest owns it
                pending.append((fb, block))
            for unit_start in range(0, len(pending), cal.STRATA_DIGEST_UNIT_BLOCKS):
                unit = pending[unit_start : unit_start + cal.STRATA_DIGEST_UNIT_BLOCKS]
                # lock the extent-tree region covering the unit
                self.clock.advance_ns(cal.STRATA_TREE_LOCK_NS)
                live: List[Tuple[Inode, int, bytes]] = []
                for fb, src_block in unit:
                    data = self._read_device_block(src_index, src_block)
                    self.allocators[src_index].free_run(src_block, 1)
                    live.append((inode, fb, data))
                    moved += 1
                self._digest_unit_out(
                    dst_index, live, batch_blocks=cal.STRATA_MIGRATION_BATCH_BLOCKS
                )
        finally:
            self._tree_busy = False
        stats.bytes_moved += moved * self.block_size
        stats.busy_ns += self.clock.now_ns - started_ns
        stats.migrations += 1
        self.stats.add("blocks_migrated", moved)
        return moved

    def _read_device_block(self, device_index: int, block: int) -> bytes:
        device = self.devices[device_index]
        if isinstance(device, PersistentMemoryDevice):
            return device.load(block * self.block_size, self.block_size)
        return device.read_blocks(block, 1)

    # ------------------------------------------------------------------
    # remaining NativeFileSystem hooks
    # ------------------------------------------------------------------

    def _punch_range(self, inode: Inode, start_block: int, count: int) -> None:
        for fb in range(start_block, start_block + count):
            self._release_old(inode, fb)
        self._log_meta_append(1)

    def _fsync_inode(self, inode: Inode) -> None:
        # the log is on PM and flushed at append; fsync is a fence
        self.pm.drain()
        for device in self.devices.values():
            device.flush()

    def _total_data_blocks(self) -> int:
        return sum(a.count for a in self.allocators.values())

    def _free_data_blocks(self) -> int:
        return sum(a.free_blocks for a in self.allocators.values())

    @property
    def log_utilization(self) -> float:
        return self._log_alloc.used_blocks / self._log_alloc.count

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Strata's log lives on PM and every append is flushed before the
        operation returns, so (like NOVA) a crash loses nothing that a
        completed operation wrote."""
        self._open_handles.clear()
        self._tree_busy = False

    def recover(self) -> None:
        """Charge the mount-time log scan; state is already durable."""
        scan_entries = max(1, self.stats.get("log_appends"))
        self.pm.load(0, min(scan_entries * 64, self.pm.capacity_bytes))
