"""Shared skeleton for the native file systems (NOVA, XFS, Ext4).

The skeleton owns everything the VFS interface needs that is *not*
device-specific: the inode table, path resolution, directory operations,
handle bookkeeping and the generic read/write/truncate loops.  Each
concrete file system supplies the data path (how blocks reach the device)
and the metadata-durability path (log vs journal) through a small set of
hooks — mirroring how real file systems differ below a common VFS surface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.devices.base import Device
from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    ReproError,
)
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet
from repro.vfs import path as vpath
from repro.vfs.interface import (
    FileHandle,
    FileSystem,
    OpenFlags,
    WritebackLedger,
    attrs_for_update,
)
from repro.vfs.stat import FileType, FsStats, Stat
from repro.fscommon.inode import Inode, InodeTable

MetaRecord = Tuple[str, Dict[str, object]]


class NativeFileSystem(FileSystem):
    """Common namespace + generic data loops; subclasses own the device path."""

    #: per-operation software cost (path walk, inode lock, ...) in ns
    op_cost_ns: int = 2000

    #: timestamp granularity in seconds (0.0 = full precision).  §4 of the
    #: Mux paper calls out feature imparity between file systems: "even for
    #: the same metadata attribute, its semantics can vary (e.g., FAT
    #: records timestamps with a two-second granularity)".  File systems
    #: with coarse clocks round every reported timestamp down.
    timestamp_granularity: float = 0.0

    def __init__(self, fs_name: str, device: Device, clock: SimClock) -> None:
        self.fs_name = fs_name
        self.device = device
        self.clock = clock
        self.block_size = device.block_size
        self.inodes = InodeTable()
        self.stats = CounterSet()
        self._root = self.inodes.alloc(FileType.DIRECTORY, clock.now(), 0o755)
        self._open_handles: Dict[int, int] = {}  # ino -> open count
        #: errseq ledger: once-per-fd writeback-error reporting plus the
        #: dirty intervals writeback dropped (fsck reads those)
        self._wb = WritebackLedger(fs_name)

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------

    def _charge_op(self) -> None:
        self.clock.advance_ns(self.op_cost_ns)

    def _record_namespace(self, records: List[MetaRecord]) -> None:
        """Durably record a namespace change (create/unlink/rename/...)."""
        raise NotImplementedError

    def _record_data_meta(self, inode: Inode, records: List[MetaRecord]) -> None:
        """Record data-path metadata (size, extents); durability semantics
        are FS-specific (NOVA: immediate; journaled: buffered until fsync)."""
        raise NotImplementedError

    def _read_block(self, inode: Inode, file_block: int) -> Optional[bytes]:
        """Return the contents of one file block, or None for a hole."""
        raise NotImplementedError

    def _write_span(self, inode: Inode, offset: int, data: bytes) -> None:
        """Persist (or buffer) ``data`` at byte ``offset`` of the file."""
        raise NotImplementedError

    def _punch_range(self, inode: Inode, start_block: int, count: int) -> None:
        """Release the device blocks backing [start_block, start_block+count)."""
        raise NotImplementedError

    def _punch_blocks(self, inode: Inode, from_block: int) -> None:
        """Release all blocks at or beyond ``from_block`` (shrink truncate)."""
        end = inode.blockmap.end_block()
        if end > from_block:
            self._punch_range(inode, from_block, end - from_block)

    def _fsync_inode(self, inode: Inode) -> None:
        """Make one inode's data + metadata durable."""
        raise NotImplementedError

    def _free_data_blocks(self) -> int:
        """Free device blocks available for data."""
        raise NotImplementedError

    def _total_data_blocks(self) -> int:
        """Total device blocks available for data."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # path resolution
    # ------------------------------------------------------------------

    def _resolve_dir(self, path: str) -> Inode:
        """Resolve ``path`` to a directory inode."""
        inode = self._resolve(path)
        if not inode.is_dir:
            raise NotADirectory(f"{path!r} is not a directory")
        return inode

    def _resolve(self, path: str) -> Inode:
        """Resolve ``path`` to an inode or raise FileNotFound."""
        inode = self._root
        for name in vpath.components(path):
            if not inode.is_dir:
                raise NotADirectory(f"component of {path!r} is not a directory")
            try:
                ino = inode.entries[name]
            except KeyError:
                raise FileNotFound(f"{self.fs_name}: {path!r} does not exist")
            inode = self.inodes.get(ino)
        return inode

    def _resolve_parent(self, path: str) -> Tuple[Inode, str]:
        """Resolve the parent directory of ``path``; returns (dir, name)."""
        parent_path, name = vpath.split(path)
        if not name:
            raise InvalidArgument("operation on root directory")
        return self._resolve_dir(parent_path), name

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------

    def create(self, path: str, mode: int = 0o644) -> FileHandle:
        self._charge_op()
        path = vpath.normalize(path)
        parent, name = self._resolve_parent(path)
        if name in parent.entries:
            raise FileExists(f"{self.fs_name}: {path!r} exists")
        now = self.clock.now()
        inode = self.inodes.alloc(FileType.REGULAR, now, mode)
        parent.entries[name] = inode.ino
        parent.mtime = parent.ctime = now
        self._record_namespace(
            [
                (
                    "alloc_inode",
                    {
                        "ino": inode.ino,
                        "file_type": FileType.REGULAR.value,
                        "now": now,
                        "mode": mode,
                    },
                ),
                ("link", {"parent": parent.ino, "name": name, "ino": inode.ino}),
            ]
        )
        self.stats.add("create")
        return self._make_handle(inode, path, OpenFlags.RDWR)

    def open(self, path: str, flags: int = OpenFlags.RDWR) -> FileHandle:
        self._charge_op()
        path = vpath.normalize(path)
        self.check_flags(flags)
        try:
            inode = self._resolve(path)
        except FileNotFound:
            if not flags & OpenFlags.CREAT:
                raise
            handle = self.create(path)
            handle.flags = flags
            return handle
        if inode.is_dir:
            raise IsADirectory(f"{self.fs_name}: {path!r} is a directory")
        handle = self._make_handle(inode, path, flags)
        if flags & OpenFlags.TRUNC and OpenFlags.writable(flags):
            self.truncate(handle, 0)
        self.stats.add("open")
        return handle

    def _make_handle(self, inode: Inode, path: str, flags: int) -> FileHandle:
        # create/open hand us canonical paths; don't re-normalize
        handle = FileHandle(self, inode.ino, path, flags)
        handle.wb_err = self._wb.sample(inode.ino)
        self._open_handles[inode.ino] = self._open_handles.get(inode.ino, 0) + 1
        return handle

    # ------------------------------------------------------------------
    # writeback-error tracking (errseq_t)
    # ------------------------------------------------------------------

    def _note_writeback_error(
        self, ino: int, lost: Optional[List[Tuple[int, int]]] = None
    ) -> None:
        """Latch a writeback failure on the inode (errseq bump).

        ``lost`` names dirty (file_block, count) intervals the failure
        policy dropped; fsck surfaces them as silently-lost data.
        """
        self._wb.note(ino, lost)
        self.stats.add("wb_errors")

    def lost_intervals(self) -> List[Tuple[int, int, int]]:
        """Dirty ``(ino, file_block, count)`` intervals writeback dropped."""
        return self._wb.lost_intervals()

    def close(self, handle: FileHandle) -> None:
        handle.ensure_open()
        handle.mark_closed()
        count = self._open_handles.get(handle.ino, 0) - 1
        if count <= 0:
            self._open_handles.pop(handle.ino, None)
        else:
            self._open_handles[handle.ino] = count
        self.stats.add("close")

    def unlink(self, path: str) -> None:
        self._charge_op()
        parent, name = self._resolve_parent(path)
        try:
            ino = parent.entries[name]
        except KeyError:
            raise FileNotFound(f"{self.fs_name}: {path!r} does not exist")
        inode = self.inodes.get(ino)
        if inode.is_dir:
            raise IsADirectory(f"{self.fs_name}: {path!r} is a directory")
        del parent.entries[name]
        inode.nlink -= 1
        now = self.clock.now()
        parent.mtime = parent.ctime = now
        records: List[MetaRecord] = [
            ("unlink", {"parent": parent.ino, "name": name})
        ]
        if inode.nlink == 0:
            self._punch_blocks(inode, 0)
            self.inodes.free(ino)
            records.append(("free_inode", {"ino": ino}))
        else:
            # other hard links remain; persist the decremented link count
            records.append(("set_attr", {"ino": ino, "nlink": inode.nlink}))
        self._record_namespace(records)
        self.stats.add("unlink")

    def rename(self, old_path: str, new_path: str) -> None:
        self._charge_op()
        old_path = vpath.normalize(old_path)
        new_path = vpath.normalize(new_path)
        if old_path == new_path:
            self._resolve(old_path)  # must exist; then a successful no-op
            return
        if vpath.is_under(new_path, old_path):
            raise InvalidArgument(
                f"cannot move {old_path!r} into itself ({new_path!r})"
            )
        old_parent, old_name = self._resolve_parent(old_path)
        new_parent, new_name = self._resolve_parent(new_path)
        try:
            ino = old_parent.entries[old_name]
        except KeyError:
            raise FileNotFound(f"{self.fs_name}: {old_path!r} does not exist")
        moving = self.inodes.get(ino)
        records: List[MetaRecord] = []
        if new_name in new_parent.entries:
            existing = self.inodes.get(new_parent.entries[new_name])
            if existing.is_dir:
                if not moving.is_dir:
                    raise IsADirectory(f"{new_path!r} is a directory")
                if existing.entries:
                    raise DirectoryNotEmpty(f"{new_path!r} is not empty")
            elif moving.is_dir:
                raise NotADirectory(f"{new_path!r} is not a directory")
            if not existing.is_dir:
                existing.nlink -= 1
                if existing.nlink == 0:
                    self._punch_blocks(existing, 0)
                    self.inodes.free(existing.ino)
                    records.append(("free_inode", {"ino": existing.ino}))
                else:
                    records.append(
                        ("set_attr", {"ino": existing.ino, "nlink": existing.nlink})
                    )
            else:
                self.inodes.free(existing.ino)
                records.append(("free_inode", {"ino": existing.ino}))
        del old_parent.entries[old_name]
        new_parent.entries[new_name] = ino
        now = self.clock.now()
        old_parent.mtime = old_parent.ctime = now
        new_parent.mtime = new_parent.ctime = now
        moving.ctime = now
        records.extend(
            [
                ("unlink", {"parent": old_parent.ino, "name": old_name}),
                ("link", {"parent": new_parent.ino, "name": new_name, "ino": ino}),
            ]
        )
        self._record_namespace(records)
        self.stats.add("rename")

    def link(self, existing_path: str, new_path: str) -> None:
        """Hard link: a second directory entry for the same inode."""
        self._charge_op()
        inode = self._resolve(existing_path)
        if inode.is_dir:
            raise IsADirectory(f"cannot hard-link directory {existing_path!r}")
        parent, name = self._resolve_parent(new_path)
        if name in parent.entries:
            raise FileExists(f"{self.fs_name}: {new_path!r} exists")
        now = self.clock.now()
        parent.entries[name] = inode.ino
        inode.nlink += 1
        inode.ctime = now
        parent.mtime = parent.ctime = now
        self._record_namespace(
            [
                ("link", {"parent": parent.ino, "name": name, "ino": inode.ino}),
                ("set_attr", {"ino": inode.ino, "nlink": inode.nlink, "ctime": now}),
            ]
        )
        self.stats.add("link")

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._charge_op()
        parent, name = self._resolve_parent(path)
        if name in parent.entries:
            raise FileExists(f"{self.fs_name}: {path!r} exists")
        now = self.clock.now()
        inode = self.inodes.alloc(FileType.DIRECTORY, now, mode)
        parent.entries[name] = inode.ino
        parent.nlink += 1
        parent.mtime = parent.ctime = now
        self._record_namespace(
            [
                (
                    "alloc_inode",
                    {
                        "ino": inode.ino,
                        "file_type": FileType.DIRECTORY.value,
                        "now": now,
                        "mode": mode,
                    },
                ),
                ("link", {"parent": parent.ino, "name": name, "ino": inode.ino}),
            ]
        )
        self.stats.add("mkdir")

    def rmdir(self, path: str) -> None:
        self._charge_op()
        parent, name = self._resolve_parent(path)
        try:
            ino = parent.entries[name]
        except KeyError:
            raise FileNotFound(f"{self.fs_name}: {path!r} does not exist")
        inode = self.inodes.get(ino)
        if not inode.is_dir:
            raise NotADirectory(f"{path!r} is not a directory")
        if inode.entries:
            raise DirectoryNotEmpty(f"{path!r} is not empty")
        del parent.entries[name]
        parent.nlink -= 1
        now = self.clock.now()
        parent.mtime = parent.ctime = now
        self.inodes.free(ino)
        self._record_namespace(
            [
                ("unlink", {"parent": parent.ino, "name": name}),
                ("free_inode", {"ino": ino}),
            ]
        )
        self.stats.add("rmdir")

    def readdir(self, path: str) -> List[str]:
        self._charge_op()
        inode = self._resolve_dir(path)
        self.stats.add("readdir")
        return sorted(inode.entries)

    # ------------------------------------------------------------------
    # data operations
    # ------------------------------------------------------------------

    def read(self, handle: FileHandle, offset: int, length: int) -> bytes:
        # size the buffer to what the file can supply; read_into validates
        # the arguments, charges and counts (and raises on a stale inode)
        inode = self.inodes.maybe_get(handle.ino)
        avail = inode.size - offset if inode is not None else 0
        out = bytearray(max(0, min(length, avail)))
        self.read_into(handle, offset, length, out)
        return bytes(out)

    def read_into(
        self, handle: FileHandle, offset: int, length: int, out: bytearray, out_off: int = 0
    ) -> int:
        """Like :meth:`read`, but assembles straight into ``out`` at
        ``out_off`` and returns the byte count — no intermediate ``bytes``
        object on the cross-layer read path."""
        handle.ensure_open()
        if not OpenFlags.readable(handle.flags):
            raise InvalidArgument("handle not open for reading")
        if offset < 0 or length < 0:
            raise InvalidArgument("negative offset/length")
        self._charge_op()
        inode = self.inodes.get(handle.ino)
        if inode.is_dir:
            raise IsADirectory(f"read from directory {handle.path!r}")
        if offset >= inode.size:
            return 0
        length = min(length, inode.size - offset)
        if length == 0:
            return 0
        self._read_span_into(inode, offset, length, out, out_off)
        inode.atime = self.clock.now()
        self.stats.add("read")
        self.stats.add("bytes_read", length)
        return length

    def _read_span_into(
        self, inode: Inode, offset: int, length: int, out: bytearray, out_off: int
    ) -> None:
        """Copy ``[offset, offset+length)`` of ``inode`` into ``out``.

        Default implementation walks file blocks one at a time through
        :meth:`_read_block`; file systems with run-aware indexes override
        this to turn a span into a handful of device accesses.  Holes are
        written as explicit zeros, so ``out`` need not be pre-zeroed.
        """
        pos = offset
        end = offset + length
        dst = out_off
        while pos < end:
            fb, block_off = divmod(pos, self.block_size)
            take = min(end - pos, self.block_size - block_off)
            block = self._read_block(inode, fb)
            if block is None:
                out[dst : dst + take] = bytes(take)
            else:
                out[dst : dst + take] = block[block_off : block_off + take]
            pos += take
            dst += take

    def write(self, handle: FileHandle, offset: int, data: bytes) -> int:
        handle.ensure_open()
        if not OpenFlags.writable(handle.flags):
            raise InvalidArgument("handle not open for writing")
        if offset < 0:
            raise InvalidArgument("negative offset")
        self._charge_op()
        inode = self.inodes.get(handle.ino)
        if inode.is_dir:
            raise IsADirectory(f"write to directory {handle.path!r}")
        if not data:
            return 0
        if handle.flags & OpenFlags.APPEND:
            offset = inode.size
        self._write_span(inode, offset, data)
        now = self.clock.now()
        records: List[MetaRecord] = []
        new_size = max(inode.size, offset + len(data))
        if new_size != inode.size:
            inode.size = new_size
            records.append(("set_size", {"ino": inode.ino, "size": new_size}))
        inode.mtime = inode.ctime = now
        records.append(
            ("set_attr", {"ino": inode.ino, "mtime": now, "ctime": now})
        )
        self._record_data_meta(inode, records)
        if handle.flags & OpenFlags.SYNC:
            # O_SYNC promises durability before returning, so it reports
            # writeback failures exactly like fsync does
            try:
                self._fsync_inode(inode)
            except ReproError:
                self._wb.consume(handle)
                raise
            self._wb.check(handle)
        self.stats.add("write")
        self.stats.add("bytes_written", len(data))
        return len(data)

    def truncate(self, handle: FileHandle, size: int) -> None:
        handle.ensure_open()
        if size < 0:
            raise InvalidArgument("negative size")
        self._charge_op()
        inode = self.inodes.get(handle.ino)
        if inode.is_dir:
            raise IsADirectory(f"truncate of directory {handle.path!r}")
        if size < inode.size:
            first_dead = -(-size // self.block_size)
            # zero the tail of the (possibly partial) last kept block
            if size % self.block_size:
                fb = size // self.block_size
                block = self._read_block(inode, fb)
                if block is not None:
                    keep = size % self.block_size
                    self._write_span(
                        inode, fb * self.block_size, block[:keep] + bytes(self.block_size - keep)
                    )
            self._punch_blocks(inode, first_dead)
        now = self.clock.now()
        inode.size = size
        inode.mtime = inode.ctime = now
        self._record_data_meta(
            inode,
            [
                ("set_size", {"ino": inode.ino, "size": size}),
                ("set_attr", {"ino": inode.ino, "mtime": now, "ctime": now}),
            ],
        )
        self.stats.add("truncate")

    def fsync(self, handle: FileHandle) -> None:
        handle.ensure_open()
        self._charge_op()
        inode = self.inodes.get(handle.ino)
        try:
            self._fsync_inode(inode)
        except ReproError:
            # the failure (if writeback-related) is latched on the inode;
            # this fd is observing it through the raised error itself
            self._wb.consume(handle)
            raise
        self.stats.add("fsync")
        self._wb.check(handle)

    def punch_hole(self, handle: FileHandle, offset: int, length: int) -> None:
        handle.ensure_open()
        if offset % self.block_size or length % self.block_size:
            raise InvalidArgument("punch_hole requires block-aligned arguments")
        if length <= 0:
            return
        self._charge_op()
        inode = self.inodes.get(handle.ino)
        if inode.is_dir:
            raise IsADirectory(f"punch_hole on directory {handle.path!r}")
        self._punch_range(inode, offset // self.block_size, length // self.block_size)
        self.stats.add("punch_hole")

    # ------------------------------------------------------------------
    # metadata operations
    # ------------------------------------------------------------------

    def _quantize_stat(self, stat: Stat) -> Stat:
        """Round timestamps down to this file system's clock granularity."""
        gran = self.timestamp_granularity
        if gran > 0:
            stat.atime = (stat.atime // gran) * gran
            stat.mtime = (stat.mtime // gran) * gran
            stat.ctime = (stat.ctime // gran) * gran
        return stat

    def getattr(self, path: str) -> Stat:
        self._charge_op()
        inode = self._resolve(path)
        self.stats.add("getattr")
        return self._quantize_stat(inode.stat(self.block_size))

    def setattr(self, path: str, **attrs: object) -> Stat:
        self._charge_op()
        clean = attrs_for_update(attrs)
        inode = self._resolve(path)
        inode.apply_attrs(clean)
        self._record_namespace([("set_attr", {"ino": inode.ino, **clean})])
        self.stats.add("setattr")
        return self._quantize_stat(inode.stat(self.block_size))

    def statfs(self) -> FsStats:
        return FsStats(
            self.block_size, self._total_data_blocks(), self._free_data_blocks()
        )

    def load_hint(self):
        """The device timeline: its per-channel backlog."""
        return self.device.timeline

    # ------------------------------------------------------------------
    # crash / recovery (overridden by journaled file systems)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Drop volatile state (default: nothing is volatile)."""

    def recover(self) -> None:
        """Rebuild state after a crash (default: nothing to do)."""
