"""The ``FileSystem`` abstract base class — our stand-in for the Linux VFS
interface.

Every file system in the reproduction (NOVA, XFS, Ext4, Mux itself, and the
Strata baseline) implements this interface.  That is the paper's central
architectural bet: because Mux both *implements* the VFS interface upward
and *consumes* it downward, any file system that speaks VFS can be plugged
in as a tier without modification (§2.1).

Beyond the abstract POSIX surface there are four *optional capabilities*,
each with a default a file system overrides only if it has the feature:
``link`` and ``punch_hole`` (default ENOTSUP), ``dax_map`` (default
ENOTSUP; a file system that implements it can host Mux's SCM cache, §2.5)
and ``load_hint`` (default None; a file system that returns a gauge is
sampled by Mux's pressure monitor).  Mux asks for a capability by calling
it — never by checking what class a tier's file system is.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

from repro.errors import BadFileHandle, InvalidArgument, NotSupported, WritebackError
from repro.vfs.stat import FsStats, Stat


class OpenFlags:
    """Subset of POSIX open(2) flags the simulation models."""

    RDONLY = 0x0
    WRONLY = 0x1
    RDWR = 0x2
    CREAT = 0x40
    TRUNC = 0x200
    APPEND = 0x400
    #: synchronous I/O: every write is durable before it returns
    SYNC = 0x1000

    ACCESS_MASK = 0x3

    @staticmethod
    def readable(flags: int) -> bool:
        return (flags & OpenFlags.ACCESS_MASK) in (OpenFlags.RDONLY, OpenFlags.RDWR)

    @staticmethod
    def writable(flags: int) -> bool:
        return (flags & OpenFlags.ACCESS_MASK) in (OpenFlags.WRONLY, OpenFlags.RDWR)


class FileHandle:
    """An open file description returned by :meth:`FileSystem.open`."""

    __slots__ = ("fs", "ino", "path", "flags", "_open", "private", "wb_err")

    def __init__(self, fs: "FileSystem", ino: int, path: str, flags: int) -> None:
        self.fs = fs
        self.ino = ino
        self.path = path
        self.flags = flags
        self._open = True
        #: per-FS private state (e.g. Mux stores the per-tier handles here)
        self.private: Optional[object] = None
        #: errseq_t-style sample of the inode's writeback-error sequence at
        #: open time; fsync compares-and-advances so each fd reports a
        #: writeback failure at most once
        self.wb_err: int = 0

    @property
    def is_open(self) -> bool:
        return self._open

    def ensure_open(self) -> None:
        if not self._open:
            raise BadFileHandle(f"handle for {self.path!r} is closed")

    def mark_closed(self) -> None:
        self._open = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self._open else "closed"
        return f"FileHandle({self.fs.fs_name}:{self.path!r}, ino={self.ino}, {state})"


class WritebackLedger:
    """errseq_t-style writeback-error ledger; each file system holds one.

    A per-inode error sequence is bumped whenever writeback gives up on
    dirty data.  Fds sample it at open time (:meth:`sample` into
    ``FileHandle.wb_err``) and fsync compares-and-advances
    (:meth:`check`), so every fd open at the time of the failure reports
    it exactly once and fds opened later report nothing.  The dirty
    ``(file_block, count)`` intervals the failure dropped are filed
    alongside, for fsck to flag as silently-lost data.
    """

    def __init__(self, fs_name: str) -> None:
        self._fs_name = fs_name
        self._seq: Dict[int, int] = {}
        self._lost: Dict[int, List[Tuple[int, int]]] = {}

    def sample(self, ino: int) -> int:
        """The inode's current sequence (what a new fd starts from)."""
        return self._seq.get(ino, 0)

    def note(self, ino: int, lost: Optional[List[Tuple[int, int]]] = None) -> None:
        """Latch a writeback failure on ``ino``; ``lost`` names the dirty
        intervals the failure dropped."""
        self._seq[ino] = self._seq.get(ino, 0) + 1
        if lost:
            self._lost.setdefault(ino, []).extend(lost)

    def check(self, handle: FileHandle) -> None:
        """Check-and-advance: raise EIO once per fd per error."""
        seq = self._seq.get(handle.ino, 0)
        if handle.wb_err < seq:
            handle.wb_err = seq
            raise WritebackError(
                f"{self._fs_name}: earlier writeback of ino {handle.ino} failed"
            )

    def consume(self, handle: FileHandle) -> None:
        """Advance the fd's sample without raising: the fd is observing the
        failure right now, through the original exception, and must not
        see it again at its next fsync."""
        handle.wb_err = self._seq.get(handle.ino, 0)

    def lost_intervals(self) -> List[Tuple[int, int, int]]:
        """Dirty ``(ino, file_block, count)`` intervals writeback dropped."""
        return [(i, fb, n) for i in sorted(self._lost) for fb, n in self._lost[i]]

    def forget(self, ino: int) -> None:
        """The inode is gone (unlink / free): its pending reports are moot."""
        self._seq.pop(ino, None)
        self._lost.pop(ino, None)

    def clear(self) -> None:
        """The ledger is DRAM state: a crash drops every pending report."""
        self._seq.clear()
        self._lost.clear()


class FileSystem(ABC):
    """Abstract file system: the VFS-facing operations Mux depends on.

    Paths given to a ``FileSystem`` are *internal* absolute paths (relative
    to that file system's root); mount-point translation happens in the
    :class:`~repro.vfs.vfs.VFS` layer.
    """

    #: short identifier used in stats, logs and Mux bookkeeping
    fs_name: str = "fs"

    # -- namespace ---------------------------------------------------------

    @abstractmethod
    def create(self, path: str, mode: int = 0o644) -> FileHandle:
        """Create a regular file and return a read-write handle."""

    @abstractmethod
    def open(self, path: str, flags: int = OpenFlags.RDWR) -> FileHandle:
        """Open an existing file (or create with ``OpenFlags.CREAT``)."""

    @abstractmethod
    def close(self, handle: FileHandle) -> None:
        """Release an open handle."""

    @abstractmethod
    def unlink(self, path: str) -> None:
        """Remove a regular file."""

    @abstractmethod
    def rename(self, old_path: str, new_path: str) -> None:
        """Atomically rename within this file system."""

    def link(self, existing_path: str, new_path: str) -> None:
        """Create a hard link (optional: default ENOTSUP)."""
        raise NotSupported(f"{self.fs_name} does not support hard links")

    @abstractmethod
    def mkdir(self, path: str, mode: int = 0o755) -> None:
        """Create a directory (parent must exist)."""

    @abstractmethod
    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""

    @abstractmethod
    def readdir(self, path: str) -> List[str]:
        """Sorted names of entries in a directory."""

    # -- data --------------------------------------------------------------

    @abstractmethod
    def read(self, handle: FileHandle, offset: int, length: int) -> bytes:
        """Read up to ``length`` bytes at ``offset``; short only at EOF."""

    def read_into(
        self, handle: FileHandle, offset: int, length: int, out: bytearray, out_off: int = 0
    ) -> int:
        """Read up to ``length`` bytes at ``offset`` into ``out`` at
        ``out_off``; returns the byte count.  File systems override this to
        assemble straight into the caller's buffer (one copy end to end);
        the default funnels through :meth:`read`."""
        data = self.read(handle, offset, length)
        out[out_off : out_off + len(data)] = data
        return len(data)

    @abstractmethod
    def write(self, handle: FileHandle, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset`` (sparse writes allowed); returns n."""

    @abstractmethod
    def truncate(self, handle: FileHandle, size: int) -> None:
        """Grow (sparse) or shrink the file to ``size`` bytes."""

    @abstractmethod
    def fsync(self, handle: FileHandle) -> None:
        """Make the file's data and metadata durable."""

    def punch_hole(self, handle: FileHandle, offset: int, length: int) -> None:
        """Deallocate [offset, offset+length) so it reads as zeros.

        Mux uses this to release a tier's copy after migration commits.
        Offsets must be block aligned.  Optional: default ENOTSUP.
        """
        raise NotSupported(f"{self.fs_name} does not support hole punching")

    def dax_map(self, handle: FileHandle):
        """Map an open, fully allocated file for direct access (DAX mmap).

        Returns a mapping addressed by *file block* that bypasses the
        file-system call path: ``load(block)`` and ``load_blocks(blocks,
        out, pos)`` read whole blocks, ``store(block, offset, data)`` and
        ``store_blocks(blocks, data)`` write and persist them.  The
        file's blocks are resolved at map time, and ``remap(blocks)``
        re-resolves the named ones after a punch or a write changed them;
        a hole is unmapped (``mapped(block)`` is False) and touching it
        raises.  ``block_size`` and ``blocks`` give the mapping's block
        size and how many file blocks it covers, ``grow(n)`` maps ``n``
        more after a write extended the file, and ``fence()`` orders the
        flushed stores before what follows.
        Optional: default ENOTSUP.
        """
        raise NotSupported(f"{self.fs_name} has no DAX path")

    # -- metadata -----------------------------------------------------------

    @abstractmethod
    def getattr(self, path: str) -> Stat:
        """Stat a path."""

    @abstractmethod
    def setattr(self, path: str, **attrs: object) -> Stat:
        """Update metadata attributes (atime/mtime/ctime/mode); returns new Stat."""

    @abstractmethod
    def statfs(self) -> FsStats:
        """Space accounting for the whole file system."""

    def load_hint(self):
        """The queue gauge behind this file system, or None (the default).

        What Mux's pressure monitor samples to route around a backlogged
        tier: an object with ``queued_at(now_ns)`` and ``nchannels``.  A
        file system that returns None is simply not load-tracked.
        """
        return None

    # -- conveniences (shared implementations) -------------------------------

    def exists(self, path: str) -> bool:
        """True if ``path`` resolves to a file or directory."""
        from repro.errors import FsError

        try:
            self.getattr(path)
            return True
        except FsError:
            return False

    def append(self, handle: FileHandle, data: bytes) -> int:
        """Write ``data`` at the current end of file."""
        size = self.getattr(handle.path).size
        return self.write(handle, size, data)

    def read_file(self, path: str) -> bytes:
        """Whole-file read convenience (tests/examples)."""
        handle = self.open(path, OpenFlags.RDONLY)
        try:
            size = self.getattr(path).size
            return self.read(handle, 0, size)
        finally:
            self.close(handle)

    def write_file(self, path: str, data: bytes) -> None:
        """Whole-file create-or-replace convenience (tests/examples)."""
        flags = OpenFlags.RDWR | OpenFlags.CREAT | OpenFlags.TRUNC
        handle = self.open(path, flags)
        try:
            self.write(handle, 0, data)
        finally:
            self.close(handle)

    # -- housekeeping ---------------------------------------------------------

    def sync(self) -> None:
        """Flush all dirty state (default: nothing buffered)."""

    def check_flags(self, flags: int) -> None:
        access = flags & OpenFlags.ACCESS_MASK
        if access not in (OpenFlags.RDONLY, OpenFlags.WRONLY, OpenFlags.RDWR):
            raise InvalidArgument(f"bad access mode in flags {flags:#x}")


def attrs_for_update(attrs: Dict[str, object]) -> Dict[str, object]:
    """Validate a setattr attribute dict, returning only known attributes."""
    allowed = {"atime", "mtime", "ctime", "mode"}
    unknown = set(attrs) - allowed
    if unknown:
        raise InvalidArgument(f"setattr does not support {sorted(unknown)}")
    return dict(attrs)
