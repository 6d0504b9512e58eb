"""The VFS layer: a mount table plus call dispatch.

Mux is "presented to the VFS layer as a standalone file system, making the
OS send file operations to Mux through the existing VFS interface" (§2.1);
Mux then "sends the split requests to device-specific file systems by
calling the same VFS function that invokes it".  This module is that shared
entry point: native file systems are mounted at their own mount points,
Mux is mounted at another, and both applications and Mux itself route
operations through :class:`VFS`.

Every dispatched call charges a small CPU cost to the simulated clock —
the per-call software overhead of the VFS path.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import CrossDevice, FileNotFound, InvalidArgument, NotADirectory
from repro.sim.clock import SimClock
from repro.vfs import path as vpath
from repro.vfs.interface import FileHandle, FileSystem, OpenFlags
from repro.vfs.stat import FsStats, Stat

#: CPU cost of one VFS dispatch (path lookup in the mount table,
#: permission checks, fd table work).  Roughly the syscall+VFS overhead of
#: a warm Linux path, in nanoseconds.
DISPATCH_COST_NS = 300


class VFS:
    """Mount table and uniform entry point for all file operations."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._mounts: Dict[str, FileSystem] = {}

    # -- mount management --------------------------------------------------

    def mount(self, mountpoint: str, fs: FileSystem) -> None:
        """Attach ``fs`` at ``mountpoint`` (must not nest inside another)."""
        mountpoint = vpath.normalize(mountpoint)
        if mountpoint in self._mounts:
            raise InvalidArgument(f"{mountpoint!r} is already a mount point")
        for existing in self._mounts:
            if vpath.is_under(mountpoint, existing) or vpath.is_under(
                existing, mountpoint
            ):
                raise InvalidArgument(
                    f"mount {mountpoint!r} overlaps existing mount {existing!r}"
                )
        self._mounts[mountpoint] = fs

    def unmount(self, mountpoint: str) -> FileSystem:
        """Detach and return the file system at ``mountpoint``."""
        mountpoint = vpath.normalize(mountpoint)
        try:
            fs = self._mounts.pop(mountpoint)
        except KeyError:
            raise FileNotFound(f"no file system mounted at {mountpoint!r}")
        return fs

    def mounts(self) -> Dict[str, FileSystem]:
        """Snapshot of the mount table."""
        return dict(self._mounts)

    def resolve(self, path: str) -> Tuple[FileSystem, str]:
        """Map a global path to (file system, fs-internal path).

        Mount points cannot nest, so at most one prefix of the path is a
        mount point: walking the prefixes down from the root finds it with
        one dict probe per path component above it.
        """
        path = vpath.normalize(path)
        mounts = self._mounts
        fs = mounts.get(vpath.ROOT)
        if fs is not None:
            return fs, path  # a root mount is the only mount
        end = 0
        while True:
            end = path.find(vpath.SEP, end + 1)
            probe = path if end < 0 else path[:end]
            fs = mounts.get(probe)
            if fs is not None:
                return fs, path[len(probe):] or vpath.ROOT
            if end < 0:
                raise FileNotFound(f"{path!r} is not under any mount point")

    # -- dispatch helpers -----------------------------------------------------

    def _charge(self) -> None:
        self.clock.advance_ns(DISPATCH_COST_NS)

    # -- path-based operations ---------------------------------------------------

    def create(self, path: str, mode: int = 0o644) -> FileHandle:
        self._charge()
        fs, inner = self.resolve(path)
        return fs.create(inner, mode)

    def open(self, path: str, flags: int = OpenFlags.RDWR) -> FileHandle:
        self._charge()
        fs, inner = self.resolve(path)
        return fs.open(inner, flags)

    def unlink(self, path: str) -> None:
        self._charge()
        fs, inner = self.resolve(path)
        fs.unlink(inner)

    def rename(self, old_path: str, new_path: str) -> None:
        self._charge()
        old_fs, old_inner = self.resolve(old_path)
        new_fs, new_inner = self.resolve(new_path)
        if old_fs is not new_fs:
            raise CrossDevice(
                f"rename {old_path!r} -> {new_path!r} crosses file systems"
            )
        old_fs.rename(old_inner, new_inner)

    def link(self, existing_path: str, new_path: str) -> None:
        self._charge()
        old_fs, old_inner = self.resolve(existing_path)
        new_fs, new_inner = self.resolve(new_path)
        if old_fs is not new_fs:
            raise CrossDevice(
                f"link {existing_path!r} -> {new_path!r} crosses file systems"
            )
        old_fs.link(old_inner, new_inner)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._charge()
        fs, inner = self.resolve(path)
        fs.mkdir(inner, mode)

    def rmdir(self, path: str) -> None:
        self._charge()
        fs, inner = self.resolve(path)
        fs.rmdir(inner)

    def readdir(self, path: str) -> List[str]:
        self._charge()
        fs, inner = self.resolve(path)
        return fs.readdir(inner)

    def getattr(self, path: str) -> Stat:
        self._charge()
        fs, inner = self.resolve(path)
        return fs.getattr(inner)

    def setattr(self, path: str, **attrs: object) -> Stat:
        self._charge()
        fs, inner = self.resolve(path)
        return fs.setattr(inner, **attrs)

    def statfs(self, path: str) -> FsStats:
        self._charge()
        fs, _ = self.resolve(path)
        return fs.statfs()

    def exists(self, path: str) -> bool:
        # NotADirectory means a path component resolved to a regular file
        # (seen mid-evacuation when a tier's namespace is partially drained);
        # for existence purposes that is the same answer as "not there"
        try:
            self.getattr(path)
            return True
        except (FileNotFound, NotADirectory):
            return False

    # -- handle-based operations ---------------------------------------------------

    def read(self, handle: FileHandle, offset: int, length: int) -> bytes:
        self._charge()
        return handle.fs.read(handle, offset, length)

    def read_into(
        self, handle: FileHandle, offset: int, length: int, out: bytearray, out_off: int = 0
    ) -> int:
        self._charge()
        return handle.fs.read_into(handle, offset, length, out, out_off)

    def write(self, handle: FileHandle, offset: int, data: bytes) -> int:
        self._charge()
        return handle.fs.write(handle, offset, data)

    def truncate(self, handle: FileHandle, size: int) -> None:
        self._charge()
        handle.fs.truncate(handle, size)

    def fsync(self, handle: FileHandle) -> None:
        self._charge()
        handle.fs.fsync(handle)

    def punch_hole(self, handle: FileHandle, offset: int, length: int) -> None:
        self._charge()
        handle.fs.punch_hole(handle, offset, length)

    def close(self, handle: FileHandle) -> None:
        self._charge()
        handle.fs.close(handle)

    # -- conveniences -------------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        fs, inner = self.resolve(path)
        self._charge()
        return fs.read_file(inner)

    def write_file(self, path: str, data: bytes) -> None:
        fs, inner = self.resolve(path)
        self._charge()
        fs.write_file(inner, data)
