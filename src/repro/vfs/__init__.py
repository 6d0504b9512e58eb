"""VFS layer: the interface Mux implements upward and consumes downward."""

from repro.vfs.interface import FileHandle, FileSystem, OpenFlags
from repro.vfs.stat import (
    AGGREGATED_ATTRS,
    SINGLE_OWNER_ATTRS,
    FileType,
    FsStats,
    Stat,
)
from repro.vfs.vfs import DISPATCH_COST_NS, VFS

__all__ = [
    "FileHandle",
    "FileSystem",
    "OpenFlags",
    "AGGREGATED_ATTRS",
    "SINGLE_OWNER_ATTRS",
    "FileType",
    "FsStats",
    "Stat",
    "DISPATCH_COST_NS",
    "VFS",
]
