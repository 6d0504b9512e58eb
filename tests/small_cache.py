"""A journaled file system on a 64-page page cache, shared by the
write-back tests: a few files of tens of blocks overflow it, so eviction
write-back runs in small scenarios."""

from __future__ import annotations

from repro.devices.hdd import HardDiskDrive
from repro.devices.ssd import SolidStateDrive
from repro.fs.ext4 import Ext4FileSystem
from repro.fs.xfs import XfsFileSystem
from repro.sim.clock import SimClock

BS = 4096
MIB = 1024 * 1024
CACHE_PAGES = 64
PAIRS = {"ext4": (Ext4FileSystem, HardDiskDrive), "xfs": (XfsFileSystem, SolidStateDrive)}


def small_cache_fs(fs_cls, device_cls):
    """``fs_cls`` on a fresh 64 MiB ``device_cls``, with a 64-page cache."""
    small = type(fs_cls.__name__ + "64", (fs_cls,), {"page_cache_max_pages": CACHE_PAGES})
    clock = SimClock()
    return small("fs", device_cls("dev", 64 * MIB, clock), clock)


def make_fs(name):
    """ext4 on an HDD or xfs on an SSD (``name``), on a 64-page cache."""
    return small_cache_fs(*PAIRS[name])
