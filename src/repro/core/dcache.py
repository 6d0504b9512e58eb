"""Dentry cache for Mux's union namespace.

Path resolution in :class:`~repro.core.metadata.MuxNamespace` walks one
dict per component; on metadata-heavy workloads that walk (plus the path
normalization feeding it) dominates host CPU.  This cache memoizes
*canonical path -> inode number* (positive entries) and *canonical path ->
does not exist* (negative entries), exactly like the kernel dcache in
front of a file system's own lookup.

Correctness model:

* inode numbers are never reused, so a stale positive entry whose inode
  died simply misses in the inode table and falls back to the walk;
* a positive entry can only go stale-but-resolvable through ``rename``,
  so rename invalidates both paths (and whole prefixes when a directory
  moves);
* negative entries die when the name is created (create/mkdir/rename
  target).

The cache is purely host-side state: no simulated-clock cost reads or
writes it, so hit/miss behaviour cannot change any benchmark fingerprint.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.vfs import path as vpath

#: sentinel stored for negative entries
_NEGATIVE = -1


class DentryCache:
    """Bounded positive + negative path-resolution cache."""

    #: entries kept; the oldest is evicted first
    CAPACITY = 8192

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- lookup ------------------------------------------------------------

    def get(self, path: str) -> Optional[int]:
        """Cached ino for ``path``, ``NEGATIVE`` marker, or None on miss."""
        ino = self._entries.get(path)
        if ino is None:
            self.misses += 1
            return None
        self.hits += 1
        return ino

    @staticmethod
    def is_negative(ino: int) -> bool:
        return ino == _NEGATIVE

    # -- population --------------------------------------------------------

    def put(self, path: str, ino: int) -> None:
        if len(self._entries) >= self.CAPACITY and path not in self._entries:
            self._entries.popitem(last=False)
        self._entries[path] = ino

    def put_negative(self, path: str) -> None:
        self.put(path, _NEGATIVE)

    # -- invalidation ------------------------------------------------------

    def invalidate(self, path: str) -> None:
        """Drop one path's entry (positive or negative)."""
        self._entries.pop(path, None)

    def invalidate_prefix(self, prefix: str) -> None:
        """Drop ``prefix`` and everything beneath it (directory moves)."""
        self._entries.pop(prefix, None)
        below = prefix.rstrip(vpath.SEP) + vpath.SEP
        dead = [p for p in self._entries if p.startswith(below)]
        for p in dead:
            del self._entries[p]

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
