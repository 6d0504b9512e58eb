"""Collective inodes, metadata affinity and the Mux namespace (§2.3).

Mux distributes a file's blocks across file systems, so no single native
file system holds authoritative metadata.  Mux resolves this with
*metadata affinity*: each single-owner attribute (size, atime, mtime,
ctime, mode) has exactly one affinitive file system at any instant — the
one that last produced the attribute's value.  Attribute values are cached
in a *collective inode* so getattr never has to fan out; aggregated
attributes (disk consumption) are summed across all participating file
systems on demand.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.core.blt import BlockLookupTable, ExtentBlt, ReplicaSet
from repro.core.dcache import DentryCache
from repro.core.intervals import BlockIntervalSet
from repro.vfs import path as vpath
from repro.vfs.interface import FileHandle
from repro.vfs.stat import SINGLE_OWNER_ATTRS, FileType, Stat


class MetadataAffinity:
    """Tracks the affinitive tier for every single-owner attribute."""

    def __init__(self, initial_tier: Optional[int]) -> None:
        self._owners: Dict[str, Optional[int]] = {
            attr: initial_tier for attr in SINGLE_OWNER_ATTRS
        }

    def owner(self, attr: str) -> Optional[int]:
        try:
            return self._owners[attr]
        except KeyError:
            raise InvalidArgument(f"{attr!r} is not a single-owner attribute")

    def set_owner(self, attr: str, tier_id: int) -> None:
        if attr not in self._owners:
            raise InvalidArgument(f"{attr!r} is not a single-owner attribute")
        self._owners[attr] = tier_id

    def owners(self) -> Dict[str, Optional[int]]:
        return dict(self._owners)


class CollectiveInode:
    """Mux's per-file metadata hub: cached attributes, affinity, BLT, OCC state."""

    def __init__(
        self,
        ino: int,
        file_type: FileType,
        now: float,
        mode: int,
        blt: Optional[BlockLookupTable] = None,
        initial_tier: Optional[int] = None,
    ) -> None:
        self.ino = ino
        self.file_type = file_type
        #: current path of the file inside the Mux namespace; kept so each
        #: tier's backing (sparse) file can be found under the same name
        self.rel_path = "/"
        self.size = 0
        self.atime = now
        self.mtime = now
        self.ctime = now
        self.mode = mode
        self.nlink = 2 if file_type is FileType.DIRECTORY else 1
        self.affinity = MetadataAffinity(initial_tier)
        self.blt: BlockLookupTable = blt if blt is not None else ExtentBlt()
        self.entries: Dict[str, int] = {}
        # --- OCC Synchronizer state (§2.4) ---
        #: version counter, incremented at start and end of each migration
        self.version = 0
        #: migration in flight?
        self.migration_active = False
        #: blocks the user wrote while a migration was active, kept as
        #: disjoint intervals so the OCC clean-set math is O(runs)
        self.dirty_during_migration = BlockIntervalSet()
        #: pessimistic fallback lock
        self.locked = False
        # --- delegation state ---
        #: open per-tier handles, created lazily
        self.tier_handles: Dict[int, FileHandle] = {}
        #: tiers on which the backing sparse file exists
        self.tiers_present: Set[int] = set()
        # --- lazy metadata synchronization bookkeeping ---
        self.reads_since_atime_sync = 0
        self.writes_since_mtime_sync = 0
        #: per-file placement pin: overrides the policy for new writes
        self.pinned_tier: Optional[int] = None
        #: mirror replica map (None until the file earns a mirror, so the
        #: common unmirrored case costs nothing on the hot paths)
        self.replicas: Optional[ReplicaSet] = None

    @property
    def is_dir(self) -> bool:
        return self.file_type is FileType.DIRECTORY

    def stat(
        self, blocks: int = 0, stale_attrs: Optional[List[str]] = None
    ) -> Stat:
        """Attributes from the collective-inode cache.

        ``stale_attrs`` lists attributes whose affinitive file system is
        offline: the cached value is served anyway (affinity failover) but
        flagged so callers can distinguish degraded answers.
        """
        extra = {"affinity": self.affinity.owners(), "version": self.version}
        if stale_attrs:
            extra["stale_attrs"] = list(stale_attrs)
        return Stat(
            ino=self.ino,
            file_type=self.file_type,
            size=self.size,
            blocks=blocks,
            atime=self.atime,
            mtime=self.mtime,
            ctime=self.ctime,
            mode=self.mode,
            nlink=self.nlink,
            extra=extra,
        )


class MuxNamespace:
    """Mux's uniform directory tree over collective inodes (§2.1).

    The namespace is Mux metadata; the same file *name* may exist on
    several underlying file systems (as sparse backing files), but users
    see exactly one merged tree, rooted here.
    """

    ROOT_INO = 1

    def __init__(self, now: float) -> None:
        self._inodes: Dict[int, CollectiveInode] = {}
        self._next_ino = self.ROOT_INO
        self.root = self._alloc(FileType.DIRECTORY, now, 0o755, None, None)
        #: path -> ino lookup cache (positive + negative entries).  Safe
        #: because inode numbers are never reused: a stale positive entry
        #: misses in ``_inodes`` and falls back to the walk.  Mutators
        #: below invalidate the affected names explicitly.
        self.dcache = DentryCache()

    def _alloc(
        self,
        file_type: FileType,
        now: float,
        mode: int,
        initial_tier: Optional[int],
        blt: Optional[BlockLookupTable],
    ) -> CollectiveInode:
        inode = CollectiveInode(
            self._next_ino, file_type, now, mode, blt=blt, initial_tier=initial_tier
        )
        self._inodes[inode.ino] = inode
        self._next_ino += 1
        return inode

    # -- resolution --------------------------------------------------------

    def get(self, ino: int) -> CollectiveInode:
        try:
            return self._inodes[ino]
        except KeyError:
            raise FileNotFound(f"mux: stale inode {ino}")

    def resolve(self, path: str) -> CollectiveInode:
        path = vpath.normalize(path)
        cached = self.dcache.get(path)
        if cached is not None:
            if DentryCache.is_negative(cached):
                raise FileNotFound(f"mux: {path!r} does not exist")
            inode = self._inodes.get(cached)
            if inode is not None:
                return inode
            self.dcache.invalidate(path)  # stale: inode died; re-walk
        inode = self.root
        for name in vpath.components(path):
            if not inode.is_dir:
                raise NotADirectory(f"mux: component of {path!r} not a directory")
            try:
                inode = self._inodes[inode.entries[name]]
            except KeyError:
                self.dcache.put_negative(path)
                raise FileNotFound(f"mux: {path!r} does not exist")
        self.dcache.put(path, inode.ino)
        return inode

    def resolve_parent(self, path: str) -> tuple:
        parent_path, name = vpath.split(path)
        if not name:
            raise InvalidArgument("mux: operation on root")
        parent = self.resolve(parent_path)
        if not parent.is_dir:
            raise NotADirectory(f"mux: {parent_path!r} is not a directory")
        return parent, name

    def exists(self, path: str) -> bool:
        try:
            self.resolve(path)
            return True
        except (FileNotFound, NotADirectory):
            return False

    # -- mutation ---------------------------------------------------------------

    def create_file(
        self,
        path: str,
        now: float,
        mode: int,
        initial_tier: Optional[int],
        blt: Optional[BlockLookupTable],
    ) -> CollectiveInode:
        path = vpath.normalize(path)
        parent, name = self.resolve_parent(path)
        if name in parent.entries:
            raise FileExists(f"mux: {path!r} exists")
        inode = self._alloc(FileType.REGULAR, now, mode, initial_tier, blt=blt)
        parent.entries[name] = inode.ino
        parent.mtime = parent.ctime = now
        self.dcache.invalidate(path)  # the name exists now: drop negatives
        return inode

    def mkdir(self, path: str, now: float, mode: int) -> CollectiveInode:
        path = vpath.normalize(path)
        parent, name = self.resolve_parent(path)
        if name in parent.entries:
            raise FileExists(f"mux: {path!r} exists")
        inode = self._alloc(FileType.DIRECTORY, now, mode, None, None)
        parent.entries[name] = inode.ino
        parent.nlink += 1
        parent.mtime = parent.ctime = now
        self.dcache.invalidate(path)
        return inode

    def unlink(self, path: str, now: float) -> CollectiveInode:
        path = vpath.normalize(path)
        parent, name = self.resolve_parent(path)
        if name not in parent.entries:
            raise FileNotFound(f"mux: {path!r} does not exist")
        inode = self._inodes[parent.entries[name]]
        if inode.is_dir:
            raise IsADirectory(f"mux: {path!r} is a directory")
        del parent.entries[name]
        parent.mtime = parent.ctime = now
        inode.nlink -= 1
        if inode.nlink == 0:
            del self._inodes[inode.ino]
        self.dcache.invalidate(path)
        return inode

    def rmdir(self, path: str, now: float) -> None:
        path = vpath.normalize(path)
        parent, name = self.resolve_parent(path)
        if name not in parent.entries:
            raise FileNotFound(f"mux: {path!r} does not exist")
        inode = self._inodes[parent.entries[name]]
        if not inode.is_dir:
            raise NotADirectory(f"mux: {path!r} is not a directory")
        if inode.entries:
            raise DirectoryNotEmpty(f"mux: {path!r} is not empty")
        del parent.entries[name]
        del self._inodes[inode.ino]
        parent.nlink -= 1
        parent.mtime = parent.ctime = now
        # negative entries for names that used to fail beneath this
        # directory must not outlive it
        self.dcache.invalidate_prefix(path)

    def rename(
        self, old_path: str, new_path: str, now: float
    ) -> Tuple[CollectiveInode, Optional[CollectiveInode]]:
        """Move ``old_path`` to ``new_path``; returns the moving inode and
        the inode of a clobbered regular-file target (None otherwise).

        The caller must drop what the replaced file left behind (backing
        files, policy hotness, cache slots): its inode is deleted here and
        ino numbers are never reused, so any state left keyed on it leaks
        forever.
        """
        old_path = vpath.normalize(old_path)
        new_path = vpath.normalize(new_path)
        if old_path == new_path:
            return self.resolve(old_path), None  # must exist; successful no-op
        if vpath.is_under(new_path, old_path):
            raise InvalidArgument(
                f"mux: cannot move {old_path!r} into itself"
            )
        old_parent, old_name = self.resolve_parent(old_path)
        new_parent, new_name = self.resolve_parent(new_path)
        if old_name not in old_parent.entries:
            raise FileNotFound(f"mux: {old_path!r} does not exist")
        moving = self._inodes[old_parent.entries[old_name]]
        replaced: Optional[CollectiveInode] = None
        if new_name in new_parent.entries:
            existing = self._inodes[new_parent.entries[new_name]]
            if existing.is_dir:
                if not moving.is_dir:
                    raise IsADirectory(f"mux: {new_path!r} is a directory")
                if existing.entries:
                    raise DirectoryNotEmpty(f"mux: {new_path!r} is not empty")
                del self._inodes[existing.ino]
                new_parent.nlink -= 1
            else:
                if moving.is_dir:
                    raise NotADirectory(f"mux: {new_path!r} is not a directory")
                del self._inodes[existing.ino]
                replaced = existing
        del old_parent.entries[old_name]
        new_parent.entries[new_name] = moving.ino
        if moving.is_dir:
            old_parent.nlink -= 1
            new_parent.nlink += 1
        old_parent.mtime = old_parent.ctime = now
        new_parent.mtime = new_parent.ctime = now
        moving.ctime = now
        if moving.is_dir:
            # every cached descendant path changed; directory moves are
            # rare enough that a full drop beats a prefix scan
            self.dcache.clear()
        else:
            self.dcache.invalidate(old_path)
            self.dcache.invalidate(new_path)
        return moving, replaced

    def walk(
        self, inode: CollectiveInode, path: str
    ) -> Iterator[Tuple[CollectiveInode, str]]:
        """``(inode, path)`` for everything under ``inode`` — taken to sit
        at ``path`` — and then ``inode`` itself: children first."""
        if inode.is_dir:
            for name, child in inode.entries.items():
                yield from self.walk(self._inodes[child], vpath.join(path, name))
        yield inode, path

    def readdir(self, path: str) -> List[str]:
        inode = self.resolve(path)
        if not inode.is_dir:
            raise NotADirectory(f"mux: {path!r} is not a directory")
        return sorted(inode.entries)

    def files(self) -> Iterator[CollectiveInode]:
        """All regular files (policy runners scan these)."""
        return (
            i for i in self._inodes.values() if i.file_type is not FileType.DIRECTORY
        )

    def path_of(self, target: CollectiveInode) -> Optional[str]:
        """Reverse lookup of a file's current path (O(n); tooling only)."""

        def walk(dir_inode: CollectiveInode, prefix: str) -> Optional[str]:
            for name, ino in dir_inode.entries.items():
                child = self._inodes.get(ino)
                if child is None:
                    continue
                child_path = prefix.rstrip("/") + "/" + name
                if child is target:
                    return child_path
                if child.is_dir:
                    found = walk(child, child_path)
                    if found:
                        return found
            return None

        if target is self.root:
            return "/"
        return walk(self.root, "/")

    def __len__(self) -> int:
        return len(self._inodes)
