"""fsck: offline consistency checkers for the native file systems and Mux.

A production file system ships a checker; so does this reproduction.  The
checkers validate the cross-structure invariants that no single component
can see on its own:

* ``check_native_fs`` — allocator bitmap vs. the union of all inode block
  maps (no leaks, no double ownership, no out-of-range blocks), directory
  tree connectivity, link counts, size vs. mapped blocks.
* ``check_mux`` — the Block Lookup Table vs. reality: every BLT-mapped
  block's tier actually holds that block in the backing sparse file; the
  per-tier block accounting matches; affinity owners are registered
  tiers; no file is stuck in a migration state; dirty write-back cache
  blocks reference live files, resident slots and registered destage
  targets.
* ``reconcile_cache`` — post-crash repair: the SCM cache file lives on
  PM, so absorbed-but-not-destaged writes legally survive a crash as
  dirty slots.  Recovery must push them to their owning tiers (or drop
  marks whose file died) before the cache can serve write-back traffic
  again.

Each checker returns a list of human-readable problem strings (empty =
clean), so tests can assert emptiness and operators can print reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.mux import MuxFileSystem
from repro.errors import FileNotFound
from repro.fscommon.basefs import NativeFileSystem
from repro.fscommon.journaledfs import JournaledFileSystem
from repro.vfs import path as vpath
from repro.vfs.stat import FileType


def check_native_fs(fs: NativeFileSystem) -> List[str]:
    """Validate one native file system's internal consistency."""
    problems: List[str] = []
    problems += _check_block_ownership(fs)
    problems += _check_directory_tree(fs)
    problems += _check_sizes(fs)
    problems += _check_writeback_losses(fs)
    if isinstance(fs, JournaledFileSystem):
        problems += _check_delalloc(fs)
    return problems


def _check_writeback_losses(fs: NativeFileSystem) -> List[str]:
    """Report dirty intervals silently dropped by failed writeback.

    The ext4-style ``clean`` policy marks pages clean on a persistent
    writeback error, so the *next* fsync succeeds even though the bytes
    never reached the disk; the ``keep`` policy drops them once the retry
    budget is exhausted.  Either way the errseq ledger remembers exactly
    which intervals vanished — fsck surfaces them so the loss is an
    operator-visible finding, not a silent hole in the file.
    """
    return [
        f"ino {ino}: writeback of blocks [{fb},+{count}) failed; "
        f"data was never persisted (reported via errseq at fsync)"
        for ino, fb, count in fs.lost_intervals()
    ]


def _allocator_views(fs: NativeFileSystem):
    allocator = getattr(fs, "allocator", None)
    if allocator is None:
        return []
    groups = getattr(allocator, "groups", None)
    return list(groups) if groups is not None else [allocator]


def _check_block_ownership(fs: NativeFileSystem) -> List[str]:
    problems: List[str] = []
    owned: Dict[int, int] = {}  # device block -> owning ino
    for inode in fs.inodes:
        if inode.is_dir:
            continue
        for extent in inode.blockmap:
            for i in range(extent.count):
                block = extent.value + i
                if block in owned:
                    problems.append(
                        f"block {block} owned by both ino {owned[block]} "
                        f"and ino {inode.ino}"
                    )
                owned[block] = inode.ino
    for alloc in _allocator_views(fs):
        for block in range(alloc.base, alloc.base + alloc.count):
            allocated = alloc.is_allocated(block)
            if allocated and block not in owned:
                # delalloc-less file systems must not leak blocks; the SCM
                # cache file and the journal live outside the data range
                problems.append(f"leaked block {block}: allocated but unowned")
            if not allocated and block in owned:
                problems.append(
                    f"block {block} owned by ino {owned[block]} but marked free"
                )
    for block, ino in owned.items():
        if not any(
            alloc.base <= block < alloc.base + alloc.count
            for alloc in _allocator_views(fs)
        ):
            problems.append(f"ino {ino} maps out-of-range block {block}")
    return problems


def _check_directory_tree(fs: NativeFileSystem) -> List[str]:
    problems: List[str] = []
    reachable: Set[int] = set()

    def walk(inode, depth=0):
        if depth > 256:
            problems.append("directory tree deeper than 256 (cycle?)")
            return
        if inode.ino in reachable:
            problems.append(f"ino {inode.ino} reachable via two paths")
            return
        reachable.add(inode.ino)
        if inode.is_dir:
            for name, child_ino in inode.entries.items():
                child = fs.inodes.maybe_get(child_ino)
                if child is None:
                    problems.append(
                        f"dangling entry {name!r} -> ino {child_ino} "
                        f"in dir {inode.ino}"
                    )
                    continue
                walk(child, depth + 1)

    walk(fs._root)
    for inode in fs.inodes:
        if inode.ino not in reachable:
            problems.append(f"orphan inode {inode.ino} (unreachable from root)")
    return problems


def _check_sizes(fs: NativeFileSystem) -> List[str]:
    problems: List[str] = []
    bs = fs.block_size
    for inode in fs.inodes:
        if inode.is_dir:
            continue
        end = inode.blockmap.end_block()
        max_needed = -(-inode.size // bs) if inode.size else 0
        if end > max_needed:
            problems.append(
                f"ino {inode.ino}: blocks mapped beyond EOF "
                f"(end_block {end} > {max_needed} for size {inode.size})"
            )
        mapped = inode.blockmap.mapped_blocks
        if inode.allocated_blocks != mapped:
            problems.append(
                f"ino {inode.ino}: allocated_blocks {inode.allocated_blocks} "
                f"!= mapped {mapped}"
            )
    return problems


def _check_delalloc(fs: JournaledFileSystem) -> List[str]:
    problems: List[str] = []
    for ino, marks in fs._delalloc.items():
        inode = fs.inodes.maybe_get(ino)
        if inode is None:
            if marks:
                problems.append(f"delalloc marks for dead inode {ino}")
            continue
        for fb in marks:
            if inode.blockmap.lookup(fb) is not None:
                problems.append(
                    f"ino {ino} block {fb} marked delalloc but already mapped"
                )
    return problems


# ---------------------------------------------------------------------------
# Mux-level checks
# ---------------------------------------------------------------------------


def check_mux(mux: MuxFileSystem, deep: bool) -> List[str]:
    """Validate Mux's cross-file-system invariants.

    ``deep=True`` (what recovery checks want) additionally verifies that
    every BLT-mapped block is materialized in the owning tier's backing
    file (reads device state; charges simulated time).
    """
    problems: List[str] = []
    tier_ids = set(mux.tier_ids())
    for inode in mux.ns.files():
        label = inode.rel_path or f"ino {inode.ino}"
        # structural BLT invariants
        check = getattr(inode.blt, "check_invariants", None)
        if check is not None:
            try:
                check()
            except AssertionError as exc:
                problems.append(f"{label}: BLT invariant violated: {exc}")
        # tiers in the BLT must be registered and have backing files
        for tier_id in inode.blt.tiers_used():
            if tier_id not in tier_ids:
                problems.append(f"{label}: BLT references unknown tier {tier_id}")
                continue
            if tier_id not in inode.tiers_present:
                problems.append(
                    f"{label}: tier {tier_id} holds blocks but is not marked present"
                )
        # no stuck migration state
        if inode.migration_active:
            problems.append(f"{label}: migration flag stuck on")
        if inode.locked:
            problems.append(f"{label}: fallback lock stuck on")
        # affinity owners must be registered tiers
        for attr, owner in inode.affinity.owners().items():
            if owner is not None and owner not in tier_ids:
                problems.append(f"{label}: {attr} affinitive to unknown tier {owner}")
        # size must cover the mapped range
        end = inode.blt.end_block()
        if end * mux.block_size > _round_up(inode.size, mux.block_size):
            problems.append(
                f"{label}: BLT maps past EOF (end_block {end}, size {inode.size})"
            )
        problems += _check_tier_health(mux, inode, label)
        problems += _check_replicas(mux, inode, label)
        if deep:
            problems += _check_backing_blocks(mux, inode, label)
    try:
        mux.mirrors.check_invariants()
    except AssertionError as exc:
        problems.append(f"mirrors: sync work set lost a stale file: {exc}")
    problems += _check_cache_dirty(mux)
    return problems


def _check_cache_dirty(mux: MuxFileSystem) -> List[str]:
    """Dirty write-back blocks must be destageable.

    A crash with dirty SCM blocks is *legal* — the cache file is on PM,
    so the data is durable — but each dirty mark must still point at a
    live file, a resident cache slot, and a registered owning tier, or
    the eventual destage has nowhere sound to go.
    """
    cache = mux.cache
    if cache is None:
        return []
    problems: List[str] = []
    try:
        cache.check_invariants()
    except AssertionError as exc:
        problems.append(f"cache: invariant violated: {exc}")
    tier_ids = set(mux.tier_ids())
    for ino in cache.dirty_files():
        if not cache.write_back:
            problems.append(
                f"cache: ino {ino} has dirty blocks but write-back is off"
            )
        try:
            inode = mux.ns.get(ino)
        except FileNotFound:
            stranded = sum(count for _, count in cache.dirty_runs(ino))
            problems.append(
                f"cache: {stranded} dirty block(s) for dead ino {ino}"
            )
            continue
        label = inode.rel_path or f"ino {ino}"
        for start, count in cache.dirty_runs(ino):
            for run_start, run_len, tier_id in inode.blt.runs(start, count):
                if tier_id is None:
                    problems.append(
                        f"{label}: dirty run [{run_start},+{run_len}) has "
                        f"no owning tier to destage to"
                    )
                elif tier_id not in tier_ids:
                    problems.append(
                        f"{label}: dirty run [{run_start},+{run_len}) owned "
                        f"by unknown tier {tier_id}"
                    )
            for fb in range(start, start + count):
                if not cache.contains(ino, fb):
                    problems.append(
                        f"{label}: dirty block {fb} has no resident cache slot"
                    )
    for ino, fb, count in cache.lost_intervals():
        problems.append(
            f"cache: ino {ino} blocks [{fb},+{count}) absorbed but lost "
            f"to a failed destage (data never reached the owning tier)"
        )
    return problems


def reconcile_cache(mux: MuxFileSystem, report: Optional[List[str]]) -> int:
    """Destage every dirty block that survived a crash; returns blocks handled.

    Dirty marks whose file no longer exists are dropped (the unlink won);
    everything else is written back to its owning tier and flushed, so the
    recovered stack starts with a clean cache.  Offline tiers keep their
    blocks dirty for a later evacuation or reattach cycle.

    When ``report`` is given, intervals previously *lost* to failed
    destages are appended to it (and acknowledged): reconcile repairs
    what it can, but it must also tell the operator what it cannot —
    those bytes are gone and no amount of destaging brings them back.
    """
    cache = mux.cache
    if cache is None or not cache.write_back:
        return 0
    if report is not None:
        for ino, fb, count in cache.lost_intervals():
            report.append(
                f"ino {ino}: blocks [{fb},+{count}) were lost to a failed "
                f"destage before the crash; unrecoverable"
            )
        cache.clear_lost()
    reconciled = 0
    for ino in cache.dirty_files():
        try:
            inode = mux.ns.get(ino)
        except FileNotFound:
            reconciled += sum(count for _, count in cache.dirty_runs(ino))
            cache.invalidate_file(ino)
            continue
        reconciled += mux.cachectl.destage_file(inode, durable=True)
    return reconciled


def _check_tier_health(mux: MuxFileSystem, inode, label: str) -> List[str]:
    """Degraded-mode findings: data or metadata stranded on a dead tier.

    A block mapped to an OFFLINE tier is unreadable (every read raises
    ``EIO``) until the tier is evacuated or brought back; an affinitive
    attribute owned by an OFFLINE tier forces getattr to serve the
    collective-inode cached value flagged stale.  Both are operator-visible
    conditions fsck must report, not silently tolerate.
    """
    problems: List[str] = []
    for tier_id in inode.blt.tiers_used():
        tier = mux.registry.maybe_get(tier_id)
        if tier is None:
            continue  # unknown tier already reported above
        if tier.health.is_offline:
            stranded = inode.blt.blocks_on(tier_id)
            problems.append(
                f"{label}: {stranded} block(s) stranded on offline "
                f"tier {tier.name} (reads will raise EIO)"
            )
    for attr, owner in inode.affinity.owners().items():
        if owner is None:
            continue
        tier = mux.registry.maybe_get(owner)
        if tier is not None and tier.health.is_offline:
            problems.append(
                f"{label}: {attr} affinitive to offline tier {tier.name} "
                f"(getattr serves stale cached value)"
            )
    return problems


def _check_replicas(mux: MuxFileSystem, inode, label: str) -> List[str]:
    """Replica-divergence audit (MOST).

    A mirror's sync state is a *claim* about another tier's bytes; fsck
    cross-checks every claim against the BLT, which stays the single
    source of authority.  Flags: mirror state on an unregistered tier,
    clean∩stale overlap (an interval cannot be both), clean intervals
    over holes or past EOF (claiming bytes nothing authoritatively owns),
    and a tier claiming to mirror blocks it actually owns — a replica set
    degenerating into double-counted authority.
    """
    replicas = inode.replicas
    if replicas is None:
        return []
    problems: List[str] = []
    tier_ids = set(mux.tier_ids())
    try:
        replicas.check_invariants()
    except AssertionError as exc:
        problems.append(f"{label}: replica invariant violated: {exc}")
    end = inode.blt.end_block()
    for tier_id in replicas.tiers():
        if tier_id not in tier_ids:
            problems.append(
                f"{label}: mirror state references unknown tier {tier_id}"
            )
            continue
        stale = replicas.stale_runs(tier_id)
        for start, count in replicas.clean_runs(tier_id):
            if any(s < start + count and start < s + n for s, n in stale):
                problems.append(
                    f"{label}: mirror on tier {tier_id} marks "
                    f"[{start},+{count}) both clean and stale"
                )
        for start, count in replicas.clean_runs(tier_id):
            if start + count > end:
                problems.append(
                    f"{label}: mirror on tier {tier_id} claims clean blocks "
                    f"[{start},+{count}) beyond the mapped range (end {end})"
                )
                continue
            for run_start, run_len, owner in inode.blt.runs(start, count):
                if owner is None:
                    problems.append(
                        f"{label}: mirror on tier {tier_id} claims clean "
                        f"blocks [{run_start},+{run_len}) over a hole"
                    )
                elif owner == tier_id:
                    problems.append(
                        f"{label}: tier {tier_id} claims to mirror blocks "
                        f"[{run_start},+{run_len}) it owns authoritatively"
                    )
    return problems


def _round_up(value: int, unit: int) -> int:
    return -(-value // unit) * unit


def _check_backing_blocks(mux: MuxFileSystem, inode, label: str) -> List[str]:
    """Every BLT-mapped block must be materialized on its owning tier."""
    problems: List[str] = []
    end = inode.blt.end_block()
    for start, count, tier_id in inode.blt.runs(0, end):
        if tier_id is None:
            continue
        tier = mux.registry.get(tier_id)
        full = vpath.join(tier.mount, inode.rel_path.lstrip("/"))
        try:
            backing_fs, inner = mux.vfs.resolve(full)
            backing_inode = backing_fs._resolve(inner)  # type: ignore[attr-defined]
        except Exception:
            problems.append(f"{label}: no backing file on tier {tier.name}")
            continue
        for fb in range(start, start + count):
            mapped = backing_inode.blockmap.lookup(fb)
            cached = False
            page_cache = getattr(backing_fs, "page_cache", None)
            if page_cache is not None:
                cached = page_cache.contains(backing_inode.ino, fb)
            delalloc = getattr(backing_fs, "_delalloc", {})
            pending = fb in delalloc.get(backing_inode.ino, set())
            if mapped is None and not cached and not pending:
                problems.append(
                    f"{label}: block {fb} assigned to {tier.name} "
                    f"but not materialized there"
                )
    return problems


def report(problems: List[str], subject: str) -> str:
    """Format a checker result as a human-readable report."""
    if not problems:
        return f"{subject}: clean"
    lines = [f"{subject}: {len(problems)} problem(s)"]
    lines.extend(f"  - {p}" for p in problems)
    return "\n".join(lines)
