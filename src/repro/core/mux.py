"""Mux: a tiered file system that talks to file systems, not device drivers.

``MuxFileSystem`` implements the VFS-facing :class:`FileSystem` interface
upward and *consumes the same interface* downward: every data operation is
split according to the per-file Block Lookup Table and delegated to the
native file systems registered as tiers, "by calling the same VFS function
that invokes it, but with different file handles, lengths, and offsets"
(§2.1).

Components (Figure 1c) and the module that implements each:

==========================  ==============================================
VFS Call Processor          this module: :class:`MuxFileSystem`, the
                            facade — argument checks, clock charges, the
                            read and write pipelines, fsync fan-out,
                            namespace and attribute ops, tier admin
FS Multiplexer              this module (``_fan_out``, ``_place``,
                            ``_segment_write``) + :mod:`repro.core.scheduler`
VFS Call Maker              :mod:`repro.core.tierfiles` — every call to a
                            tier: paths, handles, health, retry, EIO
File Blk. Tracker           :mod:`repro.core.blt` (§2.2)
Metadata Tracker            :mod:`repro.core.metadata` — collective
                            inodes, namespace, metadata affinity (§2.3)
State Bookkeeper            :mod:`repro.core.bookkeeper` — the metafile
OCC Synchronizer            :mod:`repro.core.occ` (§2.4)
Policy Runner               this module (``maintain``/``maintain_async``)
                            + :mod:`repro.core.migration`,
                            :mod:`repro.core.mirror` (MOST routing, sync)
Cache Controller            :mod:`repro.core.cachectl` over the
                            :mod:`repro.core.cache` mechanism (§2.5)
==========================  ==============================================

Files are backed by *sparse files of the same path* on each participating
tier, preserving file offsets so no extra translation layer is needed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core import calibration as cal
from repro.core.blt import ExtentBlt
from repro.core.bookkeeper import MuxMetaWriter
from repro.core.cache import ScmCacheManager
from repro.core.cachectl import CacheController
from repro.core.health import HealthState
from repro.core.intervals import intersect_runs
from repro.core.metadata import CollectiveInode, MuxNamespace
from repro.core.migration import MigrationEngine
from repro.core.mirror import MirrorEngine
from repro.core.policy import (
    MigrationOrder,
    MirrorOrder,
    FileView,
    PlacementRequest,
    Policy,
    TierState,
)
from repro.core.policies import LruTieringPolicy
from repro.core.pressure import PressureMonitor
from repro.core.registry import Tier, TierRegistry
from repro.core.scheduler import IoScheduler, SubRequest
from repro.core.tierfiles import TierFiles
from repro.devices.profile import DeviceKind, DeviceProfile
from repro.errors import (
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NoSpace,
    ReproError,
    TierUnavailable,
    WritebackError,
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
from repro.vfs.stat import FsStats, Stat
from repro.vfs.vfs import VFS

#: names Mux keeps for its own files on the tiers (the State Bookkeeper's
#: metafile, the SCM cache file): a user name may not start with it
RESERVED_PREFIX = ".mux_"


def _check_name(path: str) -> None:
    """Refuse a new name that could collide with a Mux file on a tier."""
    if RESERVED_PREFIX in path and any(
        part.startswith(RESERVED_PREFIX) for part in path.split("/")
    ):
        raise InvalidArgument(f"mux: {path!r} uses the reserved prefix .mux_")


class MuxFileSystem(FileSystem):
    """The Mux tiered file system."""

    fs_name = "mux"
    #: :meth:`maintain` plans and migrates at most this many rounds
    MAINTAIN_ROUNDS = 4

    def __init__(
        self,
        vfs: VFS,
        clock: SimClock,
        policy: Optional[Policy] = None,
        *,
        blt_factory=ExtentBlt,
        enable_cache: bool = True,
        cache_write_back: bool = False,
        scheduler: Optional[IoScheduler] = None,
    ) -> None:
        self.vfs = vfs
        self.clock = clock
        self.policy = policy if policy is not None else LruTieringPolicy()
        self.blt_factory = blt_factory
        self.scheduler = scheduler if scheduler is not None else IoScheduler()
        self.registry = TierRegistry()
        #: per-channel backlog sampler feeding TierState.load (pure
        #: host-side; cannot perturb fingerprints)
        self.pressure = PressureMonitor()
        self.ns = MuxNamespace(clock.now())
        self.block_size = 0
        self.stats = CounterSet()
        #: VFS Call Maker: the one door to every tier's file system
        self.files = TierFiles(vfs, clock, self.registry, self.stats)
        #: State Bookkeeper: the metafile on the fastest tier
        self.meta = MuxMetaWriter(clock)
        #: mux-level errseq ledger: bumped when an absorbed write is lost
        #: to a failed destage or a tier fsync reports a writeback error,
        #: so every open mux fd observes EIO at its next fsync exactly once
        self._wb = WritebackLedger(self.fs_name)
        #: Cache Controller: read-through and write-back around ``cache``
        self.cachectl = CacheController(
            clock, self.registry, self.files, self.ns, self.stats, self._wb,
            enabled=enable_cache, write_back=cache_write_back,
        )
        self.engine = MigrationEngine(self)
        #: lazy mirror-sync engine (MOST); idle until a policy or caller
        #: grants a file a mirror, so unmirrored runs cost nothing
        self.mirrors = MirrorEngine(self)
        #: optional QoS manager (quotas + class placement, §4)
        self.qos = None
        #: open submit/complete rings (see open_ring)
        self.rings: List["IoRing"] = []
        #: ino -> (validity key, FileView) from the last file_views()
        self._views: Dict[int, Tuple[tuple, FileView]] = {}

    @property
    def cache(self) -> Optional[ScmCacheManager]:
        """The SCM cache manager the Cache Controller provisioned, or None."""
        return self.cachectl.cache

    def enable_qos(self):
        """Attach a :class:`~repro.core.qos.QosManager`; returns it."""
        from repro.core.qos import QosManager

        self.qos = QosManager(self.clock)
        return self.qos

    def set_placement(self, path: str, tier_id: Optional[int]) -> None:
        """Pin future writes of one file to a tier (None clears the pin).

        Existing blocks are not moved; submit a migration order for that.
        """
        inode = self.ns.resolve(path)
        if tier_id is not None:
            self.registry.get(tier_id)  # validates
        inode.pinned_tier = tier_id

    def open_ring(self, depth: int = 8):
        """Open an async submit/complete ring (see :mod:`repro.core.ring`).

        Independent user ops submitted on the ring overlap on the device
        timelines up to ``depth`` in flight; ``depth=1`` is the serialized
        baseline.  Close the ring when done (or use it as a context
        manager) so pessimistic locks stop quiescing it.
        """
        from repro.core.ring import IoRing

        ring = IoRing(self, depth, self.scheduler.parallel)
        self.rings.append(ring)
        return ring

    def quiesce_inflight(self, ino: int) -> None:
        """Wait for in-flight ring ops on ``ino`` to complete.

        Called by the OCC Synchronizer's lock fallback after it suspends
        clock frames: the pessimistic lock must cover async submissions
        still completing against the file, so the global clock advances
        past them before the lock is granted.
        """
        for ring in self.rings:
            ring.quiesce(ino)

    # ==================================================================
    # tier management (§2.1: add/remove at runtime)
    # ==================================================================

    def add_tier(
        self,
        name: str,
        fs: FileSystem,
        mount: str,
        profile: DeviceProfile,
        rank: Optional[int] = None,
    ) -> Tier:
        """Register a mounted native file system as a tier."""
        resolved, _ = self.vfs.resolve(mount)
        if resolved is not fs:
            raise InvalidArgument(f"{mount!r} does not resolve to {fs.fs_name!r}")
        fs_block = fs.statfs().block_size
        if self.block_size and fs_block != self.block_size:
            raise InvalidArgument(
                f"tier block size {fs_block} != mux block size {self.block_size}"
            )
        self.block_size = fs_block
        tier = self.registry.add(name, fs, mount, profile, rank)
        hint = fs.load_hint()
        if hint is not None:
            self.pressure.attach(tier.tier_id, hint)
        self._refresh_cache_and_meta()
        return tier

    def remove_tier(self, tier_id: int) -> None:
        """Detach a tier after migrating all of its data off (§2.1)."""
        self.registry.get(tier_id)  # validates
        if len(self.registry) < 2:
            raise InvalidArgument("cannot remove the last tier")
        # mirror copies never migrate — the tier is leaving, so they are
        # simply retired (no punch: the whole backing store departs)
        self.mirrors.drop_tier(tier_id, punch=False)
        # copy-on-write refuges need transient blocks: demand 2x headroom
        summary = self._drain_tier(
            tier_id,
            lambda tier, need: tier.fs.statfs().free_bytes >= need * 2,
            "remove-tier",
        )
        if summary["files_failed"]:
            raise ReproError(
                f"tier {tier_id} still holds data for "
                f"{summary['files_failed']} file(s)"
            )
        # no file may keep any reference to the departed tier, data or not
        for inode in self.ns.files():
            self._forget_tier(inode, tier_id)
        self.cachectl.retire(tier_id)
        self.registry.remove(tier_id)
        self.pressure.detach(tier_id)
        # tier paths resolved through the dentry cache must not survive
        # the topology change
        self.ns.dcache.clear()
        self._refresh_cache_and_meta()

    def _drain_tier(self, tier_id: int, has_room, reason: str) -> Dict[str, int]:
        """Move every file's blocks off ``tier_id`` via run-level OCC.

        Each file goes to the fastest other HEALTHY tier for which
        ``has_room(tier, bytes)`` holds (the caller's capacity rule); a
        file whose migration gave up is counted in ``files_failed`` and
        keeps its blocks, a drained one forgets the tier.
        """
        src = self.registry.get(tier_id)
        summary = {
            "files_drained": 0,
            "files_failed": 0,
            "blocks_moved": 0,
            "retries": 0,
        }
        for inode in list(self.ns.files()):
            blocks = inode.blt.blocks_on(tier_id)
            if blocks == 0:
                continue
            dst = next(
                (
                    t
                    for t in self.registry.ordered()
                    if t.tier_id != tier_id
                    and t.health.state is HealthState.HEALTHY
                    and has_room(t, blocks * self.block_size)
                ),
                None,
            )
            if dst is None:
                raise NoSpace(
                    f"no healthy tier can absorb {blocks} blocks from "
                    f"tier {src.name!r}"
                )
            result = self.engine.migrate_now(
                MigrationOrder(
                    inode.ino, 0, inode.blt.end_block(), tier_id, dst.tier_id,
                    reason=reason,
                )
            )
            summary["blocks_moved"] += result.moved_blocks
            summary["retries"] += result.retries
            if inode.blt.blocks_on(tier_id):
                summary["files_failed"] += 1
                continue
            summary["files_drained"] += 1
            self._forget_tier(inode, tier_id)
        return summary

    def _forget_tier(self, inode: CollectiveInode, tier_id: int) -> None:
        """The tier no longer backs this file: fail affinity over to the
        fastest surviving tier, clear a pin, close the stale handle and
        forget the tier's participation."""
        fallback = next(
            (
                t
                for t in self.registry.ordered()
                if t.tier_id != tier_id and not t.health.is_offline
            ),
            None,
        )
        if fallback is not None:
            for attr, owner in inode.affinity.owners().items():
                if owner == tier_id:
                    inode.affinity.set_owner(attr, fallback.tier_id)
        if inode.pinned_tier == tier_id:
            inode.pinned_tier = None
        self.files.close(inode, tier_id)
        inode.tiers_present.discard(tier_id)

    def _refresh_cache_and_meta(self) -> None:
        """(Re)provision the SCM cache and the metafile on the fastest tier."""
        if len(self.registry) == 0:
            return
        self.meta.rehome(self.registry.fastest().fs)
        self.cachectl.provision(self.block_size)

    def tier_ids(self) -> List[int]:
        return self.registry.ids()

    def tier_states(self) -> List[TierState]:
        """Registry snapshots with each tier's sampled load attached."""
        self.pressure.sample(self.clock.global_now_ns)
        load_of = self.pressure.load_of
        return [t.state(load_of(t.tier_id)) for t in self.registry.ordered()]

    def inode_by_ino(self, ino: int) -> CollectiveInode:
        return self.ns.get(ino)

    # ==================================================================
    # degraded mode
    # ==================================================================

    def mark_tier_offline(self, tier_id: int) -> None:
        """Administratively fail a tier; its blocks return EIO until re-online."""
        self.registry.get(tier_id).health.mark_offline()

    def mark_tier_online(self, tier_id: int) -> None:
        """Re-admit a tier after repair; health returns to HEALTHY."""
        self.registry.get(tier_id).health.mark_online()

    def _writable_tiers(self) -> List[Tier]:
        """Registered tiers eligible for new writes, fastest first."""
        ordered = self.registry.ordered()
        healthy = [t for t in ordered if t.health.state is HealthState.HEALTHY]
        if healthy:
            return healthy
        return [t for t in ordered if not t.health.is_offline]

    # -- what the OCC synchronizer asks of its host (occ.MigrationIo) ------

    def blt_commit_move(
        self,
        inode: CollectiveInode,
        runs: List[Tuple[int, int]],
        src_tier: int,
        dst_tier: int,
    ) -> None:
        """Atomically flip committed (start, length) runs in the BLT."""
        for start, count in runs:
            inode.blt.map_range(start, count, dst_tier)
            self.cachectl.invalidate_range(inode.ino, start, count)
        if inode.replicas is not None:
            # the destination consumed its mirror (it now owns the bytes)
            # and the source's copies are punched below; mirrors elsewhere
            # stay valid — moving data does not change the data
            inode.replicas.on_moved(runs, src_tier, dst_tier)
        self.meta.note(2)

    # ==================================================================
    # namespace operations
    # ==================================================================

    def _charge_base(self) -> None:
        self.clock.advance_ns(cal.MUX_OP_BASE_NS)

    def create(self, path: str, mode: int = 0o644) -> FileHandle:
        self._charge_base()
        path = vpath.normalize(path)
        _check_name(path)
        now = self.clock.now()
        initial = self._place(PlacementRequest(path, 0, 0))
        inode = self.ns.create_file(
            path, now, mode, initial.tier_id, blt=self.blt_factory()
        )
        inode.rel_path = path
        # the host file system becomes affinitive for all metadata (§2.3);
        # if it fails hard (retries exhausted / offline) the creation
        # spills to the next writable tier rather than surfacing EIO
        placed = False
        last_error: Optional[Exception] = None
        for tier in [initial] + [
            t for t in self._writable_tiers() if t.tier_id != initial.tier_id
        ]:
            try:
                self.files.create(inode, tier.tier_id)
                placed = True
                break
            except TierUnavailable as exc:
                last_error = exc
                self.stats.add("create_spills_fault")
        if not placed:
            # roll the namespace entry back: the file exists nowhere
            self.ns.unlink(path, now)
            raise last_error if last_error else TierUnavailable(
                f"no tier could host {path!r}"
            )
        self.meta.note(2, flush=True)
        self.stats.add("create")
        return self._make_handle(inode, path, OpenFlags.RDWR)

    def _make_handle(self, inode: CollectiveInode, path: str, flags: int) -> FileHandle:
        # callers pass already-canonical paths; don't re-normalize
        handle = FileHandle(self, inode.ino, path, flags)
        # errseq sample: fds opened after an error don't re-report it
        handle.wb_err = self._wb.sample(inode.ino)
        return handle

    # -- writeback-error ledger (mux-level errseq_t) ---------------------

    def lost_intervals(self) -> List[Tuple[int, int, int]]:
        """``(ino, file_block, count)`` intervals lost to failed destages."""
        return self._wb.lost_intervals()

    def open(self, path: str, flags: int = OpenFlags.RDWR) -> FileHandle:
        self._charge_base()
        path = vpath.normalize(path)
        self.check_flags(flags)
        try:
            inode = self.ns.resolve(path)
        except FileNotFound:
            if not flags & OpenFlags.CREAT:
                raise
            handle = self.create(path)
            handle.flags = flags
            return handle
        if inode.is_dir:
            raise IsADirectory(f"mux: {path!r} is a directory")
        handle = self._make_handle(inode, path, flags)
        if flags & OpenFlags.TRUNC and OpenFlags.writable(flags):
            self.truncate(handle, 0)
        self.stats.add("open")
        return handle

    def close(self, handle: FileHandle) -> None:
        handle.ensure_open()
        if self.cachectl.write_back:
            try:
                inode = self.ns.get(handle.ino)
            except FileNotFound:
                inode = None
            if inode is not None and not inode.is_dir:
                self.cachectl.destage_file(inode, durable=True)
        handle.mark_closed()
        self.stats.add("close")

    def unlink(self, path: str) -> None:
        self._charge_base()
        inode = self.ns.resolve(path)  # raises if absent
        if inode.is_dir:
            raise IsADirectory(f"mux: {path!r} is a directory")
        self._drop_file(inode)
        self.ns.unlink(path, self.clock.now())
        self.meta.note(1, flush=True)
        self.stats.add("unlink")

    def _drop_file(self, inode: CollectiveInode) -> None:
        """The file's last name is going away: remove its backing file on
        every reachable tier and forget everything keyed on its ino (ino
        numbers are never reused, so anything left would leak forever)."""
        self.files.close(inode)
        for tier_id in sorted(inode.tiers_present):
            if self.registry.get(tier_id).health.is_offline:
                # the backing file is unreachable; fsck flags the orphan
                self.stats.add("unlink_skipped_offline")
                continue
            self.files.unlink(inode, tier_id)
        self.cachectl.invalidate_file(inode.ino)
        self.policy.forget(inode.ino)
        self.mirrors.forget(inode.ino)
        self._wb.forget(inode.ino)

    def rename(self, old_path: str, new_path: str) -> None:
        self._charge_base()
        old_path = vpath.normalize(old_path)
        new_path = vpath.normalize(new_path)
        _check_name(new_path)
        moving = self.ns.resolve(old_path)  # must exist
        if old_path == new_path:
            return  # successful no-op
        # children before their directory, each with its path-to-be
        subtree = list(self.ns.walk(moving, new_path))
        offline = [
            tier
            for node, _ in subtree
            if not node.is_dir
            for tier in map(self.registry.get, sorted(node.tiers_present))
            if tier.health.is_offline
        ]
        if offline:
            # a backing file cannot be renamed later: refuse before the
            # namespace changes
            self.stats.add("rename_refused_offline")
            raise TierUnavailable(
                f"renaming {old_path!r} needs offline tier {offline[0].name!r}"
            )
        _, replaced = self.ns.rename(old_path, new_path, self.clock.now())
        if replaced is not None:
            self._drop_file(replaced)
        for node, new_rel in subtree:
            old_rel, node.rel_path = node.rel_path, new_rel
            if node.is_dir:
                # the emptied skeleton would shadow a later file of the old name
                self.files.rmdir(old_rel)
            else:
                for tier_id in sorted(node.tiers_present):
                    self.files.rename(node, tier_id, old_rel)
        self.meta.note(2, flush=True)
        self.stats.add("rename")

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._charge_base()
        path = vpath.normalize(path)
        _check_name(path)
        inode = self.ns.mkdir(path, self.clock.now(), mode)
        inode.rel_path = path
        self.meta.note(1, flush=True)
        self.stats.add("mkdir")

    def rmdir(self, path: str) -> None:
        self._charge_base()
        path = vpath.normalize(path)
        self.ns.rmdir(path, self.clock.now())
        self.files.rmdir(path)
        self.meta.note(1, flush=True)
        self.stats.add("rmdir")

    def readdir(self, path: str) -> List[str]:
        self._charge_base()
        self.stats.add("readdir")
        # Mux's own namespace is authoritative: the merged view (§2.1)
        return self.ns.readdir(path)

    # ==================================================================
    # data path
    # ==================================================================

    def read(self, handle: FileHandle, offset: int, length: int) -> bytes:
        handle.ensure_open()
        if not OpenFlags.readable(handle.flags):
            raise InvalidArgument("handle not open for reading")
        if offset < 0 or length < 0:
            raise InvalidArgument("negative offset/length")
        inode = self.ns.get(handle.ino)
        if inode.is_dir:
            raise IsADirectory(f"mux: read from directory {handle.path!r}")
        # the read's charges are non-negative constants and BLT lookup
        # costs, added to the clock's cursor in place
        clock = self.clock
        clock.now_ns += cal.MUX_OP_BASE_NS + cal.MUX_OCC_CHECK_NS
        # keep the pressure gauges fresh on the read path too — reads are
        # the majority op, and a burst the policy only notices at the next
        # *write* is a burst it dodges one burst too late.  Sampling is
        # interval-gated host work: no simulated time, no rng.
        self.pressure.sample(clock.global_now_ns)
        if offset >= inode.size or length == 0:
            return b""
        length = min(length, inode.size - offset)
        if self.qos is not None:
            self.qos.charge(handle, length)
        first_fb = offset // self.block_size
        last_fb = (offset + length - 1) // self.block_size
        runs = list(inode.blt.runs(first_fb, last_fb - first_fb + 1))
        clock.now_ns += inode.blt.lookup_cost_ns(len(runs), last_fb - first_fb + 1)
        if inode.replicas is not None:
            # MOST routing: each span serves from the fastest tier holding
            # a clean replica; an unhealthy authoritative owner fails over
            # to a clean mirror instead of EIO.  Pure interval algebra —
            # unmirrored files never enter this branch.
            runs = self.mirrors.route_reads(inode, runs)

        # build per-tier sub-requests (FS Multiplexer)
        subrequests: List[SubRequest] = []
        for run_start, run_len, tier_id in runs:
            if tier_id is None:
                continue  # hole: stays zero in the output buffer
            run_off = max(offset, run_start * self.block_size)
            run_end = min(offset + length, (run_start + run_len) * self.block_size)
            if run_end <= run_off:
                continue
            subrequests.append(
                SubRequest(tier_id, run_off, run_end - run_off, run_off - offset)
            )
        plan = self.scheduler.plan(subrequests, self.registry.kinds)
        self.stats.add("split_reads", max(0, len(plan) - 1))

        # error-scoped degraded reads (§2.4 robustness): fail with EIO
        # *before* dispatching anything if any needed block lives on an
        # offline tier; requests touching only surviving tiers keep serving
        for req in plan:
            tier = self.registry.get(req.tier_id)
            if tier.health.is_offline:
                self.stats.add("reads_failed_offline")
                raise TierUnavailable(
                    f"blocks of {handle.path!r} live on offline tier {tier.name!r}"
                )

        # dispatch: :meth:`_fan_out`'s model, inline so that a read makes
        # no closures — keep the two in step
        out = bytearray(length)
        overlap = self.scheduler.parallel and len(plan) > 1
        completions: List[int] = []
        for req in plan:
            clock.now_ns += cal.MUX_DISPATCH_NS
            if overlap:
                clock.push_frame()
                try:
                    self.cachectl.read_span(inode, req, out)
                finally:
                    completions.append(clock.pop_frame())
            else:
                self.cachectl.read_span(inode, req, out)
            self.policy.on_access(
                inode.ino,
                req.offset // self.block_size,
                -(-req.length // self.block_size),
                req.tier_id,
                "read",
            )
        if completions:
            clock.advance_to(max(completions))

        # metadata affinity: the FS fetching the last block owns atime (§2.3)
        now = clock.now()
        inode.atime = now
        if plan:
            inode.affinity.set_owner("atime", plan[-1].tier_id)
        clock.now_ns += cal.MUX_AFFINITY_NS
        self.meta.note(1)
        self.stats.add("read")
        self.stats.add("bytes_read", length)
        return bytes(out)

    def _fan_out(self, requests, run, dispatch_ns: int = 0) -> list:
        """``run`` each per-tier sub-request of one op; returns the results.

        Parallel dispatch: with more than one sub-request each runs in its
        own clock frame against its device's timeline, so spans on
        different tiers overlap and the op completes at the max of their
        completions.  A single sub-request, or the serial scheduler, runs
        inline on the caller's clock.  ``dispatch_ns`` is charged before
        each sub-request on the caller's clock, never in the frame:
        dispatch CPU cost stays serial (Mux submits one at a time).
        :meth:`read` runs the same model inline; keep the two in step.
        """
        clock = self.clock
        overlap = self.scheduler.parallel and len(requests) > 1
        results = []
        completions: List[int] = []
        for request in requests:
            if dispatch_ns:
                clock.advance_ns(dispatch_ns)
            if overlap:
                clock.push_frame()
                try:
                    results.append(run(request))
                finally:
                    completions.append(clock.pop_frame())
            else:
                results.append(run(request))
        if completions:
            clock.advance_to(max(completions))
        return results

    def write(self, handle: FileHandle, offset: int, data: bytes) -> int:
        handle.ensure_open()
        if not OpenFlags.writable(handle.flags):
            raise InvalidArgument("handle not open for writing")
        if offset < 0:
            raise InvalidArgument("negative offset")
        inode = self.ns.get(handle.ino)
        if inode.is_dir:
            raise IsADirectory(f"mux: write to directory {handle.path!r}")
        self.clock.advance_ns(cal.MUX_OP_BASE_NS + cal.MUX_OCC_CHECK_NS)
        if not data:
            return 0
        if handle.flags & OpenFlags.APPEND:
            offset = inode.size
        bs = self.block_size
        first_fb = offset // bs
        last_fb = (offset + len(data) - 1) // bs
        nblocks = last_fb - first_fb + 1
        self.clock.advance_ns(inode.blt.lookup_cost_ns(2, nblocks))

        if self.qos is not None:
            self.qos.charge(handle, len(data))

        # write-back fast path: if every touched block is resident in the
        # SCM cache (and stably mapped to a slow tier), absorb the write
        # in place on PM and destage later in coalesced batches
        absorb_tier = self.cachectl.absorb_write(inode, offset, data)
        if absorb_tier is not None:
            if inode.replicas is not None:
                # the write absorbs on the fastest copy; every mirror of
                # the touched range is stale until the sync engine recopies
                inode.replicas.note_write(
                    first_fb, nblocks, absorb_tier, self.clock.now_ns
                )
                self.mirrors.note_stale(inode.ino)
            self.policy.on_access(inode.ino, first_fb, nblocks, absorb_tier, "write")
            # O_SYNC is already satisfied: the slot store + flush_range in
            # write_hit made the data durable on PM, which is exactly the
            # absorption win (§2.5) — synchronous small writes commit at
            # memory speed and destage to the slow tier in batches later
            self._finish_write(
                inode, offset, len(data), absorb_tier,
                lambda: self.cachectl.maybe_writeback(self.scheduler.parallel),
            )
            self.stats.add("writes_absorbed")
            return len(data)

        # placement: one policy decision per write (§2.1); TPFS-style
        # policies route on I/O size *and* synchronicity.  Per-file pins
        # and QoS class pins override the policy.
        synchronous = bool(handle.flags & OpenFlags.SYNC)
        forced = inode.pinned_tier
        if forced is None and self.qos is not None:
            forced = self.qos.placement_override(handle)
        if forced is not None and (
            self.registry.get(forced).health.state is not HealthState.HEALTHY
            or not self.registry.get(forced).make_room(len(data))
        ):
            # a suspect/offline/full pin routes around via the policy path
            forced = None
        if forced is not None:
            target = self.registry.get(forced)
        else:
            target = self._place(
                PlacementRequest(handle.path, inode.ino, len(data), synchronous)
            )

        segments = self._segment_write(inode, offset, data, target.tier_id)
        # Phase 1: land every segment on its tier.  No BLT/cache/policy
        # state is touched until all tier writes succeeded, so a NoSpace or
        # dead-tier failure mid-write leaves the BLT describing exactly the
        # pre-write file (the write is atomic at the BLT level).
        landed = self._fan_out(
            segments,
            lambda seg: self._write_segment(inode, *seg),
            cal.MUX_DISPATCH_NS,
        )
        placed: List[Tuple[int, int, int]] = []  # (tier, first_block, count)
        for tier_id, (_, seg_off, seg_data) in zip(landed, segments):
            seg_first = seg_off // bs
            seg_last = (seg_off + len(seg_data) - 1) // bs
            placed.append((tier_id, seg_first, seg_last - seg_first + 1))
        # Phase 2: commit the mapping (map_range/invalidate/on_access are
        # all charge-free, so the fingerprint matches the fused loop)
        for tier_id, seg_first, seg_count in placed:
            inode.blt.map_range(seg_first, seg_count, tier_id)
            if inode.replicas is not None:
                inode.replicas.note_write(
                    seg_first, seg_count, tier_id, self.clock.now_ns
                )
            if inode.migration_active:
                inode.dirty_during_migration.add_range(seg_first, seg_count)
            self.cachectl.invalidate_range(inode.ino, seg_first, seg_count)
            self.policy.on_access(inode.ino, seg_first, seg_count, tier_id, "write")

        if inode.replicas is not None:
            self.mirrors.note_stale(inode.ino)
        self._finish_write(
            inode, offset, len(data), placed[-1][0],
            (lambda: self.fsync(handle)) if synchronous else None,
        )
        self.stats.add("split_writes", max(0, len(segments) - 1))
        return len(data)

    def _finish_write(
        self,
        inode: CollectiveInode,
        offset: int,
        nbytes: int,
        owner_tier: int,
        settle,
    ) -> None:
        """Epilogue of every write: collective inode + affinity (§2.3).

        The tier that took the last byte becomes affinitive for size,
        mtime and ctime.  ``settle`` is the caller's durability step (the
        write-back budget check of an absorbed write, the fsync of an
        O_SYNC placed one); it runs after the metadata record is noted
        and before the write is counted.
        """
        now = self.clock.now()
        if offset + nbytes > inode.size:
            inode.size = offset + nbytes
            inode.affinity.set_owner("size", owner_tier)
        inode.mtime = inode.ctime = now
        inode.affinity.set_owner("mtime", owner_tier)
        inode.affinity.set_owner("ctime", owner_tier)
        self.clock.advance_ns(cal.MUX_AFFINITY_NS)
        self.meta.note(1)
        if settle is not None:
            settle()
        self.stats.add("write")
        self.stats.add("bytes_written", nbytes)

    def _place(self, request: PlacementRequest) -> Tier:
        """Run the placement policy, falling back down-rank when full.

        The fallback scan only considers writable (non-suspect,
        non-offline) tiers, so new writes route around a failing tier even
        when the policy's own choice ignores health.
        """
        self.clock.advance_ns(cal.MUX_POLICY_NS)
        states = self.tier_states()
        tier_id = self.policy.place_write(request, states)
        chosen = self.registry.get(tier_id)
        if not chosen.health.is_offline and chosen.make_room(request.length):
            return chosen
        for tier in self._writable_tiers():
            if tier.rank >= chosen.rank and tier.make_room(request.length):
                return tier
        for tier in self._writable_tiers():
            if tier.make_room(request.length):
                return tier
        raise NoSpace(f"no tier has room for {request.length} bytes")

    def _write_segment(
        self, inode: CollectiveInode, tier_id: int, seg_off: int, seg_data: bytes
    ) -> int:
        """Write one segment, falling back to slower tiers on ENOSPC.

        Returns the tier that actually received the data.  The placement
        check in :meth:`_place` is a snapshot; the underlying file system
        is the authority (copy-on-write and delayed allocation can both
        demand more blocks than the snapshot promised).
        """
        last_error: Optional[Exception] = None
        for candidate in self._spill_order(tier_id):
            if self.registry.get(candidate).health.is_offline:
                continue  # a dead tier cannot absorb new writes
            try:
                self.files.write(inode, candidate, seg_off, seg_data, cause="tiered")
                return candidate
            except NoSpace as exc:
                last_error = exc
                self.stats.add("write_spills")
                continue
            except TierUnavailable as exc:
                # retries exhausted / tier died mid-write: spill downhill
                last_error = exc
                self.stats.add("write_spills_fault")
                continue
        raise last_error if last_error else NoSpace("all tiers full")

    def _spill_order(self, tier_id: int) -> Iterator[int]:
        """``tier_id``, then every other tier: slower (or equal) ranks
        first, then faster ones, each fastest-first.  The rest of the order
        is only built if the placed tier is skipped or fails."""
        yield tier_id
        rank = self.registry.get(tier_id).rank
        others = [t for t in self.registry.ordered() if t.tier_id != tier_id]
        yield from (t.tier_id for t in others if t.rank >= rank)
        yield from (t.tier_id for t in others if t.rank < rank)

    def _segment_write(
        self, inode: CollectiveInode, offset: int, data: bytes, policy_tier: int
    ) -> List[Tuple[int, int, bytes]]:
        """Split a write into (tier, offset, data) segments.

        Full blocks and unmapped blocks follow the policy's placement;
        *partial* edge blocks that already live on some tier are updated in
        place on that tier — a sub-block write must not split one block's
        bytes across two file systems (the BLT is block-granular).  Only
        the two edge blocks can be partial, so the split is (head?, body,
        tail?) with one data slice per coalesced segment instead of a
        per-block loop.
        """
        bs = self.block_size
        end = offset + len(data)
        # (tier, start, end) spans; data is sliced once after coalescing
        raw: List[Tuple[int, int, int]] = []
        pos = offset
        if offset % bs:
            fb = offset // bs
            head_end = min(end, (fb + 1) * bs)
            current = inode.blt.lookup(fb)
            tier_id = current if current is not None else policy_tier
            raw.append((tier_id, offset, head_end))
            pos = head_end
        tail: Optional[Tuple[int, int, int]] = None
        if pos < end and end % bs:
            fb = (end - 1) // bs
            tail_start = fb * bs
            if tail_start >= pos:
                current = inode.blt.lookup(fb)
                tier_id = current if current is not None else policy_tier
                tail = (tier_id, tail_start, end)
        body_end = tail[1] if tail is not None else end
        if pos < body_end:
            raw.append((policy_tier, pos, body_end))
        if tail is not None:
            raw.append(tail)
        # coalesce adjacent same-tier spans
        spans: List[Tuple[int, int, int]] = []
        for tier_id, seg_start, seg_end in raw:
            if spans and spans[-1][0] == tier_id and spans[-1][2] == seg_start:
                spans[-1] = (tier_id, spans[-1][1], seg_end)
            else:
                spans.append((tier_id, seg_start, seg_end))
        view = memoryview(data)
        return [
            (tier_id, seg_start, bytes(view[seg_start - offset : seg_end - offset]))
            for tier_id, seg_start, seg_end in spans
        ]

    def truncate(self, handle: FileHandle, size: int) -> None:
        handle.ensure_open()
        if size < 0:
            raise InvalidArgument("negative size")
        inode = self.ns.get(handle.ino)
        self._charge_base()
        if inode.is_dir:
            raise IsADirectory(f"mux: truncate of directory {handle.path!r}")
        for tier_id in sorted(inode.tiers_present):
            if self.registry.get(tier_id).health.is_offline:
                self.stats.add("truncate_skipped_offline")
                continue
            self.files.truncate(inode, tier_id, size)
        old_end = inode.blt.end_block()
        new_end = -(-size // self.block_size)
        if old_end > new_end:
            self.cachectl.invalidate_range(inode.ino, new_end, old_end - new_end)
            inode.blt.unmap_range(new_end, old_end - new_end)
            if inode.replicas is not None:
                # the per-tier truncations above already cut every backing
                # file (mirror tiers are in tiers_present); only the
                # interval bookkeeping remains
                inode.replicas.drop_range(new_end, old_end - new_end)
        now = self.clock.now()
        inode.size = size
        inode.mtime = inode.ctime = now
        self.meta.note(2)
        self.stats.add("truncate")

    def punch_hole(self, handle: FileHandle, offset: int, length: int) -> None:
        """Deallocate a range: punch every participating tier, clear the BLT."""
        handle.ensure_open()
        if offset % self.block_size or length % self.block_size:
            raise InvalidArgument("punch_hole requires block-aligned arguments")
        if length <= 0:
            return
        inode = self.ns.get(handle.ino)
        if inode.is_dir:
            raise IsADirectory(f"mux: punch_hole on directory {handle.path!r}")
        self._charge_base()
        bs = self.block_size
        first_fb = offset // bs
        count = length // bs
        for run_start, run_len, tier_id in list(inode.blt.runs(first_fb, count)):
            if tier_id is None:
                continue
            self.files.punch(inode, tier_id, run_start * bs, run_len * bs)
            self.cachectl.invalidate_range(inode.ino, run_start, run_len)
        if inode.replicas is not None:
            # mirror copies are invisible to the BLT loop above: punch
            # them explicitly so the replica blocks are reclaimed too
            for tier_id in inode.replicas.tiers():
                for s, n in intersect_runs(
                    inode.replicas.tracked_runs(tier_id), [(first_fb, count)]
                ):
                    try:
                        self.files.punch(inode, tier_id, s * bs, n * bs)
                    except TierUnavailable:
                        self.stats.add("mirror_punch_skipped_offline")
                        break
            inode.replicas.drop_range(first_fb, count)
        inode.blt.unmap_range(first_fb, count)
        self.meta.note(1)
        self.stats.add("punch_hole")

    def fsync(self, handle: FileHandle) -> None:
        """Fan out fsync to every participating file system (§4)."""
        handle.ensure_open()
        inode = self.ns.get(handle.ino)
        self._charge_base()
        try:
            wb_failed = self._fsync_fanout(inode)
        except ReproError:
            # the error reached this fd directly; per the errseq contract
            # it must not ALSO see a WritebackError at its next fsync
            self._wb.consume(handle)
            raise
        if wb_failed:
            # a tier FS reported a buffered-writeback failure against its
            # (shared, long-lived) tier handle; fold it into the mux-level
            # ledger so every open mux fd observes it exactly once
            self._wb.note(inode.ino)
            self.stats.add("wb_errors")
        self.stats.add("fsync")
        self._wb.check(handle)

    def _fsync_fanout(self, inode: CollectiveInode) -> bool:
        """Destage + flush every participating tier; True if any tier
        reported a writeback error (data already lost at the tier FS)."""
        if not inode.is_dir:
            # absorbed writes must reach their owning tiers before those
            # tiers' fsyncs below make them durable (the destage registers
            # the tier handle, so the fsync fan-out covers it)
            self.cachectl.destage_file(inode)
        # the per-tier fsyncs below commit the meta tier's journal too
        self.meta.flush(durable=False)
        targets: List[int] = []
        for tier_id in sorted(inode.tiers_present):
            if not self.files.is_open(inode, tier_id):
                continue  # nothing was written through this handle
            if self.registry.get(tier_id).health.is_offline:
                # keep serving: surviving tiers still get their fsync,
                # the dead tier's durability debt is flagged for fsck
                self.stats.add("fsync_skipped_offline")
                continue
            targets.append(tier_id)

        def flush(tier_id: int) -> bool:
            try:
                self.files.fsync(inode, tier_id)
            except WritebackError:
                # already-lost data: keep flushing the other tiers
                return True
            return False

        # the fan-out flushes independent devices: overlap them
        return any(self._fan_out(targets, flush))

    # ==================================================================
    # metadata operations
    # ==================================================================

    def getattr(self, path: str) -> Stat:
        """Serve attributes from the collective inode cache (§2.3).

        Affinity failover: when an attribute's affinitive file system is
        offline, the collective inode's cached value is served anyway —
        possibly missing the affinitive FS's latest lazy update — and the
        attribute is listed in ``extra["stale_attrs"]`` so callers (and
        fsck) can tell a degraded answer from an authoritative one.
        """
        self._charge_base()
        inode = self.ns.resolve(path)
        self.stats.add("getattr")
        if inode.is_dir:
            return inode.stat()
        stale: Optional[List[str]] = None
        if self.registry.any_unhealthy():
            stale = sorted(
                attr
                for attr, owner in inode.affinity.owners().items()
                if owner is not None
                and owner in self.registry
                and self.registry.get(owner).health.is_offline
            )
            if stale:
                self.stats.add("stale_attr_reads")
        # disk consumption has no single owner: aggregate across tiers
        blocks_512 = inode.blt.mapped_blocks() * (self.block_size // 512)
        return inode.stat(blocks=blocks_512, stale_attrs=stale)

    def setattr(self, path: str, **attrs: object) -> Stat:
        self._charge_base()
        clean = attrs_for_update(attrs)
        inode = self.ns.resolve(path)
        for name, value in clean.items():
            if name == "mode":
                inode.mode = int(value)  # type: ignore[arg-type]
            else:
                setattr(inode, name, float(value))  # type: ignore[arg-type]
            if not inode.is_dir and name in ("atime", "mtime", "ctime", "mode"):
                # Mux performed the update; the fastest participating tier
                # becomes affinitive and others sync lazily
                owner = min(
                    inode.tiers_present,
                    default=None,
                    key=lambda t: self.registry.get(t).rank,
                )
                if owner is not None:
                    inode.affinity.set_owner(name, owner)
        self.clock.advance_ns(cal.MUX_AFFINITY_NS)
        self.meta.note(1)
        self.stats.add("setattr")
        blocks_512 = (
            0 if inode.is_dir else inode.blt.mapped_blocks() * (self.block_size // 512)
        )
        return inode.stat(blocks=blocks_512)

    def statfs(self) -> FsStats:
        """Expose the whole hierarchy as a single device (§1)."""
        total = 0
        free = 0
        for tier in self.registry.ordered():
            s = tier.fs.statfs()
            total += s.total_blocks
            free += s.free_blocks
        return FsStats(self.block_size or 4096, total, free)

    # ==================================================================
    # tiering maintenance (Policy Runner)
    # ==================================================================

    def file_views(self) -> List[FileView]:
        """One read-only view per regular file, for the Policy Runner.

        A view is shared across calls while its file's ``(BLT object,
        blt.version, size, rel_path)`` is unchanged — everything a view
        holds is a function of those — so a planning round walks only the
        block maps that changed since the previous one.
        """
        previous = self._views
        self._views = current = {}
        views: List[FileView] = []
        for inode in list(self.ns.files()):
            blt = inode.blt
            key = (blt, blt.version, inode.size, inode.rel_path)
            cached = previous.get(inode.ino)
            if cached is not None and cached[0] == key:
                view = cached[1]
            else:
                end = blt.end_block()
                view = FileView(
                    ino=inode.ino,
                    path=inode.rel_path,
                    size=inode.size,
                    blocks_by_tier={t: blt.blocks_on(t) for t in blt.tiers_used()},
                    runs=tuple(blt.runs(0, end)) if end else (),
                )
            current[inode.ino] = (key, view)
            views.append(view)
        return views

    def _planned_orders(
        self,
    ) -> Tuple[List[TierState], List[FileView], int, List[MigrationOrder]]:
        """One planning round of the Policy Runner.

        Returns the tier states and file views the policy planned from
        (the mirror step plans from the same snapshot), how many orders
        it asked for, and the ones that can run: orders for files that
        vanished since planning, or between tier pairs the engine does
        not support, are dropped.
        """
        states = self.tier_states()
        views = self.file_views()
        planned = self.policy.plan_migrations(states, views)
        runnable: List[MigrationOrder] = []
        for order in planned:
            try:
                self.ns.get(order.ino)
            except FileNotFound:
                continue
            if self.engine.supports(order.src_tier, order.dst_tier):
                runnable.append(order)
        return states, views, len(planned), runnable

    def maintain(self) -> int:
        """Ask the policy for migrations and run them to completion.

        Returns the number of migration orders executed.
        """
        executed = 0
        for _ in range(self.MAINTAIN_ROUNDS):
            states, views, planned, orders = self._planned_orders()
            self._maintain_mirrors(states, views)
            if not planned:
                break
            for order in orders:
                self.engine.migrate_now(order)
                executed += 1
        return executed

    def maintain_async(self) -> int:
        """Plan migrations and submit them as cooperative background tasks."""
        states, views, _, orders = self._planned_orders()
        for order in orders:
            self.engine.submit(
                order,
                defer_while_hot=getattr(self.policy, "defer_hot_migrations", False),
            )
        self._maintain_mirrors(states, views)
        return len(orders)

    def _maintain_mirrors(
        self, states: List[TierState], views: List[FileView]
    ) -> int:
        """Apply the policy's mirror plan and advance sync convergence.

        Both halves are no-ops for mirror-blind policies (``plan_mirrors``
        defaults to []) and idle engines, so pre-MOST workloads keep
        bit-identical fingerprints.  Returns blocks synced this step.
        """
        orders = self.policy.plan_mirrors(states, views)
        if orders:
            self.apply_mirror_orders(orders)
        return self.mirrors.tick()

    def apply_mirror_orders(self, orders: List[MirrorOrder]) -> int:
        """Grant/retire mirrors per the policy's orders; returns applied."""
        applied = 0
        for order in orders:
            try:
                inode = self.ns.get(order.ino)
            except FileNotFound:
                continue  # file vanished since planning
            if self.registry.maybe_get(order.tier_id) is None:
                continue
            if order.action == "drop":
                self.mirrors.drop_mirror(inode, order.tier_id)
            else:
                self.mirrors.add_mirror(inode, order.tier_id)
            applied += 1
        return applied

    def evacuate(self, tier_id: int) -> Dict[str, int]:
        """Drain every block off a suspect tier onto healthy tiers.

        Uses the existing run-level OCC migration per file.  If the tier's
        health is OFFLINE it is first demoted to SUSPECT so the drain may
        read it — evacuation of a tier whose *device* still rejects reads
        will leave files behind (reported in ``files_failed``).  Affinity
        owned by the drained tier fails over to the fastest surviving
        tier; backing handles are closed for fully-drained files.
        """
        src = self.registry.get(tier_id)
        if src.health.is_offline:
            src.health.mark_suspect()
        # mirrors on the draining tier are redundant copies: retire them
        # (reclaiming their blocks) before moving the authoritative data
        self.mirrors.drop_tier(tier_id, punch=True)
        summary = self._drain_tier(tier_id, Tier.make_room, "evacuate")
        self.stats.add("evacuations")
        self.meta.note(2, flush=True)
        return summary

    def pm_bytes_by_cause(self) -> Dict[str, int]:
        """Bytes Mux wrote to PM-class tiers, by cause: tiered data,
        migration, mirror sync, cache fill, absorbed writes, destage and
        the metafile (when the fastest tier, its home, is PM-class)."""
        written = self.files.pm_bytes.snapshot()
        metafile = self.meta.home_bytes()
        if metafile and self.registry.fastest().kind is DeviceKind.PERSISTENT_MEMORY:
            written["metafile"] = metafile
        return dict(sorted(written.items()))

    def report(self) -> str:
        """A human-readable status dashboard (tiers, cache, migrations)."""
        lines = ["mux status"]
        lines.append("  tiers:")
        for tier in self.registry.ordered():
            stats = tier.fs.statfs()
            lines.append(
                f"    [{tier.rank}] {tier.name:8s} {tier.fs.fs_name:8s} "
                f"{stats.used_bytes / 1e6:8.1f}/{stats.total_bytes / 1e6:.1f} MB "
                f"({100 * stats.utilization:5.1f}%) "
                f"{tier.health.state.value}"
            )
        if self.cache is not None:
            cache = self.cache
            lines.append(
                f"  scm cache: {cache.cached_blocks} blocks in "
                f"{cache.backed_blocks}/{cache.capacity_blocks} slots "
                f"({cache.stats.get('shrunk')} given back), "
                f"hit ratio {cache.hit_ratio():.2f}"
            )
            lines.append(
                f"  cache fills: {cache.stats.get('fill')} filled, "
                f"{cache.stats.get('refused')} refused; "
                f"{cache.hits_per_fill():.2f} hits per filled block"
            )
            if self.cachectl.write_back:
                counters = self.cache.cache_counters()
                lines.append(
                    f"  write-back: {counters.get('write_hit', 0)} absorbed, "
                    f"{counters.get('destage_runs', 0)} destage runs "
                    f"({counters.get('destaged_blocks', 0)} blocks), "
                    f"{counters.get('dirty_blocks', 0)} dirty"
                )
        meta = self.meta.stats
        dax = meta.get("dax_flushes")
        lines.append(
            f"  metafile: {meta.get('records')} records, "
            f"{meta.get('flushes')} appends ({dax} by DAX, "
            f"{meta.get('flushes') - dax} by write + fsync), "
            f"{meta.get('growth_writes')} growth writes, {meta.get('bytes')} bytes"
        )
        written = self.pm_bytes_by_cause()
        if written:
            lines.append(
                "  pm bytes written: "
                + ", ".join(f"{cause} {n}" for cause, n in written.items())
            )
        mirrors = self.mirrors
        if mirrors.stats.get("blocks_synced") or mirrors.stats.get("blocks_served"):
            lines.append(
                f"  mirrors: {mirrors.stats.get('blocks_synced')} blocks synced, "
                f"{mirrors.stats.get('blocks_served')} served; "
                f"{mirrors.reads_per_synced_block():.2f} reads per synced block"
            )
        engine = self.engine.stats
        lines.append(
            f"  migrations: {engine.get('migrations')} runs, "
            f"{engine.get('blocks_moved')} blocks, "
            f"{engine.get('conflicts')} conflicts, "
            f"{engine.get('lock_fallbacks')} lock fallbacks"
        )
        lines.append(
            f"  ops: {self.stats.get('read')} reads / "
            f"{self.stats.get('write')} writes / "
            f"{self.stats.get('fsync')} fsyncs; "
            f"{len(self.ns) - 1} namespace entries"
        )
        if (
            self.stats.get("fault_retries")
            or self.stats.get("io_rejected_offline")
            or self.stats.get("fault_gave_up")
        ):
            lines.append(
                f"  faults: {self.stats.get('fault_retries')} retries "
                f"({self.stats.get('fault_backoff_ns')} ns backoff), "
                f"{self.stats.get('fault_gave_up')} gave up, "
                f"{self.stats.get('io_rejected_offline')} offline rejections, "
                f"{self.stats.get('reads_failed_offline')} reads failed"
            )
        if self.qos is not None:
            for name, io_class in sorted(self.qos.classes().items()):
                throttled = self.qos.stats.get(f"throttled_ops.{name}")
                if io_class.quota_bytes_per_sec or throttled:
                    lines.append(
                        f"  qos[{name}]: quota "
                        f"{(io_class.quota_bytes_per_sec or 0) / 1e6:.1f} MB/s, "
                        f"{throttled} throttled ops"
                    )
        return "\n".join(lines)

    # ==================================================================
    # whole-FS sync / crash composition (§4)
    # ==================================================================

    def sync(self) -> None:
        self.cachectl.destage_all()
        self.meta.flush()
        for tier in self.registry.ordered():
            tier.fs.sync()

    def crash(self) -> None:
        """Crash composition: each participating FS loses its own volatile
        state.  Mux's durable metadata is modeled by the metafile appends;
        collective-inode state is reconstructed from it on recovery (the
        reconstruction itself is charged as a metafile scan)."""
        for inode in list(self.ns.files()):
            inode.tier_handles.clear()
            inode.migration_active = False
            inode.dirty_during_migration.clear()
            if inode.replicas is not None:
                # the sync-state map is DRAM metadata: after a crash every
                # mirror interval must re-prove itself before recovery may
                # serve it, so nothing stale is ever read as authoritative
                inode.replicas.mark_all_stale(self.clock.now_ns)
                self.mirrors.note_stale(inode.ino)
        # the errseq ledger is DRAM state: pending error reports die with
        # the kernel (the losses themselves persist in the cache's ledger)
        self._wb.clear()
        for tier in self.registry.ordered():
            tier.fs.crash()

    def recover(self) -> None:
        for tier in self.registry.ordered():
            tier.fs.recover()
        self.meta.replay()
        self._reconcile_namespace()

    def _reconcile_namespace(self) -> None:
        """Drop references to backing files that vanished across a crash.

        A crash between an unlink's per-tier deletions and its namespace
        commit leaves the collective inode pointing at backing files that
        no longer exist.  Mount-time reconciliation (the orphan scan every
        journaling FS performs) prunes those references — and any BLT runs
        stranded on them — so fsck sees a consistent namespace instead of
        dangling tier pointers.  Offline tiers are left alone: their
        backing files are unreachable, not deleted.
        """
        for inode in list(self.ns.files()):
            for tier_id in sorted(inode.tiers_present):
                tier = self.registry.maybe_get(tier_id)
                if tier is None or tier.health.is_offline:
                    continue
                if self.files.exists(inode, tier_id):
                    continue
                inode.tiers_present.discard(tier_id)
                inode.tier_handles.pop(tier_id, None)
                end = inode.blt.end_block()
                for start, count, tid in list(inode.blt.runs(0, end)):
                    if tid == tier_id:
                        inode.blt.unmap_range(start, count)
                if inode.replicas is not None and inode.replicas.has_tier(
                    tier_id
                ):
                    # the mirror's backing file died with the crash: its
                    # sync state must not outlive the bytes
                    inode.replicas.retire_tier(tier_id)
                    if not inode.replicas.tiers():
                        inode.replicas = None
                        self.mirrors.forget(inode.ino)
                self.stats.add("recover_pruned_tier_refs")
