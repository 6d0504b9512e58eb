"""Mux: a tiered file system that talks to file systems, not device drivers.

``MuxFileSystem`` implements the VFS-facing :class:`FileSystem` interface
upward and *consumes the same interface* downward: every data operation is
split according to the per-file Block Lookup Table and delegated to the
native file systems registered as tiers, "by calling the same VFS function
that invokes it, but with different file handles, lengths, and offsets"
(§2.1).

Components (Figure 1c):

* **VFS Call Processor** — the public methods of this class;
* **FS Multiplexer / VFS Call Maker** — :meth:`_dispatch_read` /
  :meth:`_dispatch_write` plus the I/O scheduler;
* **File Blk. Tracker** — the per-file Block Lookup Table (§2.2);
* **Metadata Tracker** — collective inodes + metadata affinity (§2.3);
* **State Bookkeeper** — the metafile writer that lazily persists Mux's
  own metadata to the fastest tier;
* **OCC Synchronizer & Policy Runner** — the migration engine (§2.4);
* **Cache Controller** — the SCM cache manager (§2.5).

Files are backed by *sparse files of the same path* on each participating
tier, preserving file offsets so no extra translation layer is needed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import calibration as cal
from repro.core.blt import BlockLookupTable, ExtentBlt, replica_runs
from repro.core.cache import ScmCacheManager
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
from repro.devices.profile import DeviceKind, DeviceProfile
from repro.errors import (
    DeviceIoError,
    DeviceOffline,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NoSpace,
    NotSupported,
    PolicyError,
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

META_FILE = "/.mux_meta"

#: share of the hosting tier's free blocks preallocated as the SCM cache
CACHE_FRACTION = 0.25


class MuxMetaWriter:
    """State Bookkeeper: lazily persists Mux metadata records (§2.3).

    Mux's own metadata (BLT deltas, affinity changes, collective-inode
    attributes) is appended to a metafile on a chosen tier; records are
    batched and made durable (append + fsync) every
    ``META_SYNC_RECORDS`` records — the paper's lazy synchronization.
    """

    def __init__(self, fs: FileSystem, clock: SimClock) -> None:
        self.fs = fs
        self.clock = clock
        if fs.exists(META_FILE):
            fs.unlink(META_FILE)
        self._handle = fs.create(META_FILE)
        self._offset = 0
        self._buffered = 0
        self.stats = CounterSet()

    def note(self, records: int = 1) -> None:
        """Buffer ``records`` metadata records; flush on the sync interval."""
        self._buffered += records
        self.stats.add("records", records)
        if self._buffered >= cal.META_SYNC_RECORDS:
            self.flush()

    #: the metafile is a circular log: once it reaches this size, appends
    #: wrap (a real implementation would checkpoint + truncate)
    MAX_BYTES = 4 * 1024 * 1024

    def flush(self, durable: bool = True) -> None:
        """Append buffered records to the metafile.

        ``durable=False`` writes the records but skips the explicit fsync —
        used when the caller is about to fsync data on the same file
        system, whose (file-system-global) journal commit covers the
        metafile update too.
        """
        if self._buffered == 0:
            return
        payload = bytes(self._buffered * cal.META_RECORD_BYTES)
        if self._offset + len(payload) > self.MAX_BYTES:
            self._offset = 0
        delay = cal.FAULT_RETRY_BASE_NS
        for attempt in range(cal.FAULT_MAX_RETRIES + 1):
            try:
                self.fs.write(self._handle, self._offset, payload)
                if durable:
                    self.fs.fsync(self._handle)
                break
            except DeviceIoError as exc:
                if exc.transient and attempt < cal.FAULT_MAX_RETRIES:
                    self.stats.add("flush_retries")
                    self.clock.advance_ns(delay)
                    delay *= cal.FAULT_BACKOFF_MULT
                    continue
                # the bookkeeping tier is failing hard: keep the records
                # buffered and let a later flush retry — lazy sync already
                # tolerates a durability window, and a user op must not
                # fail because Mux's own metafile append did
                self.stats.add("flush_deferred")
                return
            except DeviceOffline:
                self.stats.add("flush_deferred")
                return
        self._offset += len(payload)
        self._buffered = 0
        self.stats.add("flushes")

    def close(self) -> None:
        self.flush()
        if self._handle.is_open:
            self.fs.close(self._handle)


class MuxFileSystem(FileSystem):
    """The Mux tiered file system."""

    fs_name = "mux"

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
        self.enable_cache = enable_cache
        self.cache_write_back = cache_write_back
        #: next simulated-time writeback deadline (lazily armed on the
        #: first absorbed write)
        self._next_writeback_ns: Optional[int] = None
        self.scheduler = scheduler if scheduler is not None else IoScheduler()
        self.registry = TierRegistry()
        #: queue/dirty load sampler feeding TierState.pressure (pure
        #: host-side; cannot perturb fingerprints)
        self.pressure = PressureMonitor()
        self.ns = MuxNamespace(clock.now())
        self.engine = MigrationEngine(self)
        #: lazy mirror-sync engine (MOST); idle until a policy or caller
        #: grants a file a mirror, so unmirrored runs cost nothing
        self.mirrors = MirrorEngine(self)
        self.cache: Optional[ScmCacheManager] = None
        #: id of the tier hosting the SCM cache; None exactly when
        #: ``cache`` is (kept in sync by _refresh_cache_and_meta / remove_tier)
        self._cache_tier_id: Optional[int] = None
        self.block_size = 0
        self.stats = CounterSet()
        self._meta: Optional[MuxMetaWriter] = None
        #: optional per-op latency histograms (see enable_latency_recording)
        self.latencies: Optional[Dict[str, object]] = None
        #: optional QoS manager (quotas + class placement, §4)
        self.qos = None
        #: open submit/complete rings (see open_ring)
        self._rings: List["IoRing"] = []
        #: mux-level errseq ledger: bumped when an absorbed write is lost
        #: to a failed destage or a tier fsync reports a writeback error,
        #: so every open mux fd observes EIO at its next fsync exactly once
        self._wb = WritebackLedger(self.fs_name)

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

    def enable_latency_recording(self) -> None:
        """Collect per-operation latency histograms in ``self.latencies``."""
        from repro.sim.histogram import LatencyHistogram

        self.latencies = {"read": LatencyHistogram(), "write": LatencyHistogram()}

    def open_ring(self, depth: int = 8):
        """Open an async submit/complete ring (see :mod:`repro.core.ring`).

        Independent user ops submitted on the ring overlap on the device
        timelines up to ``depth`` in flight; ``depth=1`` is the serialized
        baseline.  Close the ring when done (or use it as a context
        manager) so pessimistic locks stop quiescing it.
        """
        from repro.core.ring import IoRing

        ring = IoRing(self, depth=depth)
        self._rings.append(ring)
        return ring

    def quiesce_inflight(self, ino: Optional[int] = None) -> None:
        """Wait for in-flight ring ops (on ``ino``, or all) to complete.

        Called by the OCC Synchronizer's lock fallback after it suspends
        clock frames: the pessimistic lock must cover async submissions
        still completing against the file, so the global clock advances
        past them before the lock is granted.
        """
        for ring in self._rings:
            ring.quiesce(ino)

    def _record_latency(self, op: str, started_ns: int) -> None:
        if self.latencies is not None:
            self.latencies[op].record(self.clock.now_ns - started_ns)

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
        if tier_id == self._cache_tier_id:
            # the cache lives on the departing tier: write every absorbed
            # block back before its slots disappear, then drop it
            self._destage_all(durable=True)
            self.cache = None
            self._cache_tier_id = None
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
        stale_handle = inode.tier_handles.pop(tier_id, None)
        if stale_handle is not None and stale_handle.is_open:
            self.vfs.close(stale_handle)
        inode.tiers_present.discard(tier_id)

    def _refresh_cache_and_meta(self) -> None:
        """(Re)provision the SCM cache and the metafile on the fastest tier."""
        if len(self.registry) == 0:
            return
        fastest = self.registry.fastest()
        if self._meta is None or self._meta.fs is not fastest.fs:
            if self._meta is not None:
                self._meta.close()
            self._meta = MuxMetaWriter(fastest.fs, self.clock)
        if not self.enable_cache or self.cache is not None:
            return
        if not any(t.rank > 0 for t in self.registry.ordered()):
            return  # nothing slower to cache for
        # the host is the fastest PM-class tier whose file system can
        # DAX-map the cache file; asking is the only test
        for scm in self.registry.ordered():
            if scm.kind is not DeviceKind.PERSISTENT_MEMORY:
                continue
            free_blocks = scm.fs.statfs().free_blocks
            try:
                self.cache = ScmCacheManager(
                    self.clock,
                    scm.fs,
                    max(16, int(free_blocks * CACHE_FRACTION)),
                    self.block_size,
                    write_back=self.cache_write_back,
                )
            except NotSupported:
                continue
            self.cache.destage_fn = self._destage_evicted
            self.cache.on_lost = self._note_destage_lost
            self._cache_tier_id = scm.tier_id
            self.pressure.set_dirty_gauge(
                scm.tier_id,
                lambda: (
                    self.cache.dirty_block_count / self.cache.capacity_blocks
                    if self.cache is not None and self.cache.capacity_blocks
                    else 0.0
                ),
            )
            return

    def tier_ids(self) -> List[int]:
        return self.registry.ids()

    def tier_states(self) -> List[TierState]:
        """Registry snapshots with sampled pressure signals attached."""
        self.pressure.sample(self.clock.global_now_ns)
        return self.pressure.decorate(self.registry.states())

    def inode_by_ino(self, ino: int) -> CollectiveInode:
        return self.ns.get(ino)

    # ==================================================================
    # delegation plumbing (FS Multiplexer)
    # ==================================================================

    def _tier_path(self, tier: Tier, inode: CollectiveInode) -> str:
        return vpath.join(tier.mount, inode.rel_path.lstrip("/"))

    def _ensure_tier_dirs(self, tier: Tier, rel_path: str) -> None:
        """mkdir -p the parents of ``rel_path`` on one tier."""
        parent = vpath.dirname(rel_path)
        if parent == "/":
            return
        stack: List[str] = []
        probe = parent
        while probe != "/":
            full = vpath.join(tier.mount, probe.lstrip("/"))
            if self.vfs.exists(full):
                break
            stack.append(probe)
            probe = vpath.dirname(probe)
        for rel in reversed(stack):
            self.vfs.mkdir(vpath.join(tier.mount, rel.lstrip("/")))

    def _tier_handle(
        self, inode: CollectiveInode, tier: Tier, create: bool = True
    ) -> FileHandle:
        """The cached open handle for a file's backing file on one tier."""
        handle = inode.tier_handles.get(tier.tier_id)
        if handle is not None and handle.is_open:
            return handle
        full = self._tier_path(tier, inode)
        flags = OpenFlags.RDWR | (OpenFlags.CREAT if create else 0)
        if create and not self.vfs.exists(full):
            self._ensure_tier_dirs(tier, inode.rel_path)
        handle = self.vfs.open(full, flags)
        inode.tier_handles[tier.tier_id] = handle
        inode.tiers_present.add(tier.tier_id)
        return handle

    def _close_tier_handles(self, inode: CollectiveInode) -> None:
        for handle in inode.tier_handles.values():
            if handle.is_open:
                self.vfs.close(handle)
        inode.tier_handles.clear()

    # -- degraded-mode plumbing -------------------------------------------------

    def _tier_io(self, tier: Tier, op):
        """Run one tier I/O closure with health tracking and bounded retry.

        Transient injected errors are retried up to ``FAULT_MAX_RETRIES``
        times with exponential simulated-time backoff; persistent errors,
        device-offline rejections, and exhausted retries surface as
        :class:`TierUnavailable` (EIO) after recording the failure on the
        tier's health state machine.  On the healthy path this adds one
        ``is_offline`` check and one ``record_success`` call — no clock
        charges, no rng draws, so fingerprints are untouched.
        """
        health = tier.health
        delay = cal.FAULT_RETRY_BASE_NS
        attempt = 0
        while True:
            if health.is_offline:
                self.stats.add("io_rejected_offline")
                raise TierUnavailable(f"tier {tier.name!r} is offline")
            try:
                result = op()
            except DeviceOffline as exc:
                health.mark_offline()
                self.stats.add("io_rejected_offline")
                raise TierUnavailable(str(exc)) from exc
            except DeviceIoError as exc:
                health.record_error()
                if health.is_offline:
                    raise TierUnavailable(str(exc)) from exc
                if exc.transient and attempt < cal.FAULT_MAX_RETRIES:
                    attempt += 1
                    self.stats.add("fault_retries")
                    self.stats.add("fault_backoff_ns", delay)
                    self.clock.advance_ns(delay)
                    delay *= cal.FAULT_BACKOFF_MULT
                    continue
                self.stats.add("fault_gave_up")
                raise TierUnavailable(str(exc)) from exc
            else:
                health.record_success()
                return result

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

    # -- raw per-tier I/O (used by the OCC synchronizer) -----------------------

    def tier_read_raw(
        self, inode: CollectiveInode, tier_id: int, offset: int, length: int
    ) -> bytes:
        tier = self.registry.get(tier_id)

        def op() -> bytes:
            self.clock.advance_ns(cal.MUX_DISPATCH_NS)
            handle = self._tier_handle(inode, tier)
            data = self.vfs.read(handle, offset, length)
            if len(data) < length:  # sparse tail: the hole reads as zeros
                data += bytes(length - len(data))
            return data

        return self._tier_io(tier, op)

    def tier_write_raw(
        self, inode: CollectiveInode, tier_id: int, offset: int, data: bytes
    ) -> None:
        tier = self.registry.get(tier_id)

        def op() -> None:
            self.clock.advance_ns(cal.MUX_DISPATCH_NS)
            handle = self._tier_handle(inode, tier)
            self.vfs.write(handle, offset, data)

        self._tier_io(tier, op)

    def tier_punch(
        self, inode: CollectiveInode, tier_id: int, block_start: int, count: int
    ) -> None:
        tier = self.registry.get(tier_id)

        def op() -> None:
            handle = self._tier_handle(inode, tier, create=False)
            self.vfs.punch_hole(
                handle, block_start * self.block_size, count * self.block_size
            )

        self._tier_io(tier, op)

    def tier_fsync(self, inode: CollectiveInode, tier_id: int) -> None:
        tier = self.registry.get(tier_id)

        def op() -> None:
            handle = self._tier_handle(inode, tier, create=False)
            self.vfs.fsync(handle)

        self._tier_io(tier, op)

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
            if self.cache is not None:
                self.cache.invalidate_range(inode.ino, start, count)
        if inode.replicas is not None:
            # the destination consumed its mirror (it now owns the bytes)
            # and the source's copies are punched below; mirrors elsewhere
            # stay valid — moving data does not change the data
            inode.replicas.on_moved(runs, src_tier, dst_tier)
        if self._meta is not None:
            self._meta.note(2)

    # ==================================================================
    # namespace operations
    # ==================================================================

    def _charge_base(self) -> None:
        self.clock.advance_ns(cal.MUX_OP_BASE_NS)

    def create(self, path: str, mode: int = 0o644) -> FileHandle:
        self._charge_base()
        path = vpath.normalize(path)
        now = self.clock.now()
        initial = self._place(
            PlacementRequest(path, 0, 0, 0, 0, is_append=True)
        )
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
                self._tier_io(
                    tier, lambda t=tier: self._tier_handle(inode, t, create=True)
                )
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
        if self._meta is not None:
            self._meta.note(2)
            self._meta.flush()  # namespace changes persist immediately
        self.stats.add("create")
        return self._make_handle(inode, path, OpenFlags.RDWR)

    def _make_handle(self, inode: CollectiveInode, path: str, flags: int) -> FileHandle:
        # callers pass already-canonical paths; don't re-normalize
        handle = FileHandle(self, inode.ino, path, flags)
        # errseq sample: fds opened after an error don't re-report it
        handle.wb_err = self._wb.sample(inode.ino)
        return handle

    # -- writeback-error ledger (mux-level errseq_t) ---------------------

    def _note_destage_lost(
        self, ino: int, runs: List[Tuple[int, int]]
    ) -> None:
        """Record absorbed writes dropped by a failed destage.

        Invoked by the cache when eviction-forced destage fails against a
        persistent tier error and the dirty blocks are discarded.  Bumps
        the inode's error sequence so every open fd sees EIO at its next
        fsync, and files the intervals for fsck's loss audit.
        """
        self._wb.note(ino, runs)
        self.stats.add("wb_errors")

    def lost_intervals(self, ino: Optional[int] = None) -> List[Tuple[int, int, int]]:
        """``(ino, file_block, count)`` intervals lost to failed destages."""
        return self._wb.lost_intervals(ino)

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
        if self.cache is not None and self.cache.write_back:
            try:
                inode = self.ns.get(handle.ino)
            except FileNotFound:
                inode = None
            if inode is not None and not inode.is_dir:
                self._destage_file(inode, durable=True)
        handle.mark_closed()
        self.stats.add("close")

    def unlink(self, path: str) -> None:
        self._charge_base()
        inode = self.ns.resolve(path)  # raises if absent
        if inode.is_dir:
            raise IsADirectory(f"mux: {path!r} is a directory")
        self._close_tier_handles(inode)
        for tier_id in sorted(inode.tiers_present):
            tier = self.registry.get(tier_id)
            if tier.health.is_offline:
                # the backing file is unreachable; fsck flags the orphan
                self.stats.add("unlink_skipped_offline")
                continue
            full = self._tier_path(tier, inode)
            if self.vfs.exists(full):
                self.vfs.unlink(full)
        if self.cache is not None:
            self.cache.invalidate_file(inode.ino)
        self.policy.forget(inode.ino)
        self.mirrors.forget(inode.ino)
        self._wb.forget(inode.ino)
        self.ns.unlink(path, self.clock.now())
        if self._meta is not None:
            self._meta.note(1)
            self._meta.flush()
        self.stats.add("unlink")

    def rename(self, old_path: str, new_path: str) -> None:
        self._charge_base()
        old_path = vpath.normalize(old_path)
        new_path = vpath.normalize(new_path)
        if old_path == new_path:
            self.ns.resolve(old_path)  # must exist; successful no-op
            return
        now = self.clock.now()
        moving, replaced_ino = self.ns.rename(old_path, new_path, now)
        if replaced_ino is not None:
            # the clobbered file's inode is gone and ino numbers are never
            # reused: stale hotness must not pin it in the policy, and its
            # cache slots must not survive the namespace entry
            if self.cache is not None:
                self.cache.invalidate_file(replaced_ino)
            self.policy.forget(replaced_ino)
            self.mirrors.forget(replaced_ino)
        self._rename_backing(moving, new_path)
        if self._meta is not None:
            self._meta.note(2)
            self._meta.flush()
        self.stats.add("rename")

    def _rename_backing(self, inode: CollectiveInode, new_rel: str) -> None:
        """Move backing files on every tier; recurse into directories."""
        old_rel = inode.rel_path
        inode.rel_path = new_rel
        if inode.is_dir:
            for name, child_ino in inode.entries.items():
                child = self.ns.get(child_ino)
                self._rename_backing(child, vpath.join(new_rel, name))
            # the emptied skeleton would shadow a later file of the old name
            self._remove_tier_dirs(old_rel)
            return
        for tier_id in sorted(inode.tiers_present):
            tier = self.registry.get(tier_id)
            old_full = vpath.join(tier.mount, old_rel.lstrip("/"))
            if not self.vfs.exists(old_full):
                continue
            self._ensure_tier_dirs(tier, new_rel)
            new_full = vpath.join(tier.mount, new_rel.lstrip("/"))
            # the backing handle paths change; drop cached handles
            handle = inode.tier_handles.pop(tier_id, None)
            if handle is not None and handle.is_open:
                self.vfs.close(handle)
            if self.vfs.exists(new_full):
                self.vfs.unlink(new_full)
            self.vfs.rename(old_full, new_full)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._charge_base()
        path = vpath.normalize(path)
        inode = self.ns.mkdir(path, self.clock.now(), mode)
        inode.rel_path = path
        if self._meta is not None:
            self._meta.note(1)
            self._meta.flush()
        self.stats.add("mkdir")

    def rmdir(self, path: str) -> None:
        self._charge_base()
        path = vpath.normalize(path)
        self.ns.rmdir(path, self.clock.now())
        self._remove_tier_dirs(path)
        if self._meta is not None:
            self._meta.note(1)
            self._meta.flush()
        self.stats.add("rmdir")

    def _remove_tier_dirs(self, rel_path: str) -> None:
        """Remove the (empty) backing directory of ``rel_path`` on every tier."""
        for tier in self.registry.ordered():
            full = vpath.join(tier.mount, rel_path.lstrip("/"))
            if self.vfs.exists(full):
                self.vfs.rmdir(full)

    def readdir(self, path: str) -> List[str]:
        self._charge_base()
        self.stats.add("readdir")
        # Mux's own namespace is authoritative: the merged view (§2.1)
        return [n for n in self.ns.readdir(path) if not n.startswith(".mux_")]

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
        op_started_ns = self.clock.now_ns
        self.clock.advance_ns(cal.MUX_OP_BASE_NS + cal.MUX_OCC_CHECK_NS)
        # keep the pressure gauges fresh on the read path too — reads are
        # the majority op, and a burst the policy only notices at the next
        # *write* is a burst it dodges one burst too late.  Sampling is
        # interval-gated host work: no simulated time, no rng.
        self.pressure.sample(self.clock.global_now_ns)
        if offset >= inode.size or length == 0:
            return b""
        length = min(length, inode.size - offset)
        if self.qos is not None:
            self.qos.charge(handle, length)
        first_fb = offset // self.block_size
        last_fb = (offset + length - 1) // self.block_size
        runs = list(inode.blt.runs(first_fb, last_fb - first_fb + 1))
        self.clock.advance_ns(
            inode.blt.lookup_cost_ns(len(runs), last_fb - first_fb + 1)
        )
        if inode.replicas is not None:
            # MOST routing: each span serves from the fastest tier holding
            # a clean replica; an unhealthy authoritative owner fails over
            # to a clean mirror instead of EIO.  Pure interval algebra —
            # unmirrored files never enter this branch.
            runs = self._route_replicas(inode, first_fb, last_fb - first_fb + 1)

        # build per-tier sub-requests (FS Multiplexer)
        subrequests: List[SubRequest] = []
        tier_of: Dict[int, int] = {}
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
        kinds = {t.tier_id: t.kind for t in self.registry.ordered()}
        plan = self.scheduler.plan(subrequests, kinds)
        self.stats.add("split_reads", max(0, len(plan) - 1))

        # error-scoped degraded reads (§2.4 robustness): fail with EIO
        # *before* dispatching anything if any needed block lives on an
        # offline tier; requests touching only surviving tiers keep serving
        if self.registry.any_unhealthy():
            for req in plan:
                if self.registry.get(req.tier_id).health.is_offline:
                    self.stats.add("reads_failed_offline")
                    raise TierUnavailable(
                        f"blocks of {handle.path!r} live on offline tier "
                        f"{self.registry.get(req.tier_id).name!r}"
                    )

        out = bytearray(length)

        def served(req: SubRequest) -> None:
            self.policy.on_access(
                inode.ino,
                req.offset // self.block_size,
                -(-req.length // self.block_size),
                req.tier_id,
                "read",
                self.clock.now(),
            )

        self._fan_out(
            plan,
            lambda req: self._read_span(
                inode, self.registry.get(req.tier_id), req, out
            ),
            cal.MUX_DISPATCH_NS,
            served,
        )

        # metadata affinity: the FS fetching the last block owns atime (§2.3)
        now = self.clock.now()
        inode.atime = now
        if plan:
            inode.affinity.set_owner("atime", plan[-1].tier_id)
        self.clock.advance_ns(cal.MUX_AFFINITY_NS)
        if self._meta is not None:
            self._meta.note(1)
        self.stats.add("read")
        self.stats.add("bytes_read", length)
        self._record_latency("read", op_started_ns)
        return bytes(out)

    def _fan_out(self, requests, run, dispatch_ns: int = 0, after=None) -> list:
        """``run`` each per-tier sub-request of one op; returns the results.

        Parallel dispatch: with more than one sub-request each runs in its
        own clock frame against its device's timeline, so spans on
        different tiers overlap and the op completes at the max of their
        completions.  A single sub-request, or the serial scheduler, runs
        inline on the caller's clock.  ``dispatch_ns`` is charged before
        each sub-request and ``after(request)`` runs once it returns —
        both on the caller's clock, never in the frame: dispatch CPU cost
        stays serial (Mux submits one at a time).
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
            if after is not None:
                after(request)
        if completions:
            clock.advance_to(max(completions))
        return results

    def _route_replicas(
        self, inode: CollectiveInode, first_fb: int, count: int
    ) -> List[Tuple[int, int, Optional[int]]]:
        """Re-home each read span on the fastest tier with a clean replica.

        Candidate order is (health class, rank): a HEALTHY mirror beats a
        SUSPECT authoritative owner of any rank, and among equals the
        faster tier wins, with ties going to the authoritative copy.
        Adjacent spans routed to the same tier re-coalesce so mirroring
        never inflates the sub-request count for uniform placement.
        """

        def route_key(tier_id: int) -> Tuple[int, int]:
            tier = self.registry.get(tier_id)
            if tier.health.is_offline:
                hclass = 2
            elif tier.health.state is HealthState.SUSPECT:
                hclass = 1
            else:
                hclass = 0
            return (hclass, tier.rank)

        routed: List[Tuple[int, int, Optional[int]]] = []
        for start, n, tid, mirrors in replica_runs(
            inode.blt, inode.replicas, first_fb, count
        ):
            chosen = tid
            if tid is not None and mirrors:
                live = [m for m in mirrors if self.registry.maybe_get(m)]
                if live:
                    chosen = min([tid] + live, key=route_key)
                    if chosen != tid:
                        self.stats.add("reads_from_mirror")
                        if route_key(tid)[0] > 0:
                            self.stats.add("reads_degraded_mirror")
            if (
                routed
                and routed[-1][2] == chosen
                and routed[-1][0] + routed[-1][1] == start
            ):
                routed[-1] = (routed[-1][0], routed[-1][1] + n, chosen)
            else:
                routed.append((start, n, chosen))
        return routed

    def _read_span(
        self, inode: CollectiveInode, tier: Tier, req: SubRequest, out: bytearray
    ) -> None:
        """Serve one sub-request, through the SCM cache when applicable.

        Hits and misses are handled run-at-a-time from the cache's
        run-length-encoded span layout: consecutive cached blocks go
        through :meth:`ScmCacheManager.get_many`, a contiguous miss run is
        one ``vfs.read`` sized to the file plus one
        :meth:`~ScmCacheManager.put_many`.  The charge sequence matches
        the scalar per-block path exactly (the first hit after a miss run
        is still fetched singly before the misses flush, as the per-block
        loop did), and the layout is recomputed after every fill — the
        fill's MGLRU evictions may push later blocks of this very span
        out, which the per-block loop saw via its live membership probes.
        """
        if self.cache is None or not self._cacheable(tier):

            def direct() -> None:
                handle = self._tier_handle(inode, tier, create=False)
                # straight into the output buffer: one copy tier -> caller
                self.vfs.read_into(
                    handle, req.offset, req.length, out, req.buffer_offset
                )

            self._tier_io(tier, direct)
            return
        bs = self.block_size
        cache = self.cache
        ino = inode.ino
        first_fb = req.offset // bs
        last_fb = (req.offset + req.length - 1) // bs

        def flush_misses(start_fb: int, n: int) -> None:
            cache.note_misses(n)
            # one read for the whole contiguous miss run, sized to the
            # file so we never ask the tier to read past EOF
            want = min(n * bs, inode.size - start_fb * bs)

            def fetch() -> bytes:
                handle = self._tier_handle(inode, tier, create=False)
                return self.vfs.read(handle, start_fb * bs, want)

            raw = self._tier_io(tier, fetch)
            if len(raw) < n * bs:
                raw += bytes(n * bs - len(raw))
            cache.put_many(ino, start_fb, raw)
            lo = max(req.offset, start_fb * bs)
            hi = min(req.offset + req.length, (start_fb + n) * bs)
            dst = req.buffer_offset + (lo - req.offset)
            out[dst : dst + hi - lo] = raw[lo - start_fb * bs : hi - start_fb * bs]

        end_fb = last_fb + 1
        pending: Optional[Tuple[int, int]] = None
        layout = cache.span_cached(ino, first_fb, end_fb - first_fb)
        idx = 0
        while idx < len(layout):
            start, n, cached = layout[idx]
            idx += 1
            if not cached:
                pending = (start, n)
                continue
            if pending is not None:
                block = cache.get(ino, start)
                self._copy_block_to_out(block, start, req, out)
                flush_misses(*pending)
                pending = None
                # the fill may have evicted later blocks of this span
                if start + 1 < end_fb:
                    layout = cache.span_cached(ino, start + 1, end_fb - start - 1)
                    idx = 0
                else:
                    break
                continue
            self._hit_run(inode, start, n, req, out)
        if pending is not None:
            flush_misses(*pending)

    def _hit_run(
        self,
        inode: CollectiveInode,
        fb: int,
        run: int,
        req: SubRequest,
        out: bytearray,
    ) -> None:
        """Copy ``run`` consecutive cached blocks into ``out``.

        Partial edge blocks (request starts or ends mid-block) go through
        single :meth:`~ScmCacheManager.get` calls so clipping stays simple;
        the full interior lands in ``out`` directly via ``get_many``.
        """
        bs = self.block_size
        cache = self.cache
        ino = inode.ino
        start, n = fb, run
        if start * bs < req.offset:
            block = cache.get(ino, start)
            self._copy_block_to_out(block, start, req, out)
            start += 1
            n -= 1
        if n <= 0:
            return
        req_end = req.offset + req.length
        tail: Optional[int] = None
        last = start + n - 1
        if (last + 1) * bs > req_end:
            tail = last
            n -= 1
        if n > 0:
            dst = req.buffer_offset + (start * bs - req.offset)
            cache.get_many(ino, start, n, out, dst)
        if tail is not None:
            block = cache.get(ino, tail)
            self._copy_block_to_out(block, tail, req, out)

    def _copy_block_to_out(
        self, block: bytes, fb: int, req: SubRequest, out: bytearray
    ) -> None:
        bs = self.block_size
        block_lo = fb * bs
        lo = max(req.offset, block_lo)
        hi = min(req.offset + req.length, block_lo + bs)
        if hi <= lo:
            return
        dst = req.buffer_offset + (lo - req.offset)
        out[dst : dst + (hi - lo)] = block[lo - block_lo : hi - block_lo]

    def _cacheable(self, tier: Tier) -> bool:
        if self.cache is None:
            return False
        host_rank = self.registry.get(self._cache_tier_id).rank
        return tier.rank >= host_rank + cal.CACHE_MIN_RANK_GAP

    # -- write-back cache: absorption + destaging ---------------------------

    def _absorb_write(
        self, inode: CollectiveInode, offset: int, data: bytes
    ) -> Optional[int]:
        """Absorb a write into the SCM cache if every touched block allows it.

        All-or-nothing: every block must be cache-resident and mapped to a
        cacheable (slow) tier, and no migration may be in flight — a
        partially absorbed write would split one write's durability story
        across two paths, and absorbing during a migration could race the
        OCC commit.  Returns the owning tier of the last block (for
        metadata affinity) on success, else None.
        """
        cache = self.cache
        if cache is None or not cache.write_back:
            return None
        if inode.migration_active or inode.locked:
            return None
        bs = self.block_size
        first_fb = offset // bs
        last_fb = (offset + len(data) - 1) // bs
        last_tier: Optional[int] = None
        covered = 0
        for run_start, run_len, tier_id in inode.blt.runs(
            first_fb, last_fb - first_fb + 1
        ):
            if tier_id is None or not self._cacheable(self.registry.get(tier_id)):
                return None
            covered += run_len
            last_tier = tier_id
        if covered != last_fb - first_fb + 1 or last_tier is None:
            return None
        for fb in range(first_fb, last_fb + 1):
            if not cache.contains(inode.ino, fb):
                return None
        view = memoryview(data)
        end = offset + len(data)
        for fb in range(first_fb, last_fb + 1):
            block_lo = fb * bs
            lo = max(offset, block_lo)
            hi = min(end, block_lo + bs)
            cache.write_hit(
                inode.ino, fb, bytes(view[lo - offset : hi - offset]), lo - block_lo
            )
        return last_tier

    def _destage_blocks(
        self,
        inode: CollectiveInode,
        runs: List[Tuple[int, int]],
        defer_offline: bool = False,
        durable: bool = False,
        background: bool = False,
    ) -> int:
        """Write dirty cached runs back to their owning tiers.

        Runs are split by BLT ownership and issued as one coalesced tier
        write per contiguous extent.  ``defer_offline=True`` (fsync/close/
        budget paths) skips runs whose owner is offline, leaving them
        dirty for a later cycle; with ``False`` (eviction/migration) the
        tier I/O raises and the caller decides.

        ``durable=True`` fsyncs each written tier afterwards: the dirty
        copy was durable on PM, so a destage that parks the bytes in a
        slow tier's volatile page cache would *lose* durability.  Callers
        whose own epilogue already flushes the tiers (``fsync`` fan-out,
        ``sync``) pass False and skip the double flush.

        ``background=True`` (the budget/interval writeback path) runs the
        whole batch in a background clock frame: the tier writes land on
        the devices' reserved background channels and the global clock
        does not absorb the batch — foreground ops pay only when they
        contend for the same device.  Returns blocks destaged.
        """
        cache = self.cache
        if cache is None or not runs:
            return 0
        if background:
            self.clock.push_frame(background=True)
            try:
                return self._destage_blocks(
                    inode, runs, defer_offline=defer_offline, durable=durable
                )
            finally:
                # deliberately discard the frame cursor: the batch drains
                # on the device timelines while the foreground proceeds
                self.clock.pop_frame()
        bs = self.block_size
        destaged = 0
        nruns = 0
        touched: Dict[int, Tier] = {}
        for start, count in runs:
            for run_start, run_len, tier_id in list(inode.blt.runs(start, count)):
                if tier_id is None:
                    # the range was unmapped since absorption (truncate or
                    # punch already invalidated; defensive)
                    cache.mark_clean(inode.ino, run_start, run_len)
                    continue
                want = min(run_len * bs, inode.size - run_start * bs)
                if want <= 0:
                    cache.mark_clean(inode.ino, run_start, run_len)
                    continue
                tier = self.registry.get(tier_id)
                if defer_offline and tier.health.is_offline:
                    self.stats.add("destage_deferred", run_len)
                    continue
                self.clock.advance_ns(cal.CACHE_DESTAGE_RUN_NS)
                payload = cache.load_for_destage(inode.ino, run_start, run_len)

                def op(t: Tier = tier, off: int = run_start * bs,
                       buf: bytes = payload[:want]) -> None:
                    self.clock.advance_ns(cal.MUX_DISPATCH_NS)
                    tier_handle = self._tier_handle(inode, t, create=True)
                    self.vfs.write(tier_handle, off, buf)

                self._tier_io(tier, op)
                cache.mark_clean(inode.ino, run_start, run_len)
                touched[tier_id] = tier
                destaged += run_len
                nruns += 1
        if durable:
            for tier_id in sorted(touched):
                try:
                    self.tier_fsync(inode, tier_id)
                except TierUnavailable:
                    # the tier died between the write and its flush; the
                    # blocks are marked clean but may be volatile there —
                    # recovery resolves via fsck's cache reconciliation
                    self.stats.add("destage_flush_failed")
        cache.note_destage(nruns, destaged)
        return destaged

    def _destage_evicted(self, ino: int, runs: List[Tuple[int, int]]) -> None:
        """Destage callback the cache invokes before evicting dirty blocks."""
        try:
            inode = self.ns.get(ino)
        except FileNotFound:
            return  # unlink already dropped the dirty marks
        self._destage_blocks(inode, runs, durable=True)

    def _destage_file(self, inode: CollectiveInode, durable: bool = False) -> int:
        """Destage every dirty block of one file (fsync/close paths)."""
        cache = self.cache
        if cache is None or not cache.write_back:
            return 0
        runs = cache.dirty_runs(inode.ino)
        if not runs:
            return 0
        return self._destage_blocks(
            inode, runs, defer_offline=True, durable=durable
        )

    def _destage_all(self, durable: bool = False, background: bool = False) -> int:
        """Destage every dirty block in the cache (sync/budget paths)."""
        cache = self.cache
        if cache is None or not cache.write_back:
            return 0
        total = 0
        for ino in cache.dirty_files():
            try:
                inode = self.ns.get(ino)
            except FileNotFound:
                cache.invalidate_file(ino)  # defensive: unlink cleans up
                continue
            total += self._destage_blocks(
                inode,
                cache.dirty_runs(ino),
                defer_offline=True,
                durable=durable,
                background=background,
            )
        return total

    def destage_for_migration(
        self, inode: CollectiveInode, block_start: int, count: int
    ) -> None:
        """OCC pre-step: flush absorbed writes in the range to the source.

        Called by :class:`~repro.core.occ.OccSynchronizer` before the first
        attempt so the source tier holds the authoritative bytes the copy
        phase reads; absorption is refused while ``migration_active`` is
        set, so no new dirty blocks can appear mid-migration and a destage
        never races ``blt_commit_move``.
        """
        cache = self.cache
        if cache is None or not cache.write_back:
            return
        runs = cache.dirty_runs_in(inode.ino, block_start, count)
        if runs:
            self._destage_blocks(inode, runs, durable=True)

    def _maybe_writeback(self) -> None:
        """Destage everything when the dirty set or the sim clock says so."""
        cache = self.cache
        if cache is None or not cache.write_back:
            return
        dirty = cache.dirty_block_count
        if not dirty:
            return
        now = self.clock.now_ns
        if self._next_writeback_ns is None:
            self._next_writeback_ns = now + cal.CACHE_WRITEBACK_INTERVAL_NS
        threshold = cal.CACHE_WRITEBACK_MAX_DIRTY_FRAC * cache.capacity_blocks
        if dirty >= threshold or now >= self._next_writeback_ns:
            if dirty < threshold:
                # the time deadline fired before the dirty budget did:
                # bounded staleness beat a foreground flood to the destage
                # (dispatcher-fairness counterpart of deadline promotion)
                self.stats.add("wb_deadline_destages")
            # the batch drains on background device channels; the user op
            # that tripped the budget is not stalled behind it
            self._destage_all(durable=True, background=self.scheduler.parallel)
            self._next_writeback_ns = (
                self.clock.now_ns + cal.CACHE_WRITEBACK_INTERVAL_NS
            )

    def write(self, handle: FileHandle, offset: int, data: bytes) -> int:
        handle.ensure_open()
        if not OpenFlags.writable(handle.flags):
            raise InvalidArgument("handle not open for writing")
        if offset < 0:
            raise InvalidArgument("negative offset")
        inode = self.ns.get(handle.ino)
        if inode.is_dir:
            raise IsADirectory(f"mux: write to directory {handle.path!r}")
        op_started_ns = self.clock.now_ns
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
        absorb_tier = self._absorb_write(inode, offset, data)
        if absorb_tier is not None:
            if inode.replicas is not None:
                # the write absorbs on the fastest copy; every mirror of
                # the touched range is stale until the sync engine recopies
                inode.replicas.note_write(
                    first_fb, nblocks, absorb_tier, self.clock.now_ns
                )
                self.mirrors.note_stale(inode.ino)
            self.policy.on_access(
                inode.ino,
                first_fb,
                nblocks,
                absorb_tier,
                "write",
                self.clock.now(),
            )
            # O_SYNC is already satisfied: the slot store + flush_range in
            # write_hit made the data durable on PM, which is exactly the
            # absorption win (§2.5) — synchronous small writes commit at
            # memory speed and destage to the slow tier in batches later
            self._finish_write(
                inode, offset, len(data), absorb_tier, op_started_ns,
                self._maybe_writeback,
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
            or not self._tier_has_room(self.registry.get(forced), len(data))
        ):
            # a suspect/offline/full pin routes around via the policy path
            forced = None
        if forced is not None:
            target = self.registry.get(forced)
        else:
            target = self._place(
                PlacementRequest(
                    path=handle.path,
                    ino=inode.ino,
                    offset=offset,
                    length=len(data),
                    file_size=inode.size,
                    is_append=offset >= inode.size,
                    synchronous=synchronous,
                )
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
            if self.cache is not None:
                self.cache.invalidate_range(inode.ino, seg_first, seg_count)
            self.policy.on_access(
                inode.ino,
                seg_first,
                seg_count,
                tier_id,
                "write",
                self.clock.now(),
            )

        if inode.replicas is not None:
            self.mirrors.note_stale(inode.ino)
        self._finish_write(
            inode, offset, len(data), placed[-1][0], op_started_ns,
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
        op_started_ns: int,
        settle=None,
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
        if self._meta is not None:
            self._meta.note(1)
        if settle is not None:
            settle()
        self.stats.add("write")
        self.stats.add("bytes_written", nbytes)
        self._record_latency("write", op_started_ns)

    def _tier_reserve(self, tier: Tier) -> int:
        """Headroom kept free on every tier: copy-on-write file systems
        need transient blocks, and Mux's own metafile must stay writable."""
        return max(64 * self.block_size, tier.fs.statfs().total_bytes // 100)

    def _tier_has_room(self, tier: Tier, length: int) -> bool:
        return tier.fs.statfs().free_bytes >= length + self._tier_reserve(tier)

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
        if not chosen.health.is_offline and self._tier_has_room(
            chosen, request.length
        ):
            return chosen
        for tier in self._writable_tiers():
            if tier.rank >= chosen.rank and self._tier_has_room(tier, request.length):
                return tier
        for tier in self._writable_tiers():
            if self._tier_has_room(tier, request.length):
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
        candidates = [tier_id] + [
            t.tier_id
            for t in self.registry.ordered()
            if t.tier_id != tier_id and t.rank >= self.registry.get(tier_id).rank
        ] + [
            t.tier_id
            for t in self.registry.ordered()
            if t.tier_id != tier_id and t.rank < self.registry.get(tier_id).rank
        ]
        last_error: Optional[Exception] = None
        for candidate in candidates:
            tier = self.registry.get(candidate)
            if tier.health.is_offline:
                continue  # a dead tier cannot absorb new writes

            def op(t: Tier = tier) -> None:
                seg_handle = self._tier_handle(inode, t, create=True)
                self.vfs.write(seg_handle, seg_off, seg_data)

            try:
                self._tier_io(tier, op)
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
            tier = self.registry.get(tier_id)
            if tier.health.is_offline:
                self.stats.add("truncate_skipped_offline")
                continue
            tier_handle = self._tier_handle(inode, tier, create=False)
            self.vfs.truncate(tier_handle, size)
        old_end = inode.blt.end_block()
        new_end = -(-size // self.block_size)
        if old_end > new_end:
            if self.cache is not None:
                self.cache.invalidate_range(inode.ino, new_end, old_end - new_end)
            inode.blt.unmap_range(new_end, old_end - new_end)
            if inode.replicas is not None:
                # the per-tier truncations above already cut every backing
                # file (mirror tiers are in tiers_present); only the
                # interval bookkeeping remains
                inode.replicas.drop_range(new_end, old_end - new_end)
        now = self.clock.now()
        inode.size = size
        inode.mtime = inode.ctime = now
        if self._meta is not None:
            self._meta.note(2)
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
        first_fb = offset // self.block_size
        count = length // self.block_size
        for run_start, run_len, tier_id in list(inode.blt.runs(first_fb, count)):
            if tier_id is None:
                continue
            tier = self.registry.get(tier_id)
            tier_handle = self._tier_handle(inode, tier, create=False)
            self.vfs.punch_hole(
                tier_handle, run_start * self.block_size, run_len * self.block_size
            )
            if self.cache is not None:
                self.cache.invalidate_range(inode.ino, run_start, run_len)
        if inode.replicas is not None:
            # mirror copies are invisible to the BLT loop above: punch
            # them explicitly so the replica blocks are reclaimed too
            for tier_id in inode.replicas.tiers():
                for s, n in intersect_runs(
                    inode.replicas.tracked_runs(tier_id), [(first_fb, count)]
                ):
                    try:
                        self.tier_punch(inode, tier_id, s, n)
                    except TierUnavailable:
                        self.stats.add("mirror_punch_skipped_offline")
                        break
            inode.replicas.drop_range(first_fb, count)
        inode.blt.unmap_range(first_fb, count)
        if self._meta is not None:
            self._meta.note(1)
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
        if self.cache is not None and self.cache.write_back and not inode.is_dir:
            # absorbed writes must reach their owning tiers before those
            # tiers' fsyncs below make them durable (the destage registers
            # the tier handle, so the fsync fan-out covers it)
            self._destage_file(inode)
        if self._meta is not None:
            # the per-tier fsyncs below commit the meta tier's journal too
            self._meta.flush(durable=False)
        targets: List[Tuple[Tier, FileHandle]] = []
        for tier_id in sorted(inode.tiers_present):
            tier_handle = inode.tier_handles.get(tier_id)
            if tier_handle is None or not tier_handle.is_open:
                continue
            tier = self.registry.get(tier_id)
            if tier.health.is_offline:
                # keep serving: surviving tiers still get their fsync,
                # the dead tier's durability debt is flagged for fsck
                self.stats.add("fsync_skipped_offline")
                continue
            targets.append((tier, tier_handle))

        def flush(target: Tuple[Tier, FileHandle]) -> bool:
            tier, tier_handle = target
            try:
                self._tier_io(tier, lambda: self.vfs.fsync(tier_handle))
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
                    inode.affinity.set_owner(name if name != "ctime" else "ctime", owner)
        self.clock.advance_ns(cal.MUX_AFFINITY_NS)
        if self._meta is not None:
            self._meta.note(1)
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
        views: List[FileView] = []
        for inode in self.ns.files():
            end = inode.blt.end_block()
            runs = list(inode.blt.runs(0, end)) if end else []
            views.append(
                FileView(
                    ino=inode.ino,
                    path=inode.rel_path,
                    size=inode.size,
                    blocks_by_tier={
                        t: inode.blt.blocks_on(t) for t in inode.blt.tiers_used()
                    },
                    runs=runs,
                )
            )
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

    def maintain(self, max_rounds: int = 4) -> int:
        """Ask the policy for migrations and run them to completion.

        Returns the number of migration orders executed.
        """
        executed = 0
        for _ in range(max_rounds):
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
        summary = self._drain_tier(tier_id, self._tier_has_room, "evacuate")
        self.stats.add("evacuations")
        if self._meta is not None:
            self._meta.note(2)
            self._meta.flush()
        return summary

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
            lines.append(
                f"  scm cache: {self.cache.cached_blocks}/"
                f"{self.cache.capacity_blocks} blocks, "
                f"hit ratio {self.cache.hit_ratio():.2f}"
            )
            if self.cache.write_back:
                counters = self.cache.cache_counters()
                lines.append(
                    f"  write-back: {counters.get('write_hit', 0)} absorbed, "
                    f"{counters.get('destage_runs', 0)} destage runs "
                    f"({counters.get('destaged_blocks', 0)} blocks), "
                    f"{counters.get('dirty_blocks', 0)} dirty"
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
        self._destage_all()
        if self._meta is not None:
            self._meta.flush()
        for tier in self.registry.ordered():
            tier.fs.sync()

    def crash(self) -> None:
        """Crash composition: each participating FS loses its own volatile
        state.  Mux's durable metadata is modeled by the metafile appends;
        collective-inode state is reconstructed from it on recovery (the
        reconstruction itself is charged as a metafile scan)."""
        for inode in self.ns.files():
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
        if self._meta is not None and len(self.registry):
            # charge the metafile scan on the fastest tier
            fastest = self.registry.fastest()
            if fastest.fs.exists(META_FILE):
                fastest.fs.read_file(META_FILE)
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
        for inode in self.ns.files():
            for tier_id in sorted(inode.tiers_present):
                tier = self.registry.maybe_get(tier_id)
                if tier is None or tier.health.is_offline:
                    continue
                if self.vfs.exists(self._tier_path(tier, inode)):
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
