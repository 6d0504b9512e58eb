"""VFS Call Maker (Figure 1c): every call Mux makes to a tier's file system.

A file is backed by *sparse files of the same path* on each participating
tier (§2.1), so reaching "this file's bytes on tier T" means a backing
path under the tier's mount, its parent directories (made lazily), an
open handle cached on the collective inode, and then "the same VFS
function ... with different file handles, lengths, and offsets".  This
module is the only code that makes those turns, and the only copy of the
degraded-mode plumbing around them: every call is refused up front for an
OFFLINE tier, drives the tier's health state machine from its outcome,
retries transient device errors with bounded exponential backoff, and
surfaces what is left as :class:`~repro.errors.TierUnavailable` (EIO) —
never a raw device error.

On the healthy path that wrapper is one ``is_offline`` test and a no-op
``record_success``: no clock charge, no rng draw.

:class:`TierFiles` is also the raw-I/O half of the OCC synchronizer's
contract (:attr:`repro.core.occ.MigrationIo.files`): migration, mirror
sync and destage copy bytes through the same ``read``/``write``/``punch``/
``fsync`` as the foreground pipelines.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from repro.core import calibration as cal
from repro.core.metadata import CollectiveInode
from repro.core.registry import Tier, TierRegistry
from repro.devices.profile import DeviceKind
from repro.errors import DeviceIoError, DeviceOffline, TierUnavailable
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet
from repro.vfs import path as vpath
from repro.vfs.interface import FileHandle, OpenFlags
from repro.vfs.vfs import VFS

T = TypeVar("T")


def retry_transient(
    clock: SimClock, attempt: Callable[[], T], retried: Callable[[int], None]
) -> T:
    """Run ``attempt`` until it returns, riding out transient device errors.

    A transient :class:`DeviceIoError` is retried up to
    ``FAULT_MAX_RETRIES`` times with exponential simulated-time backoff;
    ``retried(delay_ns)`` hears about each retry before its backoff is
    charged.  A persistent error, or the one that exhausts the retries,
    propagates: what it means is the caller's decision.
    """
    delay = cal.FAULT_RETRY_BASE_NS
    retries_left = cal.FAULT_MAX_RETRIES
    while True:
        try:
            return attempt()
        except DeviceIoError as exc:
            if not (exc.transient and retries_left):
                raise
        retries_left -= 1
        retried(delay)
        clock.advance_ns(delay)
        delay *= cal.FAULT_BACKOFF_MULT


def _no_op(handle: FileHandle) -> None:
    """``create``'s operation: opening the handle is the whole job."""


class TierFiles:
    """The backing files of collective inodes, one tier at a time."""

    def __init__(
        self, vfs: VFS, clock: SimClock, registry: TierRegistry, stats: CounterSet
    ) -> None:
        self.vfs = vfs
        self.clock = clock
        self.registry = registry
        #: the Mux-wide counters (``fault_retries``, ``io_rejected_offline``…)
        self.stats = stats
        #: bytes written to PM-class tiers, by cause (report-only)
        self.pm_bytes = CounterSet()

    # -- the one door ----------------------------------------------------

    def _call(
        self,
        tier_id: int,
        op: Callable[..., T],
        args: tuple = (),
        inode: Optional[CollectiveInode] = None,
        create: bool = False,
        dispatch: bool = False,
    ) -> T:
        """Run one tier operation with health tracking and bounded retry.

        ``op(tier, *args)``, or ``op(handle, *args)`` on the file's backing
        handle (opened by ``create`` rules) when ``inode`` is given.  A
        transient device error is retried like :func:`retry_transient`,
        inline so the healthy path is one frame.  ``dispatch`` charges
        ``MUX_DISPATCH_NS`` per attempt, for callers outside the read/write
        pipelines (whose fan-out charges dispatch itself, once, on the
        caller's clock).
        """
        tier = self.registry.get(tier_id)
        health = tier.health
        if health.is_offline:
            self.stats.add("io_rejected_offline")
            raise TierUnavailable(f"tier {tier.name!r} is offline")
        delay = cal.FAULT_RETRY_BASE_NS
        retries_left = cal.FAULT_MAX_RETRIES
        while True:
            try:
                if dispatch:
                    self.clock.advance_ns(cal.MUX_DISPATCH_NS)
                if inode is None:
                    result = op(tier, *args)
                else:
                    result = op(self._handle(inode, tier, create), *args)
            except DeviceOffline as exc:
                health.mark_offline()
                self.stats.add("io_rejected_offline")
                raise TierUnavailable(str(exc)) from exc
            except DeviceIoError as exc:
                health.record_error()
                if health.is_offline:
                    raise TierUnavailable(str(exc)) from exc
                if not (exc.transient and retries_left):
                    self.stats.add("fault_gave_up")
                    raise TierUnavailable(str(exc)) from exc
            else:
                health.record_success()
                return result
            retries_left -= 1
            self.stats.add("fault_retries")
            self.stats.add("fault_backoff_ns", delay)
            self.clock.advance_ns(delay)
            delay *= cal.FAULT_BACKOFF_MULT

    # -- paths and handles -----------------------------------------------

    @staticmethod
    def path(tier: Tier, rel_path: str) -> str:
        """Where ``rel_path`` lives under one tier's mount."""
        return vpath.join(tier.mount, rel_path.lstrip("/"))

    def _make_parents(self, tier: Tier, rel_path: str) -> None:
        """mkdir -p the parents of ``rel_path`` on one tier."""
        missing = []
        probe = vpath.dirname(rel_path)
        while probe != "/" and not self.vfs.exists(self.path(tier, probe)):
            missing.append(probe)
            probe = vpath.dirname(probe)
        for rel in reversed(missing):
            self.vfs.mkdir(self.path(tier, rel))

    def _handle(self, inode: CollectiveInode, tier: Tier, create: bool) -> FileHandle:
        """The cached open handle for a file's backing file on one tier."""
        handle = inode.tier_handles.get(tier.tier_id)
        if handle is not None and handle.is_open:
            return handle
        full = self.path(tier, inode.rel_path)
        flags = OpenFlags.RDWR | (OpenFlags.CREAT if create else 0)
        if create and not self.vfs.exists(full):
            self._make_parents(tier, inode.rel_path)
        handle = self.vfs.open(full, flags)
        inode.tier_handles[tier.tier_id] = handle
        inode.tiers_present.add(tier.tier_id)
        return handle

    def is_open(self, inode: CollectiveInode, tier_id: int) -> bool:
        handle = inode.tier_handles.get(tier_id)
        return handle is not None and handle.is_open

    def close(self, inode: CollectiveInode, tier_id: Optional[int] = None) -> None:
        """Close and forget the cached handle on one tier (default: all)."""
        for tid in [tier_id] if tier_id is not None else list(inode.tier_handles):
            handle = inode.tier_handles.pop(tid, None)
            if handle is not None and handle.is_open:
                self.vfs.close(handle)

    # -- data ------------------------------------------------------------

    def create(self, inode: CollectiveInode, tier_id: int) -> None:
        """Create (or open) the file's backing file on one tier."""
        self._call(tier_id, _no_op, (), inode, create=True)

    def read(
        self,
        inode: CollectiveInode,
        tier_id: int,
        offset: int,
        length: int,
        create: bool = False,
        dispatch: bool = False,
    ) -> bytes:
        """``length`` bytes at ``offset``; a sparse tail reads as zeros.

        ``create`` opens an uncached handle the way writes do (existence
        probe + O_CREAT): the copy engines have always read their source
        that way, and the probe is simulated time the goldens pin.
        """
        data = self._call(
            tier_id, self.vfs.read, (offset, length), inode, create, dispatch
        )
        if len(data) < length:
            data += bytes(length - len(data))
        return data

    def read_into(
        self,
        inode: CollectiveInode,
        tier_id: int,
        offset: int,
        length: int,
        out: bytearray,
        out_off: int,
    ) -> None:
        """Read straight into ``out``: one copy, tier to caller."""
        self._call(tier_id, self.vfs.read_into, (offset, length, out, out_off), inode)

    def write(
        self,
        inode: CollectiveInode,
        tier_id: int,
        offset: int,
        data: bytes,
        dispatch: bool = False,
        *,
        cause: str,
    ) -> None:
        """Write ``data`` at ``offset``, creating the backing file if needed.

        ``cause`` names why (tiered placement, migration, mirror sync,
        destage) in :attr:`pm_bytes` when the tier is PM-class."""
        self._call(tier_id, self.vfs.write, (offset, data), inode, True, dispatch)
        if self.registry.kinds[tier_id] is DeviceKind.PERSISTENT_MEMORY:
            self.pm_bytes.add(cause, len(data))

    def fsync(self, inode: CollectiveInode, tier_id: int) -> None:
        self._call(tier_id, self.vfs.fsync, (), inode)

    def punch(
        self, inode: CollectiveInode, tier_id: int, offset: int, length: int
    ) -> None:
        self._call(tier_id, self.vfs.punch_hole, (offset, length), inode)

    def truncate(self, inode: CollectiveInode, tier_id: int, size: int) -> None:
        self._call(tier_id, self.vfs.truncate, (size,), inode)

    # -- namespace ---------------------------------------------------------

    def exists(self, inode: CollectiveInode, tier_id: int) -> bool:
        return self._call(
            tier_id, lambda tier: self.vfs.exists(self.path(tier, inode.rel_path))
        )

    def unlink(self, inode: CollectiveInode, tier_id: int) -> None:
        """Remove the file's backing file on one tier, if it has one."""

        def op(tier: Tier) -> None:
            full = self.path(tier, inode.rel_path)
            if self.vfs.exists(full):
                self.vfs.unlink(full)

        self._call(tier_id, op)

    def rename(self, inode: CollectiveInode, tier_id: int, old_rel: str) -> None:
        """Move one tier's backing file from ``old_rel`` to ``inode.rel_path``."""

        def op(tier: Tier) -> None:
            old_full = self.path(tier, old_rel)
            if not self.vfs.exists(old_full):
                return
            self._make_parents(tier, inode.rel_path)
            new_full = self.path(tier, inode.rel_path)
            # the handle names the old path
            self.close(inode, tier_id)
            if self.vfs.exists(new_full):
                self.vfs.unlink(new_full)
            self.vfs.rename(old_full, new_full)

        self._call(tier_id, op)

    def rmdir(self, rel_path: str) -> None:
        """Remove the (empty) backing directory of ``rel_path`` on every
        reachable tier; an OFFLINE tier keeps its skeleton for fsck."""

        def op(tier: Tier) -> None:
            full = self.path(tier, rel_path)
            if self.vfs.exists(full):
                self.vfs.rmdir(full)

        for tier in self.registry.ordered():
            if not tier.health.is_offline:
                self._call(tier.tier_id, op)
