"""OCC Synchronizer: lock-free data movement across file systems (§2.4).

"Our insight is that data movement does not change the content of the
data; so, a data movement process is considered successful if the content
of the data remains unchanged throughout the process."

Protocol, as the paper describes it:

1. the per-file version counter is incremented and the migration flag set
   at the *start* of a movement;
2. blocks are copied from the source file system to the destination's
   sparse file (same offsets) — user operations proceed concurrently and
   keep hitting the source, because the Block Lookup Table has not changed;
3. at the end, the version is incremented again and Mux checks for blocks
   written during the movement.  Clean blocks are **atomically committed**
   (BLT flip + source hole punch); dirty blocks are dropped ("overwritten
   in place in the next migration attempt") and retried;
4. after a bounded number of retries Mux "resorts to a lock-based
   migration": the remaining blocks are copied with the file locked, which
   in this deterministic simulation means within a single un-yieldable
   step — no user operation can interleave — guaranteeing completion in
   finite time and a bounded replication lag.

The whole protocol operates on *runs* — sorted, disjoint (start, length)
block extents — never on per-block lists.  Real migrations move long
contiguous extents, so the clean-set/conflict/retry bookkeeping is
O(runs) interval algebra (see :mod:`repro.core.intervals`) instead of
O(blocks) set membership.  The simulated charge sequence is unchanged:
copies were always issued span-at-a-time, and the dirty intervals recorded
by the write path produce exactly the per-block clean set of the scalar
protocol.

The copy loop yields between chunks, so tests can interleave adversarial
user writes at every step via :func:`repro.sim.tasks.run_interleaved`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Protocol, Tuple

from repro.core import calibration as cal
from repro.core.cachectl import CacheController
from repro.core.intervals import (
    Run,
    normalize_runs,
    runs_length,
    subtract_runs,
)
from repro.core.metadata import CollectiveInode
from repro.core.tierfiles import TierFiles
from repro.errors import NoSpace, TierUnavailable
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet


class MigrationIo(Protocol):
    """The host the synchronizer moves data for (implemented by Mux)."""

    block_size: int
    clock: SimClock
    #: raw per-tier I/O: ``read``/``write``/``punch``/``fsync`` of one
    #: tier's backing file
    files: TierFiles
    #: its ``destage_ranges`` runs once, before the first attempt:
    #: absorption is refused while ``migration_active`` is set and the
    #: synchronizer never yields between validation and the next attempt's
    #: flag set, so that one destage never races :meth:`blt_commit_move`
    cachectl: CacheController

    def blt_commit_move(
        self, inode: CollectiveInode, runs: List[Run], src_tier: int, dst_tier: int
    ) -> None: ...

    def quiesce_inflight(self, ino: int) -> None:
        """Wait for async ring ops in flight against ``ino`` to complete.

        Called by the pessimistic lock fallback *after*
        :meth:`SimClock.suspend_frames`, so the wait lands on the global
        clock and the lock covers every submission the user had
        outstanding when the lock was requested.
        """
        ...


@dataclass
class MigrationResult:
    """Outcome of one migrate() call."""

    moved_blocks: int = 0
    bytes_moved: int = 0
    attempts: int = 0
    conflicts: int = 0
    lock_fallback: bool = False
    #: blocks that no longer lived on the source when we looked (already
    #: moved or rewritten elsewhere) — skipped, not an error
    skipped_blocks: int = 0
    #: contiguous runs committed (each run = one BLT flip + one hole punch)
    committed_runs: int = 0
    #: the destination ran out of space; the movement aborted safely
    #: (source copies untouched, BLT unchanged for unmoved blocks)
    aborted_no_space: bool = False
    #: transient-fault retries spent inside this migration's tier I/O
    retries: int = 0
    #: simulated ns of exponential backoff charged for those retries
    backoff_ns: int = 0
    #: a tier failed hard (offline / retries exhausted): the movement
    #: aborted safely with unmoved blocks still (only) on the source
    gave_up: bool = False


class OccSynchronizer:
    """Executes OCC block migration against a :class:`MigrationIo`."""

    def __init__(self, io: MigrationIo, force_lock: bool = False) -> None:
        self.io = io
        self.stats = CounterSet()
        #: ablation switch: skip OCC entirely and always take the
        #: pessimistic lock (what a traditional tiered FS does, §2.4)
        self.force_lock = force_lock

    # -- public API -------------------------------------------------------

    def migrate(
        self,
        inode: CollectiveInode,
        block_start: int,
        count: int,
        src_tier: int,
        dst_tier: int,
    ) -> Generator[None, None, MigrationResult]:
        """Cooperatively migrate blocks of ``inode`` from src to dst.

        A generator: yields between copy chunks (interleave points).
        Returns a :class:`MigrationResult`.
        """
        result = MigrationResult()
        if src_tier == dst_tier or count <= 0:
            return result
        self.io.cachectl.destage_ranges(inode, [(block_start, count)])
        targets = self._runs_on_src(inode, [(block_start, count)], src_tier)
        result.skipped_blocks = count - runs_length(targets)

        attempts = 0 if self.force_lock else cal.OCC_MAX_RETRIES
        for _ in range(attempts):
            if not targets:
                return result
            result.attempts += 1
            self.stats.add("attempts")

            # -- start: version bump + migration flag -----------------------
            inode.version += 1
            inode.migration_active = True
            inode.dirty_during_migration.clear()
            version_at_start = inode.version
            self.io.clock.advance_ns(cal.MUX_OCC_CHECK_NS)

            # -- copy phase (yields between chunks) --------------------------
            try:
                yield from self._copy_runs(inode, targets, src_tier, dst_tier)
            except (NoSpace, TierUnavailable) as exc:
                # destination full or a tier failed hard: abort safely —
                # nothing committed yet, so user data still lives (only)
                # on the source
                inode.version += 1
                inode.migration_active = False
                inode.dirty_during_migration.clear()
                if isinstance(exc, TierUnavailable):
                    result.gave_up = True
                    self.stats.add("fault_aborts")
                else:
                    result.aborted_no_space = True
                    self.stats.add("no_space_aborts")
                return result

            # -- validate + commit -------------------------------------------
            inode.version += 1
            inode.migration_active = False
            dirty = inode.dirty_during_migration.runs()
            inode.dirty_during_migration.clear()
            raced = inode.version != version_at_start + 1
            if raced:
                # another movement interleaved; treat everything as suspect
                dirty = targets
            # clean = (targets still on the source) minus dirty writes
            clean = subtract_runs(
                self._runs_on_src(inode, targets, src_tier), dirty
            )
            try:
                self._commit(inode, clean, src_tier, dst_tier, result)
            except TierUnavailable:
                # the destination died before its fsync: nothing flipped,
                # the source copies remain authoritative
                result.gave_up = True
                self.stats.add("fault_aborts")
                return result
            conflicted = subtract_runs(targets, clean)
            conflict_blocks = runs_length(conflicted)
            result.conflicts += conflict_blocks
            if conflict_blocks:
                self.stats.add("conflicts", conflict_blocks)
            # retry only blocks that still live on the source
            targets = self._runs_on_src(inode, conflicted, src_tier)

        if targets:
            # -- lock-based fallback: single atomic step ----------------------
            result.lock_fallback = True
            self.stats.add("lock_fallbacks")
            # A pessimistic lock blocks every user operation on the file,
            # so the locked copy charges *foreground* time even when the
            # migration itself was submitted as background work.
            token = self.io.clock.suspend_frames()
            # The lock also cannot be granted while async ring ops are
            # still completing against the file: wait them out on the
            # global clock first.
            self.io.quiesce_inflight(inode.ino)
            self.io.clock.advance_ns(cal.LOCK_FALLBACK_NS)
            inode.locked = True
            try:
                for _ in self._copy_runs(inode, targets, src_tier, dst_tier):
                    pass  # no yields escape: the copy is atomic under the lock
                self._commit(inode, targets, src_tier, dst_tier, result)
            except NoSpace:
                result.aborted_no_space = True
                self.stats.add("no_space_aborts")
            except TierUnavailable:
                result.gave_up = True
                self.stats.add("fault_aborts")
            finally:
                inode.locked = False
                self.io.clock.resume_frames(token)
        return result

    # -- helpers ---------------------------------------------------------------

    def _runs_on_src(
        self, inode: CollectiveInode, runs: List[Run], src_tier: int
    ) -> List[Run]:
        """The sub-runs of ``runs`` whose blocks live on ``src_tier`` now."""
        found: List[Run] = []
        for start, length in runs:
            for run_start, run_len, tier in inode.blt.runs(start, length):
                if tier == src_tier:
                    found.append((run_start, run_len))
        return normalize_runs(found)

    def _copy_runs(
        self,
        inode: CollectiveInode,
        runs: List[Run],
        src_tier: int,
        dst_tier: int,
    ) -> Generator[None, None, None]:
        """Copy runs chunk-by-chunk; yields between chunks."""
        block_size = self.io.block_size
        for span_start, span_len in runs:
            copied = 0
            while copied < span_len:
                chunk = min(cal.MIGRATION_CHUNK_BLOCKS, span_len - copied)
                offset = (span_start + copied) * block_size
                data = self.io.files.read(
                    inode, src_tier, offset, chunk * block_size,
                    create=True, dispatch=True,
                )
                self.io.files.write(
                    inode, dst_tier, offset, data, dispatch=True, cause="migration"
                )
                copied += chunk
                self.stats.add("blocks_copied", chunk)
                yield

    def _commit(
        self,
        inode: CollectiveInode,
        runs: List[Run],
        src_tier: int,
        dst_tier: int,
        result: MigrationResult,
    ) -> None:
        """Atomically flip clean runs to dst and punch the src copies.

        The destination copy is made durable *before* the source copy is
        released — otherwise a crash between punch and writeback could
        lose the only copy of the data.
        """
        if not runs:
            return
        block_size = self.io.block_size
        self.io.files.fsync(inode, dst_tier)
        self.io.blt_commit_move(inode, runs, src_tier, dst_tier)
        for span_start, span_len in runs:
            try:
                self.io.files.punch(
                    inode, src_tier, span_start * block_size, span_len * block_size
                )
            except TierUnavailable:
                # data is already durable on dst and the BLT is flipped;
                # a dead source just can't release its stale copy yet
                self.stats.add("punch_failures")
        moved = runs_length(runs)
        result.moved_blocks += moved
        result.bytes_moved += moved * block_size
        result.committed_runs += len(runs)
        self.stats.add("blocks_committed", moved)
        self.stats.add("runs_committed", len(runs))


def _contiguous_spans(blocks: List[int]) -> List[tuple]:
    """Group a (possibly unsorted) block list into (start, length) spans.

    Kept for callers that still hold per-block lists; the synchronizer
    itself works on runs end to end.
    """
    spans: List[tuple] = []
    if not blocks:
        return spans
    ordered = sorted(blocks)
    start = ordered[0]
    length = 1
    for block in ordered[1:]:
        if block == start + length:
            length += 1
        else:
            spans.append((start, length))
            start, length = block, 1
    spans.append((start, length))
    return spans
