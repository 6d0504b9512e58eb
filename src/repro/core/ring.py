"""io_uring-style asynchronous submit/complete API on the Mux.

The paper's unit of work is the *user request at the file-system
interface* — and real users issue many independent requests concurrently.
PR 5's parallel engine overlapped the sub-requests of a *single* split
op; this module lets **independent user ops** overlap on the per-device
:class:`~repro.devices.base.DeviceTimeline` channels, the way an
io_uring submission queue does on real NVMe hardware.

A ring submits to the file system it was opened on: a single Mux, or a
:class:`~repro.cluster.cluster.ClusterMux`, whose ``read``/``write``/
``fsync`` route each op to its shard.  Either way the ring is the same
object with one sequence, one pending queue and one ``depth``.

Simulation semantics
--------------------

Every submitted op executes *eagerly* inside its own clock frame pushed
at the submission instant: state mutations (cache fills, BLT updates,
journal appends) happen in program order — exactly the deterministic
discipline the frame machinery established — while the op's *time* is
charged to the frame, so its device accesses overlap with other in-flight
submissions on the device timelines.  The frame's final cursor is the
op's completion timestamp.  ``wait``/``drain`` are the synchronization
points: they advance the global clock to the reaped completion, just
like ``io_uring_wait_cqe``.

Determinism: completions are reaped in ``(completed_ns, seq)`` order, so
two ops completing on the same nanosecond always reap in submission
order, and the whole schedule is a pure function of the op sequence.

Backpressure: the ring bounds *overlap* at ``depth`` in-flight ops.  A
submit against a full ring first waits for the earliest in-flight
completion (the SQ-full stall of a real ring); the completed entry stays
queued for the user to reap.  ``depth=1`` therefore degenerates to the
serialized one-op-at-a-time model — the ablation baseline the
``multi_tenant`` benchmark compares against.

Failure: an op that raises a simulated-storage error (``ReproError``)
completes with ``Completion.error`` set instead of unwinding the caller
mid-submission — matching a CQE with a negative ``res``.  Host-side bugs
(``TypeError`` etc.) still propagate.
"""

from __future__ import annotations

import errno as _errno

from bisect import bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, List, NamedTuple, Optional

from repro.core import calibration as cal
from repro.errors import InvalidArgument, ReproError
from repro.vfs.interface import FileHandle

#: reap order: completion time, then submission order for ties
_REAP_ORDER = attrgetter("completed_ns", "seq")
#: sorts after every reap key of the same instant: ``bisect_right(pending,
#: (t, _AFTER_ALL), key=_REAP_ORDER)`` counts the completions due by ``t``
_AFTER_ALL = float("inf")


class Submission(NamedTuple):
    """Ticket for one submitted op (the SQE, after the doorbell)."""

    seq: int
    op: str  # "read" | "write" | "fsync"
    ino: int
    submitted_ns: int


@dataclass(slots=True)
class Completion:
    """One finished op (the CQE)."""

    seq: int
    op: str
    ino: int
    submitted_ns: int
    completed_ns: int
    #: bytes for reads, byte count for writes, None for fsync / errors
    result: Any = None
    #: the simulated-storage error the op failed with, if any
    error: Optional[ReproError] = None

    @property
    def latency_ns(self) -> int:
        """Submit-to-complete latency on the simulated clock."""
        return self.completed_ns - self.submitted_ns

    @property
    def errno(self) -> int:
        """POSIX errno of the failed op, 0 on success (the CQE ``res`` sign).

        FS errors carry their own errno (a failed writeback reports EIO
        exactly once per fd, via the errseq check in the fsync path);
        device-level errors that escape the FS default to EIO.
        """
        if self.error is None:
            return 0
        return getattr(self.error, "errno", _errno.EIO)

    def unwrap(self) -> Any:
        """Return ``result``, re-raising the op's error if it failed."""
        if self.error is not None:
            raise self.error
        return self.result


class IoRing:
    """Bounded submit/complete ring over one file system.

    Obtain via ``open_ring`` on a :class:`MuxFileSystem` or a
    ``ClusterMux``; ``close()`` drains it and unregisters it from that
    file system's ``rings``.  ``overlap`` is fixed when the ring opens:
    without it (the serial scheduler ablation) submissions execute on the
    global clock and nothing overlaps — the ring degenerates to a queue
    of already-done ops.

    Invariant: ``_pending`` holds every unreaped completion sorted in reap
    order, ``(completed_ns, seq)``.  Every question the ring asks of it is
    one bisection at an instant ``t``: the completions at or before ``t``
    are due (``poll`` reaps that prefix), the ones after it are in flight
    (their count is the backpressure test, and the first of them is the
    earliest completion a full ring stalls for).  Submit and poll
    therefore search the ring with one bisection, not one pass over it.
    """

    def __init__(self, fs, depth: int, overlap: bool) -> None:
        if depth < 1:
            raise InvalidArgument(f"ring depth must be >= 1, got {depth}")
        self.fs = fs
        self.depth = depth
        #: run each op in its own clock frame at the submission instant
        self.overlap = overlap
        self.clock = fs.clock
        self._next_seq = 0
        #: unreaped completions in reap order
        self._pending: List[Completion] = []
        self.closed = False
        # lifetime counters (surfaced via snapshot; deterministic)
        self.submitted = 0
        self.reaped = 0
        #: submits that stalled on a full ring
        self.backpressure_waits = 0
        #: deepest genuine overlap seen at any submit instant
        self.max_inflight = 0

    # -- submission ------------------------------------------------------

    def submit_read(self, handle: FileHandle, offset: int, length: int) -> Submission:
        """Queue a read; returns its :class:`Submission` ticket."""
        return self._submit("read", handle, self.fs.read, (handle, offset, length))

    def submit_write(self, handle: FileHandle, offset: int, data: bytes) -> Submission:
        """Queue a write; completion ``result`` is the byte count."""
        return self._submit("write", handle, self.fs.write, (handle, offset, data))

    def submit_fsync(self, handle: FileHandle) -> Submission:
        """Queue an fsync; completion ``result`` is None."""
        return self._submit("fsync", handle, self.fs.fsync, (handle,))

    def _submit(self, op: str, handle: FileHandle, run, args: tuple) -> Submission:
        if self.closed:
            raise InvalidArgument("submit on a closed ring")
        clock = self.clock
        # SQE build + doorbell: foreground cost, serializes submissions (a
        # constant charge, added to the cursor in place)
        clock.now_ns += cal.RING_SUBMIT_NS
        # ring-full backpressure: stall until the earliest in-flight op
        # completes (its CQE stays queued for the user to reap)
        pending = self._pending
        while True:
            due = bisect_right(pending, (clock.now_ns, _AFTER_ALL), key=_REAP_ORDER)
            inflight = len(pending) - due
            if inflight < self.depth:
                break
            self.backpressure_waits += 1
            clock.advance_to(pending[due].completed_ns)
        seq = self._next_seq
        self._next_seq += 1
        submitted_ns = clock.now_ns
        ino = handle.ino
        result = error = None
        overlap = self.overlap
        if overlap:
            clock.push_frame(submitted_ns)
        try:
            result = run(*args)
        except ReproError as exc:
            error = exc
        finally:
            completed_ns = clock.pop_frame() if overlap else clock.now_ns
        # the op may have drained the ring: queue on the current list; the
        # newest seq sorts after every tie
        insort(
            self._pending,
            Completion(seq, op, ino, submitted_ns, completed_ns, result, error),
            key=_REAP_ORDER,
        )
        self.submitted += 1
        if inflight >= self.max_inflight:
            self.max_inflight = inflight + 1
        return Submission(seq, op, ino, submitted_ns)

    # -- completion ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Completions queued but not yet reaped."""
        return len(self._pending)

    def inflight(self, ino: Optional[int] = None) -> int:
        """Unreaped ops still completing after the current instant."""
        pending = self._pending
        due = bisect_right(
            pending, (self.clock.global_now_ns, _AFTER_ALL), key=_REAP_ORDER
        )
        if ino is None:
            return len(pending) - due
        return sum(1 for c in pending[due:] if c.ino == ino)

    def _reap(self, completions: List[Completion]) -> List[Completion]:
        """Count ``completions`` (already off ``_pending``) as reaped."""
        if completions:
            self.reaped += len(completions)
            self.clock.now_ns += cal.RING_REAP_NS * len(completions)
        return completions

    def wait(self, submission: Optional[Submission] = None) -> Completion:
        """Reap one completion, advancing the clock to it.

        With a ticket: that specific op.  Without: the earliest pending
        completion in ``(completed_ns, seq)`` order.  The reaped op's
        error (if any) is *not* raised — check ``Completion.error`` or
        call :meth:`Completion.unwrap`.
        """
        pending = self._pending
        if not pending:
            raise InvalidArgument("wait on an empty ring")
        if submission is None:
            index = 0
        else:
            index = next(
                (i for i, c in enumerate(pending) if c.seq == submission.seq), None
            )
            if index is None:
                raise InvalidArgument(
                    f"submission #{submission.seq} is not pending on this ring"
                )
        target = pending.pop(index)
        self.clock.advance_to(target.completed_ns)
        return self._reap([target])[0]

    def poll(self) -> List[Completion]:
        """Reap every completion already due, without waiting.

        Returns ``(completed_ns, seq)``-ordered completions whose time
        has passed; an empty list if everything is still in flight.
        """
        pending = self._pending
        due = bisect_right(pending, (self.clock.now_ns, _AFTER_ALL), key=_REAP_ORDER)
        completions = pending[:due]
        del pending[:due]
        return self._reap(completions)

    def drain(self) -> List[Completion]:
        """Reap everything, advancing the clock to the last completion."""
        completions = self._pending
        self._pending = []
        if completions:
            self.clock.advance_to(completions[-1].completed_ns)
        return self._reap(completions)

    def quiesce(self, ino: Optional[int] = None) -> None:
        """Wait (on the global clock) for in-flight ops to finish.

        Used by the OCC Synchronizer's pessimistic-lock fallback: the
        lock must not be granted while async ops on the file are still
        completing, exactly as a kernel lock waits for in-flight DMA.
        Completions stay queued — quiescing is not reaping.
        """
        relevant = [
            c.completed_ns
            for c in self._pending
            if ino is None or c.ino == ino
        ]
        if relevant:
            self.clock.advance_to(max(relevant))

    def close(self) -> List[Completion]:
        """Drain outstanding completions and unregister from the file system.

        Idempotent: a second close reaps nothing; the lifetime counters
        stay readable through :meth:`snapshot`.
        """
        if self.closed:
            return []
        out = self.drain()
        self.closed = True
        self.fs.rings.remove(self)
        return out

    # -- introspection ---------------------------------------------------

    def snapshot(self) -> dict:
        """Lifetime ring counters (deterministic, fingerprint-safe)."""
        return {
            "depth": self.depth,
            "submitted": self.submitted,
            "reaped": self.reaped,
            "pending": len(self._pending),
            "backpressure_waits": self.backpressure_waits,
            "max_inflight": self.max_inflight,
        }

    def __enter__(self) -> "IoRing":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.closed:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IoRing(depth={self.depth}, pending={len(self._pending)}, "
            f"submitted={self.submitted})"
        )
