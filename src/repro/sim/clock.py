"""Deterministic virtual clock used by every simulated component.

The whole reproduction runs on *simulated* time: devices, file systems and
Mux itself charge their latencies to a shared :class:`SimClock` instead of
sleeping.  This makes every benchmark deterministic and machine-independent
— throughput and latency numbers depend only on the timing models, never on
the host CPU.

Time is kept in integer **nanoseconds** internally to avoid floating-point
drift when billions of small charges are accumulated; the public API speaks
seconds (floats) for convenience.
"""

from __future__ import annotations

from typing import Optional

NSEC_PER_SEC = 1_000_000_000


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds (rounding to nearest)."""
    return round(value * NSEC_PER_SEC)


def microseconds(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(value * 1_000)


def milliseconds(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(value * 1_000_000)


class SimClock:
    """A monotonically advancing virtual clock.

    All simulated components share one instance.  Components call
    :meth:`charge` (or :meth:`advance_ns`) to account for the time their
    operation takes; measurement harnesses bracket a workload with
    :meth:`now_ns` reads.

    **Frames** are the parallel-I/O-engine extension: :meth:`push_frame`
    starts an independent time cursor, so code running inside the frame
    charges its latency to the cursor instead of the global clock.  The
    caller pops the frame, collects its completion time, and folds the
    overlap back in with :meth:`advance_to` — typically as the *max* over
    several sibling frames (sub-requests of one split op on different
    devices) or not at all (background work that only meets the foreground
    on the device timelines).  Frames move *time accounting* only; state
    mutations still happen in program order, which is what keeps the
    simulation deterministic.
    """

    __slots__ = ("_now_ns", "_frames", "_background_depth")

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ValueError("clock cannot start before t=0")
        self._now_ns = start_ns
        #: active frame cursors, innermost last: [cursor_ns, background]
        self._frames: list = []
        self._background_depth = 0

    # -- reading ---------------------------------------------------------

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds (frame cursor if active)."""
        if self._frames:
            return self._frames[-1][0]
        return self._now_ns

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.now_ns / NSEC_PER_SEC

    @property
    def global_now_ns(self) -> int:
        """The global (foreground) time, ignoring any active frame."""
        return self._now_ns

    # -- frames ----------------------------------------------------------

    @property
    def in_frame(self) -> bool:
        """True while at least one frame is active."""
        return bool(self._frames)

    @property
    def in_background(self) -> bool:
        """True while the innermost active frames include a background one.

        Devices use this to steer a request onto their reserved
        background channels.
        """
        return self._background_depth > 0

    def push_frame(self, start_ns: Optional[int] = None, background: bool = False) -> int:
        """Start a new time frame at ``start_ns`` (default: current instant).

        Returns the frame's starting cursor.  All ``advance_*`` calls and
        ``now_ns`` reads operate on this cursor until :meth:`pop_frame`.
        """
        start = self.now_ns if start_ns is None else start_ns
        if start < 0:
            raise ValueError("frame cannot start before t=0")
        self._frames.append([start, background])
        if background:
            self._background_depth += 1
        return start

    def pop_frame(self) -> int:
        """End the innermost frame; returns its completion cursor.

        The global clock is *not* advanced — the caller decides how the
        frame's completion folds back (``advance_to(max(...))`` for
        overlapped foreground sub-requests, nothing for background work).
        """
        if not self._frames:
            raise RuntimeError("pop_frame with no active frame")
        cursor, background = self._frames.pop()
        if background:
            self._background_depth -= 1
        return cursor

    def suspend_frames(self) -> tuple:
        """Escape every active frame onto the global (foreground) clock.

        Returns an opaque token for :meth:`resume_frames`.  Used by code
        that must charge foreground time no matter what context it runs
        in — e.g. a pessimistic lock taken by a background migration
        blocks every user operation, so the locked copy stalls the global
        clock instead of hiding on background time.
        """
        token = (self._frames, self._background_depth)
        self._frames = []
        self._background_depth = 0
        return token

    def resume_frames(self, token: tuple) -> None:
        """Reinstate frames suspended by :meth:`suspend_frames`.

        Frames cannot resume in the past: any cursor behind the global
        clock (which the foreground work just advanced) is pulled up.
        """
        frames, depth = token
        for frame in frames:
            if frame[0] < self._now_ns:
                frame[0] = self._now_ns
        self._frames = frames
        self._background_depth = depth

    # -- advancing -------------------------------------------------------

    def advance_ns(self, delta_ns: int) -> int:
        """Advance the clock by ``delta_ns`` nanoseconds; returns new time.

        Raises ``ValueError`` on negative deltas — simulated time never
        runs backwards.
        """
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by {delta_ns}ns")
        if self._frames:
            frame = self._frames[-1]
            frame[0] += delta_ns
            return frame[0]
        self._now_ns += delta_ns
        return self._now_ns

    def advance_to(self, t_ns: int) -> int:
        """Advance to ``t_ns`` if it is in the future; never moves backwards.

        This is the completion-time primitive: a device hands back "your
        request completes at C" and the caller syncs with ``advance_to(C)``.
        """
        if self._frames:
            frame = self._frames[-1]
            if t_ns > frame[0]:
                frame[0] = t_ns
            return frame[0]
        if t_ns > self._now_ns:
            self._now_ns = t_ns
        return self._now_ns

    def charge(self, delta_seconds: float) -> int:
        """Advance the clock by ``delta_seconds`` (float seconds)."""
        return self.advance_ns(seconds(delta_seconds))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(t={self.now():.9f}s)"

