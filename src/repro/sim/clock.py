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
    :attr:`now_ns` reads.

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

    Invariant: ``now_ns`` is always the *innermost* cursor — the global
    clock when no frame is active — and ``in_background`` is true exactly
    when some active frame is a background one.  Both are plain
    attributes, so reading the clock and advancing it cost one attribute
    access.  :meth:`push_frame` saves the outer ``(cursor, background)``
    pair and :meth:`pop_frame` restores it; an outer cursor cannot move
    while a frame above it is active (only :meth:`resume_frames` pulls
    saved cursors up to the global clock).  Writing ``now_ns`` directly
    bypasses the monotonicity check: use the ``advance_*`` methods — the
    one exception is Mux's per-op hot path (``repro.core``), which adds
    charges that are non-negative by construction to ``now_ns`` in place.
    """

    __slots__ = ("now_ns", "in_background", "_saved")

    def __init__(self) -> None:
        #: current simulated time in ns: the innermost frame's cursor
        self.now_ns = 0
        #: true while the active frames include a background one; devices
        #: use it to steer a request onto their reserved background channels
        self.in_background = False
        #: ``(cursor, background)`` of each enclosing level, outermost
        #: (the global clock) first
        self._saved: list = []

    # -- reading ---------------------------------------------------------

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.now_ns / NSEC_PER_SEC

    @property
    def global_now_ns(self) -> int:
        """The global (foreground) time, ignoring any active frame."""
        return self._saved[0][0] if self._saved else self.now_ns

    # -- frames ----------------------------------------------------------

    @property
    def in_frame(self) -> bool:
        """True while at least one frame is active."""
        return bool(self._saved)

    def push_frame(self, start_ns: Optional[int] = None, background: bool = False) -> int:
        """Start a new time frame at ``start_ns`` (default: current instant).

        Returns the frame's starting cursor.  All ``advance_*`` calls and
        ``now_ns`` reads operate on this cursor until :meth:`pop_frame`.
        """
        outer = self.now_ns
        start = outer if start_ns is None else start_ns
        if start < 0:
            raise ValueError("frame cannot start before t=0")
        self._saved.append((outer, self.in_background))
        self.now_ns = start
        if background:
            self.in_background = True
        return start

    def pop_frame(self) -> int:
        """End the innermost frame; returns its completion cursor.

        The global clock is *not* advanced — the caller decides how the
        frame's completion folds back (``advance_to(max(...))`` for
        overlapped foreground sub-requests, nothing for background work).
        """
        if not self._saved:
            raise RuntimeError("pop_frame with no active frame")
        cursor = self.now_ns
        self.now_ns, self.in_background = self._saved.pop()
        return cursor

    def suspend_frames(self) -> tuple:
        """Escape every active frame onto the global (foreground) clock.

        Returns an opaque token for :meth:`resume_frames`.  Used by code
        that must charge foreground time no matter what context it runs
        in — e.g. a pessimistic lock taken by a background migration
        blocks every user operation, so the locked copy stalls the global
        clock instead of hiding on background time.
        """
        token = (self._saved, self.now_ns, self.in_background)
        self.now_ns = self.global_now_ns
        self._saved = []
        self.in_background = False
        return token

    def resume_frames(self, token: tuple) -> None:
        """Reinstate frames suspended by :meth:`suspend_frames`.

        Frames cannot resume in the past: any cursor behind the global
        clock (which the foreground work just advanced) is pulled up.
        """
        saved, cursor, background = token
        now = self.global_now_ns
        self._saved = [(max(c, now), bg) for c, bg in saved]
        self.now_ns = max(cursor, now)
        self.in_background = background

    # -- advancing -------------------------------------------------------

    def advance_ns(self, delta_ns: int) -> int:
        """Advance the clock by ``delta_ns`` nanoseconds; returns new time.

        Raises ``ValueError`` on negative deltas — simulated time never
        runs backwards.
        """
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by {delta_ns}ns")
        self.now_ns += delta_ns
        return self.now_ns

    def advance_to(self, t_ns: int) -> int:
        """Advance to ``t_ns`` if it is in the future; never moves backwards.

        This is the completion-time primitive: a device hands back "your
        request completes at C" and the caller syncs with ``advance_to(C)``.
        """
        if t_ns > self.now_ns:
            self.now_ns = t_ns
        return self.now_ns

    def charge(self, delta_seconds: float) -> int:
        """Advance the clock by ``delta_seconds`` (float seconds)."""
        return self.advance_ns(seconds(delta_seconds))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(t={self.now():.9f}s)"
