"""Pressure signals: queue/health/dirty-load features for tiering.

The parallel I/O engine already tracks the load signals that matter for
placement — per-device channel backlog, utilization, the saturation
knee — but until now policies saw only capacity and per-inode hotness.
This module samples each tier's load hint (what the tier's file system
returns from :meth:`~repro.vfs.interface.FileSystem.load_hint`) on
SimClock time, EWMA-smooths the gauges, and exposes them through
``TierState.pressure`` so any policy in the registry can route bursts
around saturated channels, demote off a backlogged tier, or defer a
migration whose target is hot.

Sampling is pure host-side bookkeeping: it charges no simulated time and
consumes no randomness, so it cannot perturb golden fingerprints.  Every
smoothed value is a function of integer clock readings and integer
timeline gauges, making the signals bit-deterministic across runs.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional


class TierPressure(NamedTuple):
    """Load snapshot for one tier, attached to ``TierState.pressure``.

    ``queued`` is the instantaneous per-channel backlog at the last
    sample; ``backlog`` is its EWMA.  ``utilization`` is the EWMA of the
    fraction of channel-time spent servicing requests over recent sample
    windows.  ``dirty_fraction`` is the write-back cache's dirty share
    when the tier hosts the SCM cache (0.0 otherwise) — high values mean
    a destage burst is imminent on this tier's channels.
    """

    queued: float = 0.0
    backlog: float = 0.0
    utilization: float = 0.0
    dirty_fraction: float = 0.0
    sampled_ns: int = 0

    @property
    def load(self) -> float:
        """The placement signal; see :func:`_load`."""
        return _load(self.queued, self.backlog)


def _load(queued: float, backlog: float) -> float:
    """The signal placement thresholds on: current or trending backlog.

    ``max(queued, backlog)`` reacts within one sample when a burst
    lands (instantaneous term) while the EWMA term keeps the signal
    elevated through the burst's tail instead of flapping.
    """
    return queued if queued > backlog else backlog


class _TierGauges:
    """Mutable per-tier EWMA state (one per attached load hint)."""

    __slots__ = (
        "hint",
        "ewma_backlog",
        "ewma_util",
        "queued",
        "dirty",
        "last_busy_ns",
        "last_sample_ns",
        "samples",
        "snapshot_obj",
    )

    def __init__(self, hint) -> None:
        self.hint = hint
        self.ewma_backlog = 0.0
        self.ewma_util = 0.0
        self.queued = 0.0
        self.dirty = 0.0
        self.last_busy_ns = 0
        self.last_sample_ns = -1
        self.samples = 0
        #: the last sample as a TierPressure, built on first read
        self.snapshot_obj: Optional[TierPressure] = None


class PressureMonitor:
    """Samples per-tier load hints into :class:`TierPressure`.

    The mux attaches one hint per tier whose file system offers one
    (``queued_at(now_ns)``, ``nchannels``, ``busy_ns``);
    :meth:`sample` is interval-gated so calling it on every
    placement stays cheap, and only updates the gauges: the immutable
    :class:`TierPressure` a policy sees is built by :meth:`pressure_of`
    the first time a sample is read, then shared until the next one.

    Invariant: ``_next_due_ns`` is never later than the first instant at
    which some tier's gate opens (``last_sample_ns + sample_interval_ns``,
    or at once for a tier never sampled).  A call before it returns after
    one comparison; any other call walks the tiers and gates each one as
    before, so which tiers sample, and when, is unchanged.
    """

    #: weight of the newest sample in each EWMA gauge
    ALPHA = 0.3

    def __init__(self) -> None:
        #: minimum simulated time between two samples of a tier; the
        #: stack builder may shorten it (``pressure_interval_ns``) before
        #: the first sample
        self.sample_interval_ns = 20_000
        self._tiers: Dict[int, _TierGauges] = {}
        #: no tier's sample is due before this instant (class docstring)
        self._next_due_ns = 0
        #: tier hosting the write-back cache -> dirty-fraction gauge
        self._dirty_tier: Optional[int] = None
        self._dirty_fn: Optional[Callable[[], float]] = None

    # -- wiring ------------------------------------------------------------

    def attach(self, tier_id: int, hint) -> None:
        """Track one tier's load hint."""
        self._tiers[tier_id] = _TierGauges(hint)
        self._next_due_ns = 0  # a new tier samples at the next call

    def detach(self, tier_id: int) -> None:
        self._tiers.pop(tier_id, None)
        if self._dirty_tier == tier_id:
            self._dirty_tier = None
            self._dirty_fn = None

    def set_dirty_gauge(self, tier_id: int, fn: Callable[[], float]) -> None:
        """Report the write-back cache's dirty fraction on ``tier_id``."""
        self._dirty_tier = tier_id
        self._dirty_fn = fn

    # -- sampling ----------------------------------------------------------

    def sample(self, now_ns: int, force: bool = False) -> None:
        """Refresh the pressure snapshots if the sample interval elapsed.

        Pure host-side: no simulated time is charged and no randomness
        is consumed, so fingerprints cannot drift from sampling.
        """
        if now_ns < self._next_due_ns and not force:
            return
        alpha = self.ALPHA
        next_due = now_ns + self.sample_interval_ns  # a tier sampled now
        for tier_id, g in self._tiers.items():
            if g.last_sample_ns >= 0:
                dt = now_ns - g.last_sample_ns
                if dt < self.sample_interval_ns and not force:
                    next_due = min(
                        next_due, g.last_sample_ns + self.sample_interval_ns
                    )
                    continue
            else:
                dt = 0
            tl = g.hint
            inst_queued = tl.queued_at(now_ns) / tl.nchannels
            g.queued = inst_queued
            if g.samples == 0:
                g.ewma_backlog = inst_queued
            else:
                g.ewma_backlog += alpha * (inst_queued - g.ewma_backlog)
            if dt > 0:
                inst_util = (tl.busy_ns - g.last_busy_ns) / (dt * tl.nchannels)
                if inst_util > 1.0:
                    inst_util = 1.0
                if g.samples <= 1:
                    g.ewma_util = inst_util
                else:
                    g.ewma_util += alpha * (inst_util - g.ewma_util)
            g.last_busy_ns = tl.busy_ns
            g.last_sample_ns = now_ns
            g.samples += 1
            g.dirty = 0.0
            if tier_id == self._dirty_tier and self._dirty_fn is not None:
                g.dirty = self._dirty_fn()
            g.snapshot_obj = None
        self._next_due_ns = next_due

    # -- reading -----------------------------------------------------------

    def pressure_of(self, tier_id: int) -> Optional[TierPressure]:
        """The tier's last sample (None when untracked or never sampled)."""
        g = self._tiers.get(tier_id)
        if g is None or not g.samples:
            return None
        if g.snapshot_obj is None:
            g.snapshot_obj = TierPressure(
                g.queued, g.ewma_backlog, g.ewma_util, g.dirty, g.last_sample_ns
            )
        return g.snapshot_obj

    def load_of(self, tier_id: int) -> float:
        """Current load signal for one tier (0.0 when untracked); the
        same number as ``pressure_of(tier_id).load``."""
        g = self._tiers.get(tier_id)
        if g is None or not g.samples:
            return 0.0
        return _load(g.queued, g.ewma_backlog)

    def instant_load_of(self, tier_id: int, now_ns: int) -> float:
        """Per-channel backlog right now, bypassing the sample gate.

        Pure read of the hint (no gauge state is touched), for
        decisions that must see a burst the moment it lands — e.g. the
        migration engine pacing chunks between foreground ops that all
        share one arrival instant, where the interval-gated snapshot is
        necessarily stale.
        """
        g = self._tiers.get(tier_id)
        if g is None:
            return 0.0
        tl = g.hint
        return tl.queued_at(now_ns) / tl.nchannels

    def snapshot(self) -> Dict[int, Dict[str, float]]:
        """Rounded per-tier gauges for dumps (``bench trace``)."""
        snap: Dict[int, Dict[str, float]] = {}
        for tier_id in sorted(self._tiers):
            g = self._tiers[tier_id]
            p = self.pressure_of(tier_id)
            if p is None:
                continue
            snap[tier_id] = {
                "queued": round(p.queued, 4),
                "backlog": round(p.backlog, 4),
                "utilization": round(p.utilization, 4),
                "dirty_fraction": round(p.dirty_fraction, 4),
                "samples": g.samples,
            }
        return snap
