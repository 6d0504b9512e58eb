"""Pressure signal: per-channel backlog of each tier, for tiering.

The parallel I/O engine already tracks the load that matters for
placement — how many requests wait on each device channel — but
policies see only capacity and per-inode hotness unless something
samples it.  This module samples each tier's load hint (what the tier's
file system returns from :meth:`~repro.vfs.interface.FileSystem.load_hint`)
on SimClock time, EWMA-smooths the backlog, and exposes one number per
tier, :meth:`PressureMonitor.load_of`, which Mux hands policies as
``TierState.load`` so any policy in the registry can route bursts
around saturated channels, demote off a backlogged tier, or defer a
migration whose target is hot.

Sampling is pure host-side bookkeeping: it charges no simulated time and
consumes no randomness, so it cannot perturb golden fingerprints.  Every
smoothed value is a function of integer clock readings and integer
timeline gauges, making the signal bit-deterministic across runs.
"""

from __future__ import annotations

from typing import Dict


class _TierGauges:
    """Mutable per-tier EWMA state (one per attached load hint)."""

    __slots__ = ("hint", "ewma_backlog", "queued", "last_sample_ns", "samples")

    def __init__(self, hint) -> None:
        self.hint = hint
        self.ewma_backlog = 0.0
        self.queued = 0.0
        self.last_sample_ns = -1
        self.samples = 0


class PressureMonitor:
    """Samples per-tier load hints into one backlog signal per tier.

    The mux attaches one hint per tier whose file system offers one
    (``queued_at(now_ns)``, ``nchannels``); :meth:`sample` is
    interval-gated so calling it on every placement stays cheap.

    Invariant: ``_next_due_ns`` is never later than the first instant at
    which some tier's gate opens (``last_sample_ns + sample_interval_ns``,
    or at once for a tier never sampled).  A call before it returns after
    one comparison; any other call walks the tiers and gates each one as
    before, so which tiers sample, and when, is unchanged.
    """

    #: weight of the newest sample in the backlog EWMA
    ALPHA = 0.3

    def __init__(self) -> None:
        #: minimum simulated time between two samples of a tier; the
        #: stack builder may shorten it (``pressure_interval_ns``) before
        #: the first sample
        self.sample_interval_ns = 20_000
        self._tiers: Dict[int, _TierGauges] = {}
        #: no tier's sample is due before this instant (class docstring)
        self._next_due_ns = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, tier_id: int, hint) -> None:
        """Track one tier's load hint."""
        self._tiers[tier_id] = _TierGauges(hint)
        self._next_due_ns = 0  # a new tier samples at the next call

    def detach(self, tier_id: int) -> None:
        self._tiers.pop(tier_id, None)

    # -- sampling ----------------------------------------------------------

    def sample(self, now_ns: int, force: bool = False) -> None:
        """Refresh the backlog gauges if the sample interval elapsed.

        Pure host-side: no simulated time is charged and no randomness
        is consumed, so fingerprints cannot drift from sampling.
        """
        if now_ns < self._next_due_ns and not force:
            return
        next_due = now_ns + self.sample_interval_ns  # a tier sampled now
        for g in self._tiers.values():
            if (
                g.last_sample_ns >= 0
                and now_ns - g.last_sample_ns < self.sample_interval_ns
                and not force
            ):
                next_due = min(next_due, g.last_sample_ns + self.sample_interval_ns)
                continue
            tl = g.hint
            g.queued = tl.queued_at(now_ns) / tl.nchannels
            if g.samples == 0:
                g.ewma_backlog = g.queued
            else:
                g.ewma_backlog += self.ALPHA * (g.queued - g.ewma_backlog)
            g.last_sample_ns = now_ns
            g.samples += 1
        self._next_due_ns = next_due

    # -- reading -----------------------------------------------------------

    def load_of(self, tier_id: int) -> float:
        """The signal placement thresholds on: current or trending backlog
        per channel (0.0 when untracked or never sampled).

        ``max(queued, backlog)`` reacts within one sample when a burst
        lands (instantaneous term) while the EWMA term keeps the signal
        elevated through the burst's tail instead of flapping.
        """
        g = self._tiers.get(tier_id)
        if g is None or not g.samples:
            return 0.0
        return g.queued if g.queued > g.ewma_backlog else g.ewma_backlog

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
        return {
            tier_id: {
                "queued": round(g.queued, 4),
                "backlog": round(g.ewma_backlog, 4),
                "samples": g.samples,
            }
            for tier_id, g in sorted(self._tiers.items())
            if g.samples
        }
