"""Device-profile-aware I/O scheduler (§4, "Improving the I/O Scheduler").

"We currently use a simple scheduling algorithm based on device profiles
(performance characteristics and feature sets)."

When Mux splits one user request into per-tier sub-requests, the scheduler
decides dispatch order and merges sub-requests that are adjacent in the
same file on the same tier.  Two effects are real in the simulation:

* merging adjacent spans saves per-request software cost (one delegated
  VFS call instead of many);
* sorting sub-requests by file offset on seek-bound devices (the elevator
  pass) reduces HDD head movement.

The scheduler can be disabled for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.devices.profile import DeviceKind


#: device classes fastest first, the scheduler's tier order
_KIND_RANK = {
    DeviceKind.PERSISTENT_MEMORY: 0,
    DeviceKind.SOLID_STATE: 1,
    DeviceKind.HARD_DISK: 2,
}


@dataclass
class SubRequest:
    """One delegated span of a split user I/O."""

    tier_id: int
    offset: int  # byte offset in the file
    length: int
    #: index into the user buffer this span maps to
    buffer_offset: int

    @property
    def end(self) -> int:
        return self.offset + self.length


class IoScheduler:
    """Dispatcher for the per-tier sub-requests of one user operation.

    Beyond ordering and merging, the scheduler decides whether the plan is
    *dispatched in parallel*: with ``parallel=True`` (the default) Mux runs
    each sub-request in its own clock frame against the target device's
    timeline, so sub-requests on different tiers overlap and the user op
    completes at the max of their completions.  ``parallel=False`` keeps
    the historical serial model (sum of latencies) for ablation.

    Per-tier dispatch counters accumulate across the scheduler's lifetime;
    per-device queue/utilization gauges live on each device's
    :class:`~repro.devices.base.DeviceTimeline` (the scheduler plans in
    file-offset space and never sees devices directly).
    """

    def __init__(self, enabled: bool = True, parallel: bool = True) -> None:
        self.enabled = enabled
        #: overlap sub-requests of one split op across tiers
        self.parallel = parallel
        self.merges = 0
        self.dispatches = 0
        #: plans that contained more than one sub-request after merging
        self.batches = 0
        self.tier_dispatches: Dict[int, int] = {}
        self.tier_bytes: Dict[int, int] = {}

    def _account(self, plan: List[SubRequest]) -> List[SubRequest]:
        if len(plan) > 1:
            self.batches += 1
        for req in plan:
            self.tier_dispatches[req.tier_id] = (
                self.tier_dispatches.get(req.tier_id, 0) + 1
            )
            self.tier_bytes[req.tier_id] = (
                self.tier_bytes.get(req.tier_id, 0) + req.length
            )
        return plan

    def snapshot(self) -> Dict[str, object]:
        """Lifetime dispatch counters (deterministic, fingerprint-safe)."""
        return {
            "merges": self.merges,
            "dispatches": self.dispatches,
            "batches": self.batches,
            "tier_dispatches": dict(sorted(self.tier_dispatches.items())),
            "tier_bytes": dict(sorted(self.tier_bytes.items())),
        }

    def plan(
        self, subrequests: List[SubRequest], tier_kinds: Dict[int, DeviceKind]
    ) -> List[SubRequest]:
        """Return the dispatch plan for one split operation.

        Disabled: FIFO, no merging.  Enabled: per-tier elevator order for
        seek-bound tiers, then adjacent-span merging.  Tier ordering
        depends on the dispatch model:

        * serial (``parallel=False``): fast tiers first, so their results
          return before the slow devices are even touched;
        * parallel: *slowest* tiers first — every sub-request overlaps, so
          the op completes at the max of completions and the win is
          starting the bottleneck device as early as possible (fast tiers
          finish almost immediately whenever they are dispatched).
        """
        self.dispatches += len(subrequests)
        if not self.enabled or len(subrequests) <= 1:
            return self._account(list(subrequests))

        flip = -1 if self.parallel else 1

        def sort_key(req: SubRequest):
            # tier rank by dispatch model; then elevator order within tier
            rank = _KIND_RANK[tier_kinds.get(req.tier_id, DeviceKind.SOLID_STATE)]
            return (flip * rank, req.tier_id, req.offset)

        ordered = sorted(subrequests, key=sort_key)
        merged: List[SubRequest] = []
        for req in ordered:
            prev = merged[-1] if merged else None
            if (
                prev is not None
                and prev.tier_id == req.tier_id
                and prev.end == req.offset
                and prev.buffer_offset + prev.length == req.buffer_offset
            ):
                prev.length += req.length
                self.merges += 1
            else:
                merged.append(
                    SubRequest(req.tier_id, req.offset, req.length, req.buffer_offset)
                )
        return self._account(merged)
