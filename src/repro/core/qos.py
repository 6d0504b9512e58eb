"""QoS for shared Mux (§4, "Configuring Mux").

"Sharing Mux among multiple applications may also require scheduling
schemes that support priority, deadline, and/or quota, which may dispatch
I/Os and accessed data blocks to file systems with different performances,
or ensure that high-priority tasks are not impeded."

The model implements the two mechanisms that are meaningful in a
deterministic simulation:

* **bandwidth quotas** — each I/O class owns a token bucket refilled in
  simulated time; an operation that overdraws its bucket is *throttled*
  (charged the delay until enough tokens would have accumulated), exactly
  how cgroup io.max behaves;
* **priority placement** — an I/O class may carry a tier preference that
  overrides the policy's placement (e.g. a background scrubber is forced
  to the capacity tier so it cannot pollute PM).

Handles are tagged with a class via :meth:`QosManager.tag`; untagged
handles belong to the unlimited default class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import InvalidArgument
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet
from repro.vfs.interface import FileHandle

DEFAULT_CLASS = "default"


@dataclass
class IoClass:
    """One application class: optional quota, optional tier preference."""

    name: str
    #: sustained bytes/second this class may consume (None = unlimited)
    quota_bytes_per_sec: Optional[float] = None
    #: burst allowance in bytes (defaults to one second of quota)
    burst_bytes: Optional[int] = None
    #: force placement of this class's writes onto a specific tier
    pinned_tier: Optional[int] = None

    def __post_init__(self) -> None:
        if self.quota_bytes_per_sec is not None:
            if self.quota_bytes_per_sec <= 0:
                raise InvalidArgument("quota must be positive")
            if self.burst_bytes is None:
                self.burst_bytes = int(self.quota_bytes_per_sec)


class _Bucket:
    """Token bucket over simulated time."""

    def __init__(self, rate: float, burst: int, clock: SimClock) -> None:
        self.rate = rate
        self.burst = burst
        self.clock = clock
        self.tokens = float(burst)
        self.last_ns = clock.now_ns

    def consume(self, amount: int) -> int:
        """Take ``amount`` tokens; returns the throttle delay in ns."""
        now = self.clock.now_ns
        self.tokens = min(
            self.burst, self.tokens + (now - self.last_ns) * self.rate / 1e9
        )
        self.last_ns = now
        self.tokens -= amount
        if self.tokens >= 0:
            return 0
        # we owe tokens: the op waits until the bucket refills to zero
        delay_ns = int(-self.tokens * 1e9 / self.rate)
        return delay_ns


class QosManager:
    """Per-class quotas + placement preferences for a shared Mux."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._classes: Dict[str, IoClass] = {
            DEFAULT_CLASS: IoClass(DEFAULT_CLASS)
        }
        self._buckets: Dict[str, _Bucket] = {}
        self.stats = CounterSet()

    def register(self, io_class: IoClass) -> None:
        if io_class.name in self._classes:
            raise InvalidArgument(f"class {io_class.name!r} already registered")
        self._classes[io_class.name] = io_class
        if io_class.quota_bytes_per_sec is not None:
            self._buckets[io_class.name] = _Bucket(
                io_class.quota_bytes_per_sec, io_class.burst_bytes, self.clock
            )

    def classes(self) -> Dict[str, IoClass]:
        return dict(self._classes)

    # -- handle tagging ------------------------------------------------------

    def tag(self, handle: FileHandle, class_name: str) -> None:
        """Assign an open handle to an I/O class."""
        if class_name not in self._classes:
            raise InvalidArgument(f"unknown I/O class {class_name!r}")
        if handle.private is None:
            handle.private = {}
        if isinstance(handle.private, dict):
            handle.private["qos_class"] = class_name

    def class_of(self, handle: FileHandle) -> str:
        private = handle.private
        if isinstance(private, dict):
            return private.get("qos_class", DEFAULT_CLASS)
        return DEFAULT_CLASS

    # -- enforcement -------------------------------------------------------------

    def charge(self, handle: FileHandle, nbytes: int) -> int:
        """Account ``nbytes`` of I/O; charges the throttle delay (if any)
        to the clock and returns it in ns."""
        name = self.class_of(handle)
        delay_ns = 0
        bucket = self._buckets.get(name)
        if bucket is not None:
            delay_ns = bucket.consume(nbytes)
            if delay_ns:
                self.clock.advance_ns(delay_ns)
                self.stats.add(f"throttle_ns.{name}", delay_ns)
                self.stats.add(f"throttled_ops.{name}")
        return delay_ns

    def placement_override(self, handle: FileHandle) -> Optional[int]:
        """Tier this handle's class is pinned to, if any."""
        return self._classes[self.class_of(handle)].pinned_tier
