"""Deterministic fault injection for simulated devices.

A :class:`FaultInjector` sits between a :class:`~repro.devices.base.Device`
and its callers and decides, per access, whether to inject a media error,
tear a multi-block write (materializing only a prefix), stretch latency by
a spike multiplier, or reject everything because the device is offline.

Every decision draws from a :class:`~repro.sim.rng.DeterministicRng`
substream owned by the injector, so a (seed, workload) pair replays the
exact same fault schedule — goldens and CI stay deterministic.  A device
with no injector attached takes zero extra branches beyond a single
``is None`` check, keeping healthy-path fingerprints bit-identical.

Persistent errors latch: once a block range draws a persistent fault, the
same blocks keep failing until the device is repaired (``clear_latched``),
modelling grown media defects rather than independent coin flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from repro.errors import DeviceIoError, DeviceOffline
from repro.sim.rng import DeterministicRng
from repro.sim.stats import CounterSet


@dataclass
class FaultConfig:
    """Tunable fault probabilities for one device.

    All probabilities are per *operation* (not per block) so the fault rate
    a test configures is independent of request coalescing.
    """

    read_error_p: float = 0.0
    write_error_p: float = 0.0
    #: fraction of injected errors that are transient (succeed on retry);
    #: the remainder latch as persistent media defects on the target blocks
    transient_fraction: float = 1.0
    #: probability a multi-block write tears, materializing only a prefix
    torn_write_p: float = 0.0
    latency_spike_p: float = 0.0
    #: cost multiplier applied to an access that draws a spike; ``None``
    #: lets the stack builder pick a per-device-kind default
    #: (:data:`repro.devices.profile.DEFAULT_SPIKE_MULT`)
    latency_spike_mult: Optional[float] = None


class FaultInjector:
    """Per-device fault schedule, seeded and fully deterministic.

    The draw order inside each check is fixed (spike, then error, then torn)
    so adding or removing one fault class never perturbs the schedule of the
    others for the same seed.
    """

    def __init__(self, name: str, config: FaultConfig, rng: DeterministicRng) -> None:
        self.name = name
        self.config = config
        self.rng = rng
        self.stats = CounterSet()
        self.offline = False
        self._latched_read: Set[int] = set()
        self._latched_write: Set[int] = set()

    # -- administrative controls ------------------------------------------------

    def set_offline(self) -> None:
        """Reject every subsequent access until :meth:`set_online`."""
        self.offline = True
        self.stats.add("offline_transitions")

    def set_online(self) -> None:
        self.offline = False

    def fail_block(self, block_no: int) -> None:
        """Latch a persistent read and write defect on ``block_no`` (test helper)."""
        self._latched_read.add(block_no)
        self._latched_write.add(block_no)

    def clear_latched(self) -> None:
        """Repair all latched media defects (device replacement)."""
        self._latched_read.clear()
        self._latched_write.clear()

    # -- latency ---------------------------------------------------------------

    def extra_latency_ns(self, base_cost_ns: int) -> int:
        """Extra simulated ns for this access (0 unless a spike fires)."""
        p = self.config.latency_spike_p
        if p <= 0.0:
            return 0
        if self.rng.random() >= p:
            return 0
        self.stats.add("latency_spikes")
        mult = self.config.latency_spike_mult
        if mult is None:
            mult = 8.0
        return int(base_cost_ns * (mult - 1.0))

    # -- fault decisions ---------------------------------------------------------

    def _hit_latched(self, block_no: int, count: int, latched: Set[int]) -> bool:
        if not latched:
            return False
        return any((block_no + i) in latched for i in range(count))

    def check_read(self, block_no: int, count: int) -> None:
        """Raise if this read should fail.  Called after time is charged."""
        if self.offline:
            self.stats.add("offline_rejections")
            raise DeviceOffline(f"{self.name}: device offline")
        if self._hit_latched(block_no, count, self._latched_read):
            self.stats.add("read_errors_persistent")
            raise DeviceIoError(
                f"{self.name}: persistent read error in blocks "
                f"[{block_no}, {block_no + count})",
                transient=False,
            )
        p = self.config.read_error_p
        if p > 0.0 and self.rng.random() < p:
            transient = self.rng.random() < self.config.transient_fraction
            if transient:
                self.stats.add("read_errors_transient")
                raise DeviceIoError(
                    f"{self.name}: transient read error at block {block_no}",
                    transient=True,
                )
            for i in range(count):
                self._latched_read.add(block_no + i)
            self.stats.add("read_errors_persistent")
            raise DeviceIoError(
                f"{self.name}: persistent read error at block {block_no}",
                transient=False,
            )

    def check_write(
        self, block_no: int, count: int, torn_units: Optional[int] = None
    ) -> Optional[Tuple[int, DeviceIoError]]:
        """Decide this write's fate.  Called after time is charged.

        Returns ``None`` for success, or ``(torn_prefix_units, exc)``: the
        device must materialize the first ``torn_prefix_units`` units of the
        payload and then raise ``exc``.  A unit is a block for the block
        path and a chunk for the PM store_run path (``torn_units`` overrides
        the unit count; it defaults to ``count`` blocks).  A plain error
        uses a prefix of 0.  Offline rejection raises directly.
        """
        if self.offline:
            self.stats.add("offline_rejections")
            raise DeviceOffline(f"{self.name}: device offline")
        if self._hit_latched(block_no, count, self._latched_write):
            self.stats.add("write_errors_persistent")
            return 0, DeviceIoError(
                f"{self.name}: persistent write error in blocks "
                f"[{block_no}, {block_no + count})",
                transient=False,
            )
        p = self.config.write_error_p
        if p > 0.0 and self.rng.random() < p:
            transient = self.rng.random() < self.config.transient_fraction
            if transient:
                self.stats.add("write_errors_transient")
                return 0, DeviceIoError(
                    f"{self.name}: transient write error at block {block_no}",
                    transient=True,
                )
            for i in range(count):
                self._latched_write.add(block_no + i)
            self.stats.add("write_errors_persistent")
            return 0, DeviceIoError(
                f"{self.name}: persistent write error at block {block_no}",
                transient=False,
            )
        units = count if torn_units is None else torn_units
        p = self.config.torn_write_p
        if units > 1 and p > 0.0 and self.rng.random() < p:
            prefix = self.rng.randint(1, units - 1)
            self.stats.add("torn_writes")
            return prefix, DeviceIoError(
                f"{self.name}: torn write at block {block_no}: "
                f"{prefix}/{units} units materialized",
                transient=True,
            )
        return None
