"""One-call assembly of the paper's storage stack.

The evaluation hierarchy (§3.1) is PM + SSD + HDD running NOVA, XFS and
Ext4 respectively, with Mux multiplexing over them.  Building that stack
by hand takes ~20 lines of setup; :func:`build_stack` does it in one call
and returns every piece so tests, benchmarks and examples can poke at any
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

from repro.core.mux import MuxFileSystem
from repro.core.policy import Policy, make_policy
from repro.core.scheduler import IoScheduler
from repro.devices.faults import FaultConfig, FaultInjector
from repro.devices.hdd import HardDiskDrive
from repro.devices.pm import PersistentMemoryDevice
from repro.devices.profile import (
    DEFAULT_SPIKE_MULT,
    OPTANE_PMEM_200,
    OPTANE_SSD_P4800X,
    SEAGATE_EXOS_X18,
    DeviceProfile,
)
from repro.sim.rng import DeterministicRng
from repro.devices.ssd import SolidStateDrive
from repro.errors import InvalidArgument
from repro.fs.ext4 import Ext4FileSystem
from repro.fs.nova import NovaFileSystem
from repro.fs.xfs import XfsFileSystem
from repro.sim.clock import SimClock
from repro.vfs.vfs import VFS

MIB = 1024 * 1024
GIB = 1024 * MIB

#: capacity defaults, scaled down from the paper's testbed so simulations
#: stay fast; ratios between tiers are preserved (PM < SSD < HDD)
DEFAULT_CAPACITIES = {
    "pm": 64 * MIB,
    "ssd": 256 * MIB,
    "hdd": 1 * GIB,
}

MOUNTS = {"pm": "/tiers/pm", "ssd": "/tiers/ssd", "hdd": "/tiers/hdd"}

#: the root of every fault injector's rng substream
FAULT_SEED = 2025


@dataclass
class Stack:
    """Everything :func:`build_stack` assembled."""

    clock: SimClock
    vfs: VFS
    mux: MuxFileSystem
    devices: Dict[str, object] = field(default_factory=dict)
    filesystems: Dict[str, object] = field(default_factory=dict)
    tier_ids: Dict[str, int] = field(default_factory=dict)
    #: per-tier fault injectors (empty unless ``build_stack(faults=...)``)
    injectors: Dict[str, FaultInjector] = field(default_factory=dict)

    def tier_id(self, name: str) -> int:
        return self.tier_ids[name]

    def drop_page_caches(self) -> None:
        """Empty every tier file system's DRAM page cache, so the next
        reads go to media.  Dirty pages are dropped too (see
        :meth:`PageCache.drop_clean`): fsync first if they matter."""
        for fs in self.filesystems.values():
            cache = getattr(fs, "page_cache", None)
            if cache is not None:
                cache.drop_clean()


def build_stack(
    tiers: Optional[List[str]] = None,
    capacities: Optional[Dict[str, int]] = None,
    policy: Optional[Union[Policy, str]] = None,
    enable_cache: bool = True,
    cache_write_back: bool = False,
    scheduler: Optional[IoScheduler] = None,
    blt_factory=None,
    clock: Optional[SimClock] = None,
    faults: Optional[Dict[str, FaultConfig]] = None,
    profiles: Optional[Dict[str, "DeviceProfile"]] = None,
    readahead_background: bool = False,
    pressure_interval_ns: Optional[int] = None,
) -> Stack:
    """Assemble devices, native file systems, the VFS and Mux.

    ``tiers`` selects a subset of ``["pm", "ssd", "hdd"]`` (default: all
    three, the paper's hierarchy).  Each tier gets its paper-matched
    device and file system: NOVA on PM, XFS on SSD, Ext4 on HDD.

    ``policy`` accepts either a :class:`Policy` instance or a registered
    policy name (``make_policy`` shorthand, used by the head-to-head
    benchmarks that sweep the registry).

    ``pressure_interval_ns`` overrides the PressureMonitor's sampling
    interval — shorter means placement reacts to a burst sooner, at a
    little more host CPU per operation.  It must be positive.

    ``faults`` maps tier names to :class:`FaultConfig`s; each named tier's
    device gets a :class:`FaultInjector` with an independent rng substream
    derived from :data:`FAULT_SEED` and the tier name, so schedules are
    reproducible per device regardless of which other tiers are faulted.
    A tier absent from the map (or a ``None`` map — the default) has no
    injector and charges not one extra nanosecond.

    ``profiles`` maps tier names to replacement :class:`DeviceProfile`s —
    typically ``dataclasses.replace(CATALOG[name], knee_depth=..., ...)``
    to enable the queue-depth saturation knee for an overload experiment
    without disturbing the catalog defaults every other workload pins.

    ``readahead_background=True`` moves each native file system's
    speculative readahead tail onto background clock frames (reserved
    device channels), so prefetch overlaps the demand read instead of
    serializing after it.  Off by default — the timing model is
    bit-identical unless a stack opts in.
    """
    if pressure_interval_ns is not None and pressure_interval_ns <= 0:
        raise InvalidArgument(
            f"pressure_interval_ns must be positive, got {pressure_interval_ns}"
        )
    tiers = list(tiers) if tiers is not None else ["pm", "ssd", "hdd"]
    caps = dict(DEFAULT_CAPACITIES)
    if capacities:
        caps.update(capacities)
    clock = clock if clock is not None else SimClock()
    vfs = VFS(clock)

    if isinstance(policy, str):
        policy = make_policy(policy)
    kwargs = {}
    if blt_factory is not None:
        kwargs["blt_factory"] = blt_factory
    mux = MuxFileSystem(
        vfs,
        clock,
        policy=policy,
        enable_cache=enable_cache,
        cache_write_back=cache_write_back,
        scheduler=scheduler,
        **kwargs,
    )
    if pressure_interval_ns is not None:
        mux.pressure.sample_interval_ns = pressure_interval_ns

    devices: Dict[str, object] = {}
    filesystems: Dict[str, object] = {}
    tier_ids: Dict[str, int] = {}
    overrides = profiles or {}
    for override in overrides:
        if override not in tiers:
            raise InvalidArgument(f"profile override for unknown tier {override!r}")
    for name in tiers:
        if name == "pm":
            profile = overrides.get("pm", OPTANE_PMEM_200)
            device = PersistentMemoryDevice("pm0", caps["pm"], clock, profile)
            fs = NovaFileSystem("nova", device, clock)
        elif name == "ssd":
            profile = overrides.get("ssd", OPTANE_SSD_P4800X)
            device = SolidStateDrive("ssd0", caps["ssd"], clock, profile)
            fs = XfsFileSystem("xfs", device, clock)
        elif name == "hdd":
            profile = overrides.get("hdd", SEAGATE_EXOS_X18)
            device = HardDiskDrive("hdd0", caps["hdd"], clock, profile)
            fs = Ext4FileSystem("ext4", device, clock)
        else:
            raise InvalidArgument(f"unknown tier {name!r}")
        if readahead_background and hasattr(type(fs), "readahead_background"):
            fs.readahead_background = True
        vfs.mount(MOUNTS[name], fs)
        tier = mux.add_tier(name, fs, MOUNTS[name], profile)
        devices[name] = device
        filesystems[name] = fs
        tier_ids[name] = tier.tier_id

    injectors: Dict[str, FaultInjector] = {}
    if faults:
        fault_rng = DeterministicRng(FAULT_SEED)
        for name, config in faults.items():
            if name not in devices:
                raise InvalidArgument(f"faults for unknown tier {name!r}")
            device = devices[name]
            if config.latency_spike_p and config.latency_spike_mult is None:
                # tier-appropriate default: a PM spike is mild, an HDD
                # seek storm is not
                kind = mux.registry.by_name(name).kind
                config = replace(
                    config,
                    latency_spike_mult=DEFAULT_SPIKE_MULT.get(kind, 8.0),
                )
            injector = FaultInjector(name, config, fault_rng.fork(name))
            device.set_fault_injector(injector)  # type: ignore[attr-defined]
            injectors[name] = injector

    vfs.mount("/mux", mux)
    return Stack(
        clock=clock,
        vfs=vfs,
        mux=mux,
        devices=devices,
        filesystems=filesystems,
        tier_ids=tier_ids,
        injectors=injectors,
    )
