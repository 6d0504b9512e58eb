"""User-defined tiering policies (§2.1).

"Mux decouples tiering policies from file system implementation.  It
exposes an interface for users to specify policies on data placement and
user request dispatching.  All the placement and migration policies in
existing tiered file systems can be expressed using simple functions."

In the kernel the policy would be a module or eBPF program; here it is a
Python object implementing :class:`Policy`.  Policies receive narrow,
read-only views of tier state and file state, and return tier ids and
migration orders — they never touch devices directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.health import HealthState
from repro.core.pressure import TierPressure
from repro.devices.profile import DeviceKind
from repro.errors import PolicyError


@dataclass(frozen=True)
class TierState:
    """Read-only snapshot of one tier, handed to policy callbacks."""

    tier_id: int
    name: str
    rank: int  # 0 = fastest
    kind: DeviceKind
    free_bytes: int
    total_bytes: int
    health: HealthState = HealthState.HEALTHY
    #: queue/dirty load signals sampled by the PressureMonitor; None when
    #: the tier has no tracked device timeline (or in bare unit tests)
    pressure: Optional[TierPressure] = None

    @property
    def used_bytes(self) -> int:
        return self.total_bytes - self.free_bytes

    @property
    def utilization(self) -> float:
        return self.used_bytes / self.total_bytes if self.total_bytes else 0.0


@dataclass(frozen=True)
class PlacementRequest:
    """One write that needs a home."""

    path: str
    ino: int
    offset: int
    length: int
    file_size: int
    is_append: bool
    synchronous: bool = False


@dataclass(frozen=True)
class MigrationOrder:
    """A policy's instruction to move blocks between tiers."""

    ino: int
    block_start: int
    count: int
    src_tier: int
    dst_tier: int
    reason: str = ""


@dataclass(frozen=True)
class MirrorOrder:
    """A policy's instruction to add or drop a file's mirror on a tier.

    ``action`` is ``"add"`` (start mirroring; the sync engine copies the
    file's blocks onto ``tier_id`` lazily) or ``"drop"`` (retire the
    mirror and reclaim its blocks — the authoritative copy is untouched).
    """

    ino: int
    tier_id: int
    action: str = "add"
    reason: str = ""


@dataclass(frozen=True)
class FileView:
    """Read-only per-file view for migration planning.

    Immutable, and enforced so: Mux hands the *same* view object to every
    planning round until the file's BLT, size or path changes, so a policy
    that could edit one would corrupt every later round's input.  ``runs``
    is stored as a tuple and ``blocks_by_tier`` as a read-only mapping,
    whatever the constructor was given.
    """

    ino: int
    path: str
    size: int
    blocks_by_tier: Mapping[int, int] = field(default_factory=dict)
    #: (block_start, count, tier) runs — the BLT contents
    runs: Tuple[Tuple[int, int, Optional[int]], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", tuple(self.runs))
        object.__setattr__(
            self, "blocks_by_tier", MappingProxyType(dict(self.blocks_by_tier))
        )


class Policy(ABC):
    """Base class for tiering policies."""

    name: str = "policy"
    #: pressure-aware policies set True: maintain_async then submits their
    #: migrations with defer_while_hot, so a copy planned toward a cool
    #: tier still waits if the target channel is mid-burst at run time
    defer_hot_migrations: bool = False

    @abstractmethod
    def place_write(
        self, request: PlacementRequest, tiers: List[TierState]
    ) -> int:
        """Choose the tier id that should receive this write."""

    def on_access(
        self,
        ino: int,
        block_start: int,
        count: int,
        tier_id: int,
        kind: str,
        now: float,
    ) -> None:
        """Access notification (kind is "read" or "write"); default: ignore."""

    def plan_migrations(
        self, tiers: List[TierState], files: Iterable[FileView]
    ) -> List[MigrationOrder]:
        """Return migrations to run now; default: none."""
        return []

    def plan_mirrors(
        self, tiers: List[TierState], files: Iterable[FileView]
    ) -> List[MirrorOrder]:
        """Return mirror add/drop orders; default: no mirrors (exclusive
        placement, the pre-MOST behaviour — every block on exactly one
        tier)."""
        return []

    def forget(self, ino: int) -> None:
        """A file was deleted; drop any per-file policy state."""


def writable_tiers(tiers: List[TierState]) -> List[TierState]:
    """Tiers that should receive *new* writes, best health class first.

    HEALTHY tiers win outright; if none exist, SUSPECT tiers are better
    than failing the write; OFFLINE tiers are never returned (their device
    would reject the I/O anyway).  An all-offline registry returns [] and
    the caller surfaces EIO.
    """
    healthy = [t for t in tiers if t.health is HealthState.HEALTHY]
    if healthy:
        return healthy
    return [t for t in tiers if t.health is not HealthState.OFFLINE]


def tier_load(tier: TierState) -> float:
    """The tier's sampled channel load; 0.0 when pressure is untracked."""
    return tier.pressure.load if tier.pressure is not None else 0.0


#: share of a tier's capacity that placement keeps free: a write goes
#: to a tier only if it fits with this headroom left over
PLACEMENT_RESERVE = 0.02


def has_room(tier: TierState, length: int) -> bool:
    """Whether ``tier`` can absorb ``length`` bytes and keep its reserve."""
    return tier.free_bytes - int(tier.total_bytes * PLACEMENT_RESERVE) >= length


def fastest_with_room(tiers: List[TierState], length: int) -> TierState:
    """The fastest writable tier that can absorb ``length`` bytes with headroom."""
    candidates = writable_tiers(tiers)
    if not candidates:
        raise PolicyError("no writable tier (all offline)")
    for tier in sorted(candidates, key=lambda t: t.rank):
        if has_room(tier, length):
            return tier
    # last resort: the writable tier with the most free space
    best = max(candidates, key=lambda t: t.free_bytes)
    if best.free_bytes < length:
        raise PolicyError(f"no tier can hold {length} bytes")
    return best


# ---------------------------------------------------------------------------
# policy registry — the modular "register tiering rules" interface
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., Policy]] = {}


def register_policy(name: str) -> Callable[[type], type]:
    """Class decorator registering a policy constructor under ``name``."""

    def decorate(cls: type) -> type:
        if name in _REGISTRY:
            raise PolicyError(f"policy {name!r} already registered")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return decorate


def make_policy(name: str) -> Policy:
    """Instantiate a registered policy by name."""
    try:
        ctor = _REGISTRY[name]
    except KeyError:
        raise PolicyError(
            f"unknown policy {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return ctor()


def registered_policies() -> List[str]:
    return sorted(_REGISTRY)
