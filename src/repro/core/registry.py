"""Tier registry: runtime attach/detach of native file systems (§2.1).

"To add a new device and the corresponding file system, the user only
needs to mount the new file system and register it with Mux, along with a
policy to manage it.  To remove a device, data must be migrated first.
Adding or removing a device can be done at runtime."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.health import HealthState, TierHealth
from repro.core.policy import TierState
from repro.devices.profile import DeviceKind, DeviceProfile
from repro.errors import InvalidArgument, ReproError
from repro.vfs.interface import FileSystem

if TYPE_CHECKING:
    from repro.core.cache import ScmCacheManager


@dataclass
class Tier:
    """One registered tier: a native file system mounted in the shared VFS."""

    tier_id: int
    name: str
    fs: FileSystem
    mount: str  # mount point of ``fs`` inside the shared VFS
    profile: DeviceProfile
    rank: int  # 0 = fastest
    health: TierHealth = field(default_factory=TierHealth)
    #: the SCM cache this tier hosts, PM's last claimant (see
    #: :meth:`make_room`); installed by the Cache Controller
    cache: Optional["ScmCacheManager"] = field(default=None, repr=False)

    @property
    def kind(self) -> DeviceKind:
        return self.profile.kind

    @property
    def reserve_bytes(self) -> int:
        """Headroom kept free on every tier: copy-on-write file systems
        need transient blocks, and Mux's own metafile must stay writable."""
        stats = self.fs.statfs()
        return max(64 * stats.block_size, stats.total_bytes // 100)

    def make_room(self, length: int) -> bool:
        """Can the tier take ``length`` more bytes above its reserve?  On
        the SCM cache's host the cache gives back the slots that takes."""
        short = length + self.reserve_bytes - self.fs.statfs().free_bytes
        if short <= 0:
            return True
        return self.cache is not None and self.cache.release(short)

    def state(self, load: float) -> TierState:
        """Policy snapshot; ``load`` is the tier's sampled backlog.  Free
        space counts the slots a hosted SCM cache would give back."""
        fsstats = self.fs.statfs()
        free = fsstats.free_bytes
        if self.cache is not None:
            free += self.cache.releasable_bytes
        # positional: a NamedTuple builds several times faster that way
        return TierState(
            self.tier_id,
            self.name,
            self.rank,
            self.profile.kind,
            free,
            fsstats.total_bytes,
            self.health.state,
            load,
        )


#: rank ordering by device class when the caller does not give one
_DEFAULT_RANK = {
    DeviceKind.PERSISTENT_MEMORY: 0,
    DeviceKind.SOLID_STATE: 1,
    DeviceKind.HARD_DISK: 2,
}


class TierRegistry:
    """Orders and tracks the tiers Mux multiplexes over."""

    def __init__(self) -> None:
        self._tiers: Dict[int, Tier] = {}
        #: tier id -> device kind, kept in step by :meth:`add` and
        #: :meth:`remove` (a tier's kind never changes); the read path
        #: hands it to the scheduler without rebuilding it per op
        self.kinds: Dict[int, DeviceKind] = {}
        self._next_id = 0

    def add(
        self,
        name: str,
        fs: FileSystem,
        mount: str,
        profile: DeviceProfile,
        rank: Optional[int],
    ) -> Tier:
        if any(t.name == name for t in self._tiers.values()):
            raise InvalidArgument(f"tier name {name!r} already registered")
        if rank is None:
            rank = _DEFAULT_RANK.get(profile.kind, len(self._tiers))
        tier = Tier(self._next_id, name, fs, mount, profile, rank)
        self._tiers[tier.tier_id] = tier
        self.kinds[tier.tier_id] = tier.kind
        self._next_id += 1
        return tier

    def remove(self, tier_id: int) -> Tier:
        try:
            tier = self._tiers.pop(tier_id)
        except KeyError:
            raise InvalidArgument(f"no tier with id {tier_id}")
        del self.kinds[tier_id]
        return tier

    def get(self, tier_id: int) -> Tier:
        try:
            return self._tiers[tier_id]
        except KeyError:
            raise ReproError(f"unknown tier id {tier_id}")

    def maybe_get(self, tier_id: int) -> Optional[Tier]:
        return self._tiers.get(tier_id)

    def by_name(self, name: str) -> Tier:
        for tier in self._tiers.values():
            if tier.name == name:
                return tier
        raise ReproError(f"unknown tier name {name!r}")

    def ids(self) -> List[int]:
        return sorted(self._tiers)

    def ordered(self) -> List[Tier]:
        """Tiers sorted fastest-first."""
        return sorted(self._tiers.values(), key=lambda t: (t.rank, t.tier_id))

    def fastest(self) -> Tier:
        ordered = self.ordered()
        if not ordered:
            raise ReproError("no tiers registered")
        return ordered[0]

    def any_unhealthy(self) -> bool:
        """True if any tier is not HEALTHY (cheap degraded-mode gate)."""
        return any(
            t.health.state is not HealthState.HEALTHY for t in self._tiers.values()
        )

    def __len__(self) -> int:
        return len(self._tiers)

    def __iter__(self):
        return iter(self.ordered())

    def __contains__(self, tier_id: int) -> bool:
        return tier_id in self._tiers
