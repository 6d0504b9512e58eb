"""Mux core: the paper's primary contribution."""

from repro.core.blt import BlockLookupTable, ByteArrayBlt, ExtentBlt
from repro.core.cache import ScmCacheManager
from repro.core.metadata import CollectiveInode, MetadataAffinity, MuxNamespace
from repro.core.migration import MigrationEngine, PairStats
from repro.core.mglru import MultiGenLru
from repro.core.bookkeeper import MuxMetaWriter
from repro.core.mux import MuxFileSystem
from repro.core.occ import MigrationResult, OccSynchronizer
from repro.core.policies import (
    HotColdPolicy,
    LruTieringPolicy,
    PinnedPolicy,
    TpfsPolicy,
)
from repro.core.qos import DEFAULT_CLASS, IoClass, QosManager
from repro.core.policy import (
    FileView,
    MigrationOrder,
    PlacementRequest,
    Policy,
    TierState,
    make_policy,
    register_policy,
    registered_policies,
)
from repro.core.registry import Tier, TierRegistry
from repro.core.scheduler import IoScheduler, SubRequest

__all__ = [
    "BlockLookupTable",
    "ByteArrayBlt",
    "ExtentBlt",
    "ScmCacheManager",
    "CollectiveInode",
    "MetadataAffinity",
    "MuxNamespace",
    "MigrationEngine",
    "PairStats",
    "MultiGenLru",
    "MuxFileSystem",
    "MuxMetaWriter",
    "MigrationResult",
    "OccSynchronizer",
    "HotColdPolicy",
    "LruTieringPolicy",
    "PinnedPolicy",
    "TpfsPolicy",
    "FileView",
    "MigrationOrder",
    "PlacementRequest",
    "Policy",
    "TierState",
    "make_policy",
    "register_policy",
    "registered_policies",
    "DEFAULT_CLASS",
    "IoClass",
    "QosManager",
    "Tier",
    "TierRegistry",
    "IoScheduler",
    "SubRequest",
]
