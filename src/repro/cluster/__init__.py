"""Sharded multi-Mux cluster (§4, "Distributed Mux").

One Mux instance is the ceiling on "millions of users"; this package
shards the Mux namespace across N independent Mux instances driven on a
single :class:`~repro.sim.clock.SimClock`, so per-shard device timelines
genuinely overlap in simulated time.  :class:`ClusterMux` presents the
same VFS + submit/complete-ring API as a single Mux; placement of
directory subtrees onto shards is consistent hashing
(:class:`HashRing`), rebalancing is run-level OCC migration between
shards over a simulated network wire.
"""

from repro.cluster.hashring import HashRing
from repro.cluster.cluster import Cluster, ClusterMux, build_cluster

__all__ = ["Cluster", "ClusterMux", "HashRing", "build_cluster"]
