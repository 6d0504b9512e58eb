"""Lazy mirror-sync engine for mirror-optimized tiering (MOST).

The MOST model keeps *mirrors* of hot, read-mostly files across tiers:
reads route to the fastest tier holding a clean replica, writes absorb on
the fastest (authoritative) copy and mark the mirrors stale, and this
engine re-converges the stale intervals in the background — the same
"talk to file systems" discipline as destages and migrations, driven on
reserved background device channels and paced by the pressure gauges so
a foreground burst defers sync instead of contending with user I/O.

Fairness: deferral is bounded.  A mirror whose stale set has aged past
:data:`MirrorEngine.MAX_STALENESS_NS` of simulated time is *deadline
promoted* — synced despite device load — so a foreground flood can cap
sync freshness but never starve it forever (counted in
``deadline_promotions``).

All replica bookkeeping lives in :class:`repro.core.blt.ReplicaSet`
(host-side interval algebra); this module only moves bytes.  Files
without mirrors never reach this engine, so the unmirrored hot paths
keep bit-identical simulated fingerprints.

Host cost: a tick rides on every user op, so it must cost the files
that may need a sync, not every mirrored file.  The engine keeps a
*work set* — a superset of the files whose ``ReplicaSet.has_stale()``
is true, because the only three ways an interval goes stale
(:meth:`MirrorEngine.add_mirror`, a write's :meth:`MirrorEngine.note_stale`,
the crash path's ``note_stale``) all add the file — and visits it in
rotation order; a file found clean leaves the set.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core import calibration as cal
from repro.core.blt import BltRun, ReplicaSet, replica_runs
from repro.core.health import HealthState
from repro.core.intervals import subtract_runs
from repro.core.metadata import CollectiveInode
from repro.errors import FileNotFound, NoSpace, TierUnavailable
from repro.sim.stats import CounterSet


def _route_key(tier) -> Tuple[int, int]:
    """A read's preference for ``tier``: (health class, rank), lower wins."""
    state = tier.health.state
    if state is HealthState.OFFLINE:
        return (2, tier.rank)
    return (1 if state is HealthState.SUSPECT else 0, tier.rank)


class MirrorEngine:
    """Copies stale mirror intervals back into sync, lazily."""

    #: default per-tick copy budget, in blocks — a tick rides on a user
    #: op, so one tick must never book an unbounded copy into the
    #: device's background future
    MAX_SYNC_BLOCKS_PER_TICK = 64
    #: staleness deadline, in simulated ns: a mirror stale for longer is
    #: synced even into a loaded device (deadline promotion), so
    #: foreground floods bound sync freshness instead of starving it
    MAX_STALENESS_NS = 2_000_000

    def __init__(self, mux) -> None:  # mux: MuxFileSystem (circular type)
        self._mux = mux
        self.stats = CounterSet()
        #: ino -> rotation stamp for every file that has (or recently had)
        #: mirrors.  Stamps ascend in dict order: a file is stamped when it
        #: joins and re-stamped to the back when a tick serviced it, so
        #: ticks rotate through files instead of re-serving the first
        self._mirrored: Dict[int, int] = {}
        self._stamps = 0
        #: the work set (module docstring): a subset of ``_mirrored`` and
        #: a superset of the files holding stale mirror intervals
        self._work: Set[int] = set()

    # -- membership --------------------------------------------------------

    def mirrored_inos(self) -> List[int]:
        return list(self._mirrored)

    def _stamp(self, ino: int) -> None:
        self._stamps += 1
        self._mirrored[ino] = self._stamps

    def _enqueue(self, ino: int) -> None:
        if ino not in self._mirrored:
            self._stamp(ino)
        self._work.add(ino)

    def add_mirror(self, inode: CollectiveInode, tier_id: int) -> None:
        """Start mirroring ``inode`` onto ``tier_id``.

        Every currently-mapped block not already owned by the mirror tier
        starts *stale*: the mirror serves nothing until the sync engine
        has copied it, so a half-built mirror can never shadow the
        authoritative bytes.
        """
        self._mux.registry.get(tier_id)  # validates the tier exists
        if inode.replicas is None:
            inode.replicas = ReplicaSet()
        if inode.replicas.has_tier(tier_id):
            return
        inode.replicas.add_tier(tier_id)
        now_ns = self._mux.clock.now_ns
        end = inode.blt.end_block()
        for start, count, tid in inode.blt.runs(0, end) if end else ():
            if tid is not None and tid != tier_id:
                inode.replicas.mark_stale(tier_id, start, count, now_ns)
        self._enqueue(inode.ino)
        self.stats.add("mirrors_added")

    def drop_mirror(
        self, inode: CollectiveInode, tier_id: int, punch: bool = True
    ) -> None:
        """Stop mirroring ``inode`` on ``tier_id`` and reclaim its blocks."""
        if inode.replicas is None or not inode.replicas.has_tier(tier_id):
            return
        runs = inode.replicas.retire_tier(tier_id)
        bs = self._mux.block_size
        if punch and runs and tier_id in inode.tiers_present:
            for start, count in runs:
                # only mirror copies are reclaimed; blocks the tier owns
                # authoritatively (it absorbed a write there) must survive
                owned = [
                    (s, n)
                    for s, n, tid in inode.blt.runs(start, count)
                    if tid == tier_id
                ]
                for s, n in subtract_runs([(start, count)], owned):
                    try:
                        self._mux.files.punch(inode, tier_id, s * bs, n * bs)
                    except TierUnavailable:
                        break  # unreachable tier: fsck reclaims later
        if not inode.replicas.tiers():
            inode.replicas = None
            self.forget(inode.ino)
        self.stats.add("mirrors_dropped")

    def note_stale(self, ino: int) -> None:
        """A write (or a crash) made mirror intervals of ``ino`` stale;
        put it in the work set so ticks revisit it."""
        self._enqueue(ino)

    def forget(self, ino: int) -> None:
        self._mirrored.pop(ino, None)
        self._work.discard(ino)

    def drop_tier(self, tier_id: int, punch: bool) -> None:
        """A tier is leaving (evacuate/remove): retire all its mirrors."""
        for ino in list(self._mirrored):
            try:
                inode = self._mux.inode_by_ino(ino)
            except FileNotFound:
                self.forget(ino)
                continue
            self.drop_mirror(inode, tier_id, punch=punch)

    def reads_per_synced_block(self) -> float:
        """Blocks mirrors served to reads per block a sync wrote to them."""
        synced = self.stats.get("blocks_synced")
        return self.stats.get("blocks_served") / synced if synced else 0.0

    def check_invariants(self) -> None:
        """Every file with stale mirror intervals is in the work set."""
        assert self._work <= self._mirrored.keys(), self._work - self._mirrored.keys()
        for inode in self._mux.ns.files():
            if inode.replicas is not None and inode.replicas.has_stale():
                assert inode.ino in self._work, f"stale ino {inode.ino} not queued"

    # -- read routing ------------------------------------------------------

    def route_reads(
        self, inode: CollectiveInode, runs: Iterable[BltRun]
    ) -> List[Tuple[int, int, Optional[int]]]:
        """Re-home each of a read's BLT ``runs`` on the fastest tier with a
        clean replica.

        Candidate order is (health class, rank): a HEALTHY mirror beats a
        SUSPECT authoritative owner of any rank, and among equals the
        faster tier wins, with ties going to the authoritative copy.
        Adjacent spans routed to the same tier re-coalesce so mirroring
        never inflates the sub-request count for uniform placement.
        """
        registry = self._mux.registry
        #: tier id -> (health class, rank), ranked at most once per read
        keys: Dict[int, Tuple[int, int]] = {}
        routed: List[Tuple[int, int, Optional[int]]] = []
        for start, n, tid, mirrors in replica_runs(runs, inode.replicas):
            chosen = tid
            owner_key = None
            for mirror in mirrors:
                key = keys.get(mirror)
                if key is None:
                    tier = registry.maybe_get(mirror)
                    if tier is None:
                        continue  # a mirror on a departed tier serves nothing
                    key = keys[mirror] = _route_key(tier)
                if owner_key is None:
                    owner_key = best = keys.get(tid)
                    if owner_key is None:
                        owner_key = best = keys[tid] = _route_key(registry.get(tid))
                if key < best:
                    chosen, best = mirror, key
            if chosen != tid:
                self._mux.stats.add("reads_from_mirror")
                self.stats.add("blocks_served", n)
                if owner_key[0] > 0:
                    self._mux.stats.add("reads_degraded_mirror")
            if (
                routed
                and routed[-1][2] == chosen
                and routed[-1][0] + routed[-1][1] == start
            ):
                routed[-1] = (routed[-1][0], routed[-1][1] + n, chosen)
            else:
                routed.append((start, n, chosen))
        return routed

    # -- sync --------------------------------------------------------------

    def stale_backlog(self) -> int:
        """Blocks awaiting sync across every mirrored file."""
        total = 0
        for ino in self._work:
            try:
                inode = self._mux.inode_by_ino(ino)
            except FileNotFound:
                continue
            if inode.replicas is not None:
                total += inode.replicas.stale_blocks()
        return total

    def tick(self) -> int:
        """Advance mirror convergence by one bounded, paced step.

        Called like ``MigrationEngine.tick`` from maintenance paths:
        copies at most :data:`MAX_SYNC_BLOCKS_PER_TICK` stale blocks,
        skipping tiers whose channels are loaded — unless a mirror has been
        stale past the deadline, which promotes it over the load gate.
        Returns blocks synced; zero-cost when no file is in the work set.
        """
        if not self._work:
            return 0
        budget = self.MAX_SYNC_BLOCKS_PER_TICK
        synced = 0
        # the work set in rotation order
        for ino in sorted(self._work, key=self._mirrored.__getitem__):
            if budget <= 0:
                break
            try:
                inode = self._mux.inode_by_ino(ino)
            except FileNotFound:
                self.forget(ino)
                continue
            replicas = inode.replicas
            if replicas is None:
                self.forget(ino)
                continue
            if not replicas.has_stale():
                self._work.discard(ino)
                continue
            if inode.migration_active or inode.locked:
                continue  # OCC owns the file's placement right now
            moved = self._sync_inode(inode, replicas, budget, paced=True)
            if moved:
                # rotate: the file we just serviced goes to the back so
                # the next tick reaches the others first
                del self._mirrored[ino]
                self._stamp(ino)
            budget -= moved
            synced += moved
        return synced

    def sync_file(self, inode: CollectiveInode) -> int:
        """Converge one file completely, ignoring pacing (tests/benchmarks)."""
        if inode.replicas is None:
            return 0
        total = 0
        while inode.replicas is not None and inode.replicas.has_stale():
            moved = self._sync_inode(
                inode, inode.replicas, budget=1 << 30, paced=False
            )
            if moved == 0:
                break  # every remaining stale tier is unreachable
            total += moved
        return total

    def drain(self) -> int:
        """Converge every mirrored file (benchmark epilogues)."""
        total = 0
        for ino in list(self._mirrored):
            try:
                inode = self._mux.inode_by_ino(ino)
            except FileNotFound:
                self.forget(ino)
                continue
            if inode.migration_active or inode.locked:
                continue
            total += self.sync_file(inode)
        return total

    # -- internals ---------------------------------------------------------

    def _sync_inode(
        self,
        inode: CollectiveInode,
        replicas: ReplicaSet,
        budget: int,
        paced: bool,
    ) -> int:
        mux = self._mux
        now_ns = mux.clock.global_now_ns
        synced = 0
        for tier_id in replicas.tiers():
            if budget - synced <= 0:
                break
            stale = replicas.stale_runs(tier_id)
            if not stale:
                continue
            tier = mux.registry.get(tier_id)
            if tier.health.is_offline:
                self.stats.add("sync_skipped_offline")
                continue
            if paced and self._deferred(inode, tier_id, stale, now_ns):
                continue
            synced += self._sync_tier(
                inode, replicas, tier_id, stale, budget - synced
            )
        return synced

    def _deferred(
        self,
        inode: CollectiveInode,
        tier_id: int,
        stale: List[Tuple[int, int]],
        now_ns: int,
    ) -> bool:
        """Pressure gate with a staleness deadline (dispatcher fairness);
        ``deadline_promotions`` counts the deadline overriding the gate."""
        monitor = self._mux.pressure
        load = monitor.instant_load_of(tier_id, now_ns)
        for start, count in stale:
            for _, _, src in inode.blt.runs(start, count):
                if src is not None and src != tier_id:
                    load = max(load, monitor.instant_load_of(src, now_ns))
        if load < cal.DEFER_LOAD:
            return False
        since = inode.replicas.stale_since_ns(tier_id)
        if since is not None and now_ns - since >= self.MAX_STALENESS_NS:
            self.stats.add("deadline_promotions")
            return False
        self.stats.add("defer_ticks")
        return True

    def _sync_tier(
        self,
        inode: CollectiveInode,
        replicas: ReplicaSet,
        tier_id: int,
        stale: List[Tuple[int, int]],
        budget: int,
    ) -> int:
        """Copy up to ``budget`` stale blocks onto one mirror tier.

        Runs on background clock frames like destages: the copies land on
        the devices' reserved background channels, so foreground ops only
        pay when they contend for the same device.  An interval is marked
        clean only *after* the mirror tier's fsync returned — a mirror
        interval must never claim cleanliness its media can't back.  A
        copy the mirror tier cannot hold above its placement reserve
        (:meth:`Tier.make_room`, or ENOSPC) stops the loop like an
        unreachable tier, before any read; the runs copied before it
        still commit.
        """
        mux = self._mux
        bs = mux.block_size
        tier = mux.registry.get(tier_id)
        if not tier.make_room(bs):
            self.stats.add("sync_no_space")
            return 0
        mux.clock.push_frame(background=True)
        try:
            # absorbed writes first: the authoritative media must hold the
            # bytes the copy loop reads
            mux.cachectl.destage_ranges(inode, stale)
            copied: List[Tuple[int, int]] = []
            blocks = 0
            failed = False
            for start, count in stale:
                if blocks >= budget or failed:
                    break
                for run_start, run_len, src in inode.blt.runs(start, count):
                    if blocks >= budget or failed:
                        break
                    run_len = min(run_len, budget - blocks)
                    if src is None or src == tier_id:
                        # a hole mirrors itself; an authoritative owner
                        # cannot also be its own mirror
                        replicas.clear_stale(tier_id, run_start, run_len)
                        continue
                    want = min(run_len * bs, inode.size - run_start * bs)
                    if want <= 0:
                        replicas.clear_stale(tier_id, run_start, run_len)
                        continue
                    if not tier.make_room(want):
                        self.stats.add("sync_no_space")
                        failed = True
                        break
                    try:
                        data = mux.files.read(
                            inode, src, run_start * bs, want,
                            create=True, dispatch=True,
                        )
                        self._media_write(inode, tier_id, run_start * bs, data)
                    except TierUnavailable:
                        # source or mirror died mid-copy: stay stale, a
                        # later tick retries once health recovers
                        self.stats.add("sync_skipped_offline")
                        failed = True
                        break
                    except NoSpace:
                        # the mirror tier is full: as if unreachable, this
                        # run stays stale until the tier has room again
                        self.stats.add("sync_no_space")
                        failed = True
                        break
                    copied.append((run_start, run_len))
                    blocks += run_len
            if copied:
                try:
                    mux.files.fsync(inode, tier_id)
                except TierUnavailable:
                    self.stats.add("sync_skipped_offline")
                    return 0  # nothing durable: every interval stays stale
                for run_start, run_len in copied:
                    replicas.mark_synced(tier_id, run_start, run_len)
                self.stats.add("syncs")
                self.stats.add("blocks_synced", blocks)
            return blocks
        finally:
            # discard the frame cursor: the batch drains on the device
            # timelines while the foreground proceeds
            mux.clock.pop_frame()

    def _media_write(
        self, inode: CollectiveInode, tier_id: int, offset: int, data: bytes
    ) -> None:
        """One mirror-sync media write (crash-explorer sync-point label)."""
        self._mux.files.write(
            inode, tier_id, offset, data, dispatch=True, cause="mirror_sync"
        )

