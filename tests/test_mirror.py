"""Mirror-optimized tiering (MOST): replica sets, sync, routing, fsck.

Covers the :class:`ReplicaSet` interval algebra, the ``replica_runs``
read-routing decomposition, the lazy :class:`MirrorEngine` sync loop
(pacing, deadline promotion, offline tolerance), the mux read path's
fastest-healthy-replica routing with failover ordering, write-induced
staleness, crash invalidation, lifecycle cleanup (truncate, punch,
unlink, migration, drop), the fsck replica-divergence audit, and the
``mirror`` policy's plan_mirrors/plan_migrations interplay.
"""

import pytest

from repro.core.blt import ByteArrayBlt, ReplicaSet, replica_runs
from repro.core.health import HEALTH_SUSPECT_ERRORS, HealthState
from repro.core.mirror import MirrorEngine
from repro.core.policies import MirrorPolicy
from repro.core.policy import (
    FileView,
    MigrationOrder,
    MirrorOrder,
    TierState,
)
from repro.devices.faults import FaultConfig
from repro.devices.profile import DeviceKind
from repro.stack import build_stack
from repro.tools import fsck

BS = 4096
KIB = 1024
MIB = 1024 * 1024


def pattern(size: int, salt: int = 0) -> bytes:
    return bytes((i * 31 + 7 + salt) % 256 for i in range(size))


def place_on(stack, path, tier_name, blocks=16, salt=0):
    """Create a file and move every block onto ``tier_name``."""
    mux = stack.mux
    handle = mux.create(path)
    mux.write(handle, 0, pattern(blocks * BS, salt))
    mux.fsync(handle)
    inode = mux.ns.resolve(path)
    dst = stack.tier_ids[tier_name]
    for start, count, tid in list(inode.blt.runs(0, blocks)):
        if tid is not None and tid != dst:
            mux.engine.migrate_now(
                MigrationOrder(inode.ino, start, count, tid, dst)
            )
    assert inode.blt.tiers_used() == [dst]
    return handle


# ---------------------------------------------------------------------------
# ReplicaSet interval algebra
# ---------------------------------------------------------------------------


class TestReplicaSet:
    def test_starts_empty(self):
        replicas = ReplicaSet()
        assert replicas.tiers() == []
        assert not replicas.has_stale()
        assert replicas.clean_blocks() == 0

    def test_stale_then_synced(self):
        replicas = ReplicaSet()
        replicas.add_tier(1)
        replicas.mark_stale(1, 0, 8, now_ns=100)
        assert replicas.stale_blocks() == 8
        assert replicas.stale_since_ns(1) == 100
        replicas.mark_synced(1, 0, 8)
        assert replicas.stale_blocks() == 0
        assert replicas.clean_blocks(1) == 8
        assert replicas.covers_clean(1, 0, 8)
        assert replicas.stale_since_ns(1) is None
        replicas.check_invariants()

    def test_note_write_dirties_mirrors_but_not_the_writer(self):
        replicas = ReplicaSet()
        replicas.add_tier(1)
        replicas.add_tier(2)
        for tier in (1, 2):
            replicas.mark_stale(tier, 0, 8, now_ns=0)
            replicas.mark_synced(tier, 0, 8)
        # tier 1 absorbed a write over [2,+2): it now owns those bytes,
        # so its own mirror tracking drops them; tier 2 goes stale there
        replicas.note_write(2, 2, dst_tier=1, now_ns=50)
        assert replicas.clean_runs(1) == [(0, 2), (4, 4)]
        assert replicas.stale_runs(1) == []
        assert replicas.stale_runs(2) == [(2, 2)]
        assert replicas.stale_since_ns(2) == 50
        replicas.check_invariants()

    def test_note_write_from_outside_dirties_everyone(self):
        replicas = ReplicaSet()
        replicas.add_tier(1)
        replicas.add_tier(2)
        for tier in (1, 2):
            replicas.mark_stale(tier, 0, 4, now_ns=0)
            replicas.mark_synced(tier, 0, 4)
        replicas.note_write(0, 4, dst_tier=9, now_ns=10)  # not a mirror
        assert replicas.stale_runs(1) == [(0, 4)]
        assert replicas.stale_runs(2) == [(0, 4)]

    def test_on_moved_drops_src_and_dst_tracking(self):
        replicas = ReplicaSet()
        replicas.add_tier(1)
        replicas.mark_stale(1, 0, 8, now_ns=0)
        replicas.mark_synced(1, 0, 8)
        # authority for [0,+4) moved from tier 3 onto the mirror tier 1:
        # tier 1 now owns those blocks, so it stops mirroring them
        replicas.on_moved([(0, 4)], src_tier=3, dst_tier=1)
        assert replicas.clean_runs(1) == [(4, 4)]
        replicas.check_invariants()

    def test_mark_all_stale_invalidates_every_clean_interval(self):
        replicas = ReplicaSet()
        replicas.add_tier(1)
        replicas.add_tier(2)
        replicas.mark_stale(1, 0, 8, now_ns=0)
        replicas.mark_synced(1, 0, 8)
        replicas.mark_stale(2, 4, 4, now_ns=0)
        replicas.mark_all_stale(now_ns=99)
        assert replicas.clean_blocks() == 0
        assert replicas.stale_runs(1) == [(0, 8)]
        assert replicas.stale_runs(2) == [(4, 4)]
        replicas.check_invariants()

    def test_retire_tier_returns_everything_it_tracked(self):
        replicas = ReplicaSet()
        replicas.add_tier(1)
        replicas.mark_stale(1, 0, 4, now_ns=0)
        replicas.mark_synced(1, 0, 4)
        replicas.mark_stale(1, 6, 2, now_ns=0)
        runs = replicas.retire_tier(1)
        assert runs == [(0, 4), (6, 2)]
        assert not replicas.has_tier(1)
        assert replicas.tiers() == []

    def test_drop_range_forgets_a_truncated_tail(self):
        replicas = ReplicaSet()
        replicas.add_tier(1)
        replicas.mark_stale(1, 0, 16, now_ns=0)
        replicas.mark_synced(1, 0, 16)
        replicas.drop_range(8, 8)
        assert replicas.clean_runs(1) == [(0, 8)]
        replicas.check_invariants()


class TestReplicaRuns:
    def test_segments_annotated_with_covering_mirrors(self):
        blt = ByteArrayBlt()
        blt.map_range(0, 8, 3)  # authoritative on tier 3
        replicas = ReplicaSet()
        replicas.add_tier(1)
        replicas.mark_stale(1, 0, 8, now_ns=0)
        replicas.mark_synced(1, 0, 4)  # only the first half is clean
        segs = list(replica_runs(blt.runs(0, 8), replicas))
        assert segs == [(0, 4, 3, (1,)), (4, 4, 3, ())]

    def test_owner_tier_never_lists_itself_as_mirror(self):
        blt = ByteArrayBlt()
        blt.map_range(0, 4, 1)
        replicas = ReplicaSet()
        replicas.add_tier(1)
        # stale bookkeeping on blocks tier 1 happens to own must not
        # surface tier 1 as its own mirror
        replicas.mark_stale(1, 0, 4, now_ns=0)
        replicas.mark_synced(1, 0, 4)
        segs = list(replica_runs(blt.runs(0, 4), replicas))
        assert segs == [(0, 4, 1, ())]


# ---------------------------------------------------------------------------
# serving reads from mirrors
# ---------------------------------------------------------------------------


class TestMirrorServing:
    @pytest.fixture
    def stack(self):
        return build_stack(enable_cache=False)

    def test_read_routes_to_fastest_clean_mirror(self, stack):
        mux = stack.mux
        handle = place_on(stack, "/hot", "hdd")
        inode = mux.ns.resolve("/hot")
        pm = stack.tier_ids["pm"]
        mux.mirrors.add_mirror(inode, pm)
        assert inode.replicas.stale_blocks() == 16
        assert mux.mirrors.sync_file(inode) == 16
        assert inode.replicas.clean_blocks(pm) == 16

        before = mux.stats.get("reads_from_mirror")
        assert mux.read(handle, 0, 16 * BS) == pattern(16 * BS)
        assert mux.stats.get("reads_from_mirror") == before + 1
        assert fsck.check_mux(mux) == []
        mux.close(handle)

    def test_mirror_is_cheaper_than_the_hdd(self, stack):
        mux = stack.mux
        handle = place_on(stack, "/hot", "hdd")
        inode = mux.ns.resolve("/hot")
        t0 = stack.clock.now_ns
        mux.read(handle, 0, 16 * BS)
        hdd_cost = stack.clock.now_ns - t0
        mux.mirrors.add_mirror(inode, stack.tier_ids["pm"])
        mux.mirrors.sync_file(inode)
        t0 = stack.clock.now_ns
        mux.read(handle, 0, 16 * BS)
        pm_cost = stack.clock.now_ns - t0
        assert pm_cost < hdd_cost
        mux.close(handle)

    def test_stale_interval_is_never_served(self, stack):
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        pm = stack.tier_ids["pm"]
        mux.mirrors.add_mirror(inode, pm)
        mux.mirrors.sync_file(inode)

        # overwrite through the mux: the mirror must go stale and reads
        # must reflect the new bytes, not the old mirror copy
        mux.write(handle, 4 * BS, b"\xee" * BS)
        mux.fsync(handle)
        got = mux.read(handle, 0, 16 * BS)
        assert got[4 * BS : 5 * BS] == b"\xee" * BS
        assert got[:4 * BS] == pattern(16 * BS)[: 4 * BS]

        # re-converge and verify again from the mirror
        mux.mirrors.sync_file(inode)
        assert not inode.replicas.has_stale()
        got = mux.read(handle, 0, 16 * BS)
        assert got[4 * BS : 5 * BS] == b"\xee" * BS
        assert fsck.check_mux(mux) == []
        mux.close(handle)

    def test_unmirrored_files_never_touch_the_replica_path(self, stack):
        mux = stack.mux
        handle = place_on(stack, "/plain", "ssd")
        mux.read(handle, 0, 16 * BS)
        assert mux.ns.resolve("/plain").replicas is None
        assert mux.stats.get("reads_from_mirror") == 0
        mux.close(handle)


class TestFailoverOrdering:
    """The satellite scenario: reads land on the healthiest fastest
    replica, degrading PM -> SSD -> authoritative HDD without EIO."""

    @pytest.fixture
    def stack(self):
        return build_stack(enable_cache=False)

    def test_read_failover_order(self, stack):
        mux = stack.mux
        pm, ssd = stack.tier_ids["pm"], stack.tier_ids["ssd"]
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        for tier in (pm, ssd):
            mux.mirrors.add_mirror(inode, tier)
        mux.mirrors.sync_file(inode)
        assert inode.replicas.clean_blocks(pm) == 16
        assert inode.replicas.clean_blocks(ssd) == 16
        want = pattern(16 * BS)

        def routed(mux, inode):
            spans = mux.mirrors.route_reads(inode, inode.blt.runs(0, 16))
            return {tid for _, _, tid in spans}

        # all healthy: the PM mirror (rank 0) wins
        assert routed(mux, inode) == {pm}
        assert mux.read(handle, 0, 16 * BS) == want

        # PM mirror OFFLINE: fall over to the SSD mirror
        mux.mark_tier_offline(pm)
        assert routed(mux, inode) == {ssd}
        assert mux.read(handle, 0, 16 * BS) == want

        # SSD mirror SUSPECT too: the healthy authoritative HDD copy
        # now outranks both degraded mirrors
        for _ in range(HEALTH_SUSPECT_ERRORS):
            mux.registry.get(ssd).health.record_error()
        assert mux.registry.get(ssd).health.state is HealthState.SUSPECT
        assert routed(mux, inode) == {stack.tier_ids["hdd"]}
        assert mux.read(handle, 0, 16 * BS) == want

        # the whole cascade served without a single offline failure
        assert mux.stats.get("reads_failed_offline") == 0
        assert mux.stats.get("reads_degraded_mirror") == 0
        mux.close(handle)

    def test_degraded_authority_served_by_healthy_mirror(self, stack):
        mux = stack.mux
        ssd, hdd = stack.tier_ids["ssd"], stack.tier_ids["hdd"]
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        mux.mirrors.add_mirror(inode, ssd)
        mux.mirrors.sync_file(inode)

        # the *authoritative* tier dies; pre-MOST this read was an EIO
        mux.mark_tier_offline(hdd)
        assert mux.read(handle, 0, 16 * BS) == pattern(16 * BS)
        assert mux.stats.get("reads_failed_offline") == 0
        assert mux.stats.get("reads_degraded_mirror") > 0
        mux.close(handle)


# ---------------------------------------------------------------------------
# crash invalidation
# ---------------------------------------------------------------------------


class TestCrashInvalidation:
    def test_crash_marks_every_mirror_stale(self):
        stack = build_stack(enable_cache=False)
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        pm = stack.tier_ids["pm"]
        mux.mirrors.add_mirror(inode, pm)
        mux.mirrors.sync_file(inode)
        assert inode.replicas.clean_blocks() == 16
        mux.close(handle)

        mux.crash()
        mux.recover()
        inode = mux.ns.resolve("/f")
        assert inode.replicas is not None
        assert inode.replicas.clean_blocks() == 0
        assert inode.replicas.stale_blocks() == 16
        assert fsck.check_mux(mux) == []

        # reads fall back to the authoritative copy, and the sync engine
        # re-converges the invalidated mirror afterwards
        handle = mux.open("/f")
        assert mux.read(handle, 0, 16 * BS) == pattern(16 * BS)
        assert mux.mirrors.sync_file(inode) == 16
        assert inode.replicas.clean_blocks(pm) == 16
        mux.close(handle)


# ---------------------------------------------------------------------------
# lifecycle cleanup
# ---------------------------------------------------------------------------


class TestLifecycle:
    @pytest.fixture
    def stack(self):
        return build_stack(enable_cache=False)

    def test_truncate_drops_replica_tail(self, stack):
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        mux.mirrors.add_mirror(inode, stack.tier_ids["pm"])
        mux.mirrors.sync_file(inode)
        mux.truncate(handle, 8 * BS)
        assert inode.replicas.clean_runs(stack.tier_ids["pm"]) == [(0, 8)]
        assert fsck.check_mux(mux) == []
        mux.close(handle)

    def test_punch_hole_clears_mirror_coverage(self, stack):
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        pm = stack.tier_ids["pm"]
        mux.mirrors.add_mirror(inode, pm)
        mux.mirrors.sync_file(inode)
        mux.punch_hole(handle, 4 * BS, 4 * BS)
        assert inode.replicas.clean_runs(pm) == [(0, 4), (8, 8)]
        got = mux.read(handle, 0, 16 * BS)
        assert got[4 * BS : 8 * BS] == bytes(4 * BS)
        assert fsck.check_mux(mux) == []
        mux.close(handle)

    def test_unlink_forgets_the_mirror_registration(self, stack):
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        mux.mirrors.add_mirror(inode, stack.tier_ids["pm"])
        mux.mirrors.sync_file(inode)
        mux.close(handle)
        mux.unlink("/f")
        assert mux.mirrors.mirrored_inos() == []
        assert mux.mirrors.tick() == 0

    def test_migration_into_the_mirror_tier_consumes_it(self, stack):
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        pm, hdd = stack.tier_ids["pm"], stack.tier_ids["hdd"]
        mux.mirrors.add_mirror(inode, pm)
        mux.mirrors.sync_file(inode)
        mux.engine.migrate_now(MigrationOrder(inode.ino, 0, 8, hdd, pm))
        # tier pm now *owns* [0,+8): it cannot also mirror those blocks
        assert inode.replicas.clean_runs(pm) == [(8, 8)]
        assert mux.read(handle, 0, 16 * BS) == pattern(16 * BS)
        assert fsck.check_mux(mux) == []
        mux.close(handle)

    def test_drop_mirror_punches_only_unowned_blocks(self, stack):
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        pm, hdd = stack.tier_ids["pm"], stack.tier_ids["hdd"]
        mux.mirrors.add_mirror(inode, pm)
        mux.mirrors.sync_file(inode)
        # authority for the first half moves onto the mirror tier
        mux.engine.migrate_now(MigrationOrder(inode.ino, 0, 8, hdd, pm))
        mux.mirrors.drop_mirror(inode, pm)
        assert inode.replicas is None
        # the authoritative half survived the reclaim
        assert mux.read(handle, 0, 16 * BS) == pattern(16 * BS)
        assert fsck.check_mux(mux, deep=True) == []
        mux.close(handle)

    def test_evacuate_retires_mirrors_on_the_leaving_tier(self, stack):
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        pm = stack.tier_ids["pm"]
        mux.mirrors.add_mirror(inode, pm)
        mux.mirrors.sync_file(inode)
        mux.evacuate(pm)
        assert inode.replicas is None
        assert mux.read(handle, 0, 16 * BS) == pattern(16 * BS)
        assert fsck.check_mux(mux) == []
        mux.close(handle)


# ---------------------------------------------------------------------------
# pacing and deadline promotion (dispatcher fairness)
# ---------------------------------------------------------------------------


class TestPacingAndDeadline:
    def test_loaded_channels_defer_then_deadline_promotes(self):
        stack = build_stack(enable_cache=False)
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        mux.mirrors.add_mirror(inode, stack.tier_ids["pm"])

        # a saturated channel defers the paced sync...
        mux.pressure.instant_load_of = lambda tier_id, now_ns: 5.0
        assert mux.mirrors.tick() == 0
        assert mux.mirrors.stats.get("defer_ticks") > 0
        assert inode.replicas.stale_blocks() == 16

        # ...but only until the staleness deadline: then the sync runs
        # into the load anyway instead of starving forever
        stack.clock.advance_ns(MirrorEngine.MAX_STALENESS_NS + 1)
        assert mux.mirrors.tick() == 16
        assert mux.mirrors.stats.get("deadline_promotions") > 0
        assert not inode.replicas.has_stale()
        mux.close(handle)

    def test_offline_mirror_tier_stays_stale_until_it_returns(self):
        stack = build_stack(enable_cache=False)
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        pm = stack.tier_ids["pm"]
        mux.mirrors.add_mirror(inode, pm)
        mux.mark_tier_offline(pm)
        assert mux.mirrors.sync_file(inode) == 0
        assert mux.mirrors.stats.get("sync_skipped_offline") > 0
        assert inode.replicas.stale_blocks() == 16
        mux.mark_tier_online(pm)
        assert mux.mirrors.sync_file(inode) == 16
        assert mux.read(handle, 0, 16 * BS) == pattern(16 * BS)
        mux.close(handle)


class TestSyncFailure:
    """A copy that dies leaves what it did not make durable *stale* — "a
    stale replica is never served" rests on these three branches."""

    @staticmethod
    def split_file(stack):
        """/f with blocks 0-7 on the HDD and 8-15 on the SSD."""
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        mux.engine.migrate_now(
            MigrationOrder(
                handle.ino, 8, 8, stack.tier_ids["hdd"], stack.tier_ids["ssd"]
            )
        )
        mux.fsync(handle)
        return handle, mux.ns.resolve("/f")

    def test_source_dying_mid_copy_keeps_its_interval_stale(self):
        stack = build_stack(enable_cache=False, faults={"ssd": FaultConfig()})
        mux = stack.mux
        handle, inode = self.split_file(stack)
        pm = stack.tier_ids["pm"]
        mux.mirrors.add_mirror(inode, pm)
        stack.drop_page_caches()  # the copy must read the media
        stack.injectors["ssd"].set_offline()
        # the HDD-sourced run copies and commits; the SSD-sourced one dies
        # (sync_file goes round once more before it gives up on it)
        assert mux.mirrors.sync_file(inode) == 8
        assert mux.mirrors.stats.get("sync_skipped_offline") == 2
        assert inode.replicas.covers_clean(pm, 0, 8)
        assert inode.replicas.stale_runs(pm) == [(8, 8)]
        assert mux.read(handle, 0, 8 * BS) == pattern(16 * BS)[: 8 * BS]
        stack.injectors["ssd"].set_online()
        mux.mark_tier_online(stack.tier_ids["ssd"])
        assert mux.mirrors.sync_file(inode) == 8  # retried once it is back
        assert not inode.replicas.has_stale()
        assert mux.read(handle, 0, 16 * BS) == pattern(16 * BS)
        assert mux.stats.get("reads_from_mirror") > 0
        mux.close(handle)

    def test_mirror_dying_mid_copy_leaves_every_interval_stale(self):
        stack = build_stack(enable_cache=False, faults={"pm": FaultConfig()})
        mux = stack.mux
        handle, inode = self.split_file(stack)
        pm = stack.tier_ids["pm"]
        mux.mirrors.add_mirror(inode, pm)
        media_write = mux.mirrors._media_write
        copies = []

        def dies_after_the_first_run(inode_, tier_id, offset, data):
            if copies:
                stack.injectors["pm"].set_offline()
            copies.append(offset)
            media_write(inode_, tier_id, offset, data)

        mux.mirrors._media_write = dies_after_the_first_run
        # the first run landed, but the mirror cannot fsync it: nothing
        # is durable there, so nothing may be marked clean
        assert mux.mirrors.sync_file(inode) == 0
        assert copies == [0, 8 * BS]
        assert mux.mirrors.stats.get("sync_skipped_offline") == 2
        assert inode.replicas.clean_blocks() == 0
        assert inode.replicas.stale_blocks() == 16
        assert mux.read(handle, 0, 16 * BS) == pattern(16 * BS)
        assert mux.stats.get("reads_from_mirror") == 0
        mux.close(handle)

    def test_mirror_dying_at_its_fsync_leaves_every_interval_stale(self):
        stack = build_stack(enable_cache=False, faults={"ssd": FaultConfig()})
        mux = stack.mux
        handle = place_on(stack, "/f", "hdd")
        inode = mux.ns.resolve("/f")
        ssd = stack.tier_ids["ssd"]
        mux.mirrors.add_mirror(inode, ssd)
        # XFS buffers the copies in DRAM; the device is first needed at
        # the fsync that would make them durable
        stack.injectors["ssd"].set_offline()
        assert mux.mirrors.sync_file(inode) == 0
        assert mux.mirrors.stats.get("sync_skipped_offline") == 1
        assert mux.mirrors.stats.get("syncs") == 0
        assert inode.replicas.clean_blocks() == 0
        assert inode.replicas.stale_blocks() == 16
        assert mux.read(handle, 0, 16 * BS) == pattern(16 * BS)  # from the HDD
        assert mux.stats.get("reads_from_mirror") == 0
        stack.injectors["ssd"].set_online()
        mux.mark_tier_online(ssd)
        assert mux.mirrors.sync_file(inode) == 16
        assert inode.replicas.covers_clean(ssd, 0, 16)
        mux.close(handle)

# ---------------------------------------------------------------------------
# fsck replica-divergence audit (injected corruption)
# ---------------------------------------------------------------------------


class TestFsckDivergence:
    @pytest.fixture
    def mirrored(self):
        stack = build_stack(enable_cache=False)
        handle = place_on(stack, "/f", "hdd")
        inode = stack.mux.ns.resolve("/f")
        stack.mux.mirrors.add_mirror(inode, stack.tier_ids["pm"])
        stack.mux.mirrors.sync_file(inode)
        assert fsck.check_mux(stack.mux) == []
        return stack, inode

    def test_clean_and_stale_overlap_detected(self, mirrored):
        stack, inode = mirrored
        pm = stack.tier_ids["pm"]
        # corrupt the bookkeeping directly: [2,+2) both clean and stale
        inode.replicas._stale[pm].add_range(2, 2)
        problems = fsck.check_mux(stack.mux)
        assert any("both clean and stale" in p for p in problems)

    def test_clean_claim_beyond_mapped_range_detected(self, mirrored):
        stack, inode = mirrored
        pm = stack.tier_ids["pm"]
        inode.replicas._clean[pm].add_range(100, 4)
        problems = fsck.check_mux(stack.mux)
        assert any("beyond the mapped range" in p for p in problems)

    def test_clean_claim_over_hole_detected(self, mirrored):
        stack, inode = mirrored
        handle = stack.mux.open("/f")
        stack.mux.punch_hole(handle, 4 * BS, 4 * BS)
        stack.mux.close(handle)
        pm = stack.tier_ids["pm"]
        inode.replicas._clean[pm].add_range(5, 1)  # claims a punched block
        problems = fsck.check_mux(stack.mux)
        assert any("over a hole" in p for p in problems)

    def test_self_mirroring_authority_detected(self, mirrored):
        stack, inode = mirrored
        hdd = stack.tier_ids["hdd"]  # the authoritative owner
        inode.replicas.add_tier(hdd)
        inode.replicas._clean[hdd].add_range(0, 4)
        problems = fsck.check_mux(stack.mux)
        assert any("owns authoritatively" in p for p in problems)

    def test_unknown_tier_reference_detected(self, mirrored):
        stack, inode = mirrored
        inode.replicas.add_tier(77)
        problems = fsck.check_mux(stack.mux)
        assert any("unknown tier 77" in p for p in problems)


# ---------------------------------------------------------------------------
# the mirror policy
# ---------------------------------------------------------------------------


def tier_state(tier_id, name, rank, kind, free, total, health=HealthState.HEALTHY):
    return TierState(
        tier_id=tier_id,
        name=name,
        rank=rank,
        kind=kind,
        free_bytes=free,
        total_bytes=total,
        health=health,
    )


class TestMirrorPolicy:
    def tiers(self, pm_free=32 * MIB, pm_health=HealthState.HEALTHY):
        return [
            tier_state(1, "pm", 0, DeviceKind.PERSISTENT_MEMORY,
                       pm_free, 64 * MIB, pm_health),
            tier_state(3, "hdd", 2, DeviceKind.HARD_DISK, MIB * 900, MIB * 1024),
        ]

    def view(self, ino, size=64 * KIB, tier=3):
        blocks = size // BS
        return FileView(
            ino=ino, path=f"/f{ino}", size=size,
            blocks_by_tier={tier: blocks}, runs=[(0, blocks, tier)],
        )

    def test_hot_read_mostly_small_file_earns_a_mirror(self):
        policy = MirrorPolicy()
        for _ in range(10):
            policy.on_access(1, 0, 16, 3, "read", 0.0)
        orders = policy.plan_mirrors(self.tiers(), [self.view(1)])
        assert orders == [MirrorOrder(1, 1, "add", "hot-read-mostly")]

    def test_write_heavy_file_is_not_mirrored(self):
        policy = MirrorPolicy()
        for _ in range(10):
            policy.on_access(1, 0, 16, 3, "write", 0.0)
        assert policy.plan_mirrors(self.tiers(), [self.view(1)]) == []

    def test_cold_file_is_not_mirrored(self):
        policy = MirrorPolicy()
        policy.on_access(1, 0, 16, 3, "read", 0.0)
        assert policy.plan_mirrors(self.tiers(), [self.view(1)]) == []

    def test_large_file_is_not_mirrored(self):
        policy = MirrorPolicy()
        for _ in range(10):
            policy.on_access(1, 0, 16, 3, "read", 0.0)
        view = self.view(1, size=2 * MirrorPolicy.MAX_FILE_BYTES)
        assert policy.plan_mirrors(self.tiers(), [view]) == []

    def test_file_already_on_the_fast_tier_is_skipped(self):
        policy = MirrorPolicy()
        for _ in range(10):
            policy.on_access(1, 0, 16, 1, "read", 0.0)
        view = self.view(1, tier=1)  # lives on PM already
        assert policy.plan_mirrors(self.tiers(), [view]) == []

    def test_cooled_mirror_is_dropped(self):
        policy = MirrorPolicy()
        for _ in range(10):
            policy.on_access(1, 0, 16, 3, "read", 0.0)
        assert policy.plan_mirrors(self.tiers(), [self.view(1)])
        # heat decays (via the migration planner, as in mux.maintain)
        # with no further accesses until the file is cold
        for _ in range(30):
            policy.plan_migrations(self.tiers(), [self.view(1)])
            orders = policy.plan_mirrors(self.tiers(), [self.view(1)])
            if orders:
                break
        assert orders == [MirrorOrder(1, 1, "drop", "cooled")]

    def test_offline_mirror_tier_sheds_its_mirrors(self):
        policy = MirrorPolicy()
        for _ in range(10):
            policy.on_access(1, 0, 16, 3, "read", 0.0)
        assert policy.plan_mirrors(self.tiers(), [self.view(1)])
        orders = policy.plan_mirrors(
            self.tiers(pm_health=HealthState.OFFLINE), [self.view(1)]
        )
        assert MirrorOrder(1, 1, "drop", "tier-gone") in orders

    def test_space_pressure_reclaims_the_coldest_mirror(self):
        policy = MirrorPolicy()
        for ino, accesses in ((1, 12), (2, 6)):
            for _ in range(accesses):
                policy.on_access(ino, 0, 16, 3, "read", 0.0)
        views = [self.view(1), self.view(2)]
        assert len(policy.plan_mirrors(self.tiers(), views)) == 2
        # the mirror tier fills past RECLAIM_UTIL: coldest mirrors go
        orders = policy.plan_mirrors(
            self.tiers(pm_free=MIB), views  # 63/64 MiB used
        )
        drops = [o for o in orders if o.action == "drop"]
        assert drops and drops[0].ino == 2  # colder of the two

    def test_promotions_into_the_mirror_tier_are_suppressed(self):
        policy = MirrorPolicy()
        for _ in range(10):
            policy.on_access(1, 0, 16, 3, "read", 0.0)
        tiers = self.tiers()
        views = [self.view(1)]
        assert policy.plan_mirrors(tiers, views)
        # hot + resident downhill + cool fast tier would normally promote
        for _ in range(10):
            policy.on_access(1, 0, 16, 3, "read", 0.0)
        orders = policy.plan_migrations(tiers, views)
        assert not any(o.dst_tier == 1 for o in orders)


class TestMaintainIntegration:
    def test_maintain_grants_syncs_and_serves_a_mirror(self):
        # PROMOTE_UTIL = 0.0 disables promotion so the test isolates the
        # mirror grant (otherwise the hot file is simply moved to PM)
        class MirrorOnly(MirrorPolicy):
            PROMOTE_UTIL = 0.0

        stack = build_stack(policy=MirrorOnly(), enable_cache=False)
        mux = stack.mux
        handle = place_on(stack, "/hot", "hdd")
        for _ in range(10):
            mux.read(handle, 0, 16 * BS)
        for _ in range(8):
            mux.maintain()
            if not mux.mirrors.stale_backlog() and mux.mirrors.mirrored_inos():
                break
        inode = mux.ns.resolve("/hot")
        assert inode.replicas is not None
        assert inode.replicas.clean_blocks() == 16
        before = mux.stats.get("reads_from_mirror")
        assert mux.read(handle, 0, 16 * BS) == pattern(16 * BS)
        assert mux.stats.get("reads_from_mirror") == before + 1
        assert fsck.check_mux(mux, deep=True) == []
        mux.close(handle)
