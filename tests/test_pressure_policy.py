"""Pressure-aware placement: spill, hysteresis, health, demotion, pacing."""

from dataclasses import replace

import pytest

from repro.core.health import HealthState
from repro.core.policies import LruTieringPolicy, PressureAwarePolicy
from repro.core.policy import (
    FileView,
    PlacementRequest,
    TierState,
    make_policy,
)
from repro.core.pressure import TierPressure
from repro.devices.profile import OPTANE_SSD_P4800X, DeviceKind
from repro.stack import build_stack

KIB = 1024
MIB = 1024 * KIB


def _tier(
    tier_id: int,
    rank: int,
    load: float = 0.0,
    health: HealthState = HealthState.HEALTHY,
    free: int = 900 * MIB,
    total: int = 1024 * MIB,
) -> TierState:
    return TierState(
        tier_id=tier_id,
        name=f"t{tier_id}",
        rank=rank,
        kind=DeviceKind.SOLID_STATE,
        free_bytes=free,
        total_bytes=total,
        health=health,
        pressure=TierPressure(queued=load, backlog=load),
    )


def _req(length: int = 4 * KIB, ino: int = 1, sync: bool = False) -> PlacementRequest:
    return PlacementRequest(
        path="/f",
        ino=ino,
        offset=0,
        length=length,
        file_size=length,
        is_append=True,
        synchronous=sync,
    )


class TestSpill:
    def test_cool_base_tier_keeps_the_write(self):
        pol = PressureAwarePolicy()
        tiers = [_tier(0, 0), _tier(1, 1), _tier(2, 2)]
        assert pol.place_write(_req(4 * KIB), tiers) == 0
        assert pol.router.pressure_spills == 0

    def test_saturated_base_spills_uphill(self):
        pol = PressureAwarePolicy()
        # avg write size lands at rank 1; its channels are saturated
        tiers = [_tier(0, 0), _tier(1, 1, load=2.0), _tier(2, 2)]
        dst = pol.place_write(_req(512 * KIB), tiers)
        assert dst == 0  # spilled to the cool faster tier, not downhill
        assert pol.router.pressure_spills == 1

    def test_no_faster_tier_eats_the_queue(self):
        # saturation at the fastest tier: spilling downhill would trade a
        # transient queue for a permanently slow placement, so stay put
        pol = PressureAwarePolicy()
        tiers = [_tier(0, 0, load=2.0), _tier(1, 1), _tier(2, 2)]
        assert pol.place_write(_req(4 * KIB), tiers) == 0
        assert pol.router.pressure_spills == 0

    def test_registry_name(self):
        assert isinstance(make_policy("pressure"), PressureAwarePolicy)


class TestHysteresis:
    def test_avoided_until_resume_threshold(self):
        pol = PressureAwarePolicy()
        loaded = [_tier(0, 0), _tier(1, 1, load=0.8), _tier(2, 2)]
        assert pol.place_write(_req(512 * KIB), loaded) == 0

        # load decays into the hysteresis band: still avoided, no flap
        band = [_tier(0, 0), _tier(1, 1, load=0.5), _tier(2, 2)]
        assert pol.place_write(_req(512 * KIB), band) == 0

        # only below RESUME_LOAD does placement return to the base tier
        cool = [_tier(0, 0), _tier(1, 1, load=0.1), _tier(2, 2)]
        assert pol.place_write(_req(512 * KIB), cool) == 1


class TestHealthRouting:
    def test_suspect_base_moves_the_write(self):
        pol = PressureAwarePolicy()
        tiers = [
            _tier(0, 0, health=HealthState.SUSPECT),
            _tier(1, 1),
            _tier(2, 2),
        ]
        assert pol.place_write(_req(4 * KIB), tiers) == 1

    def test_suspect_preferred_over_offline(self):
        # all fast tiers degraded: a SUSPECT tier still beats OFFLINE,
        # which must never receive a write
        pol = PressureAwarePolicy()
        tiers = [
            _tier(0, 0, health=HealthState.OFFLINE),
            _tier(1, 1, health=HealthState.SUSPECT),
            _tier(2, 2, health=HealthState.SUSPECT),
        ]
        assert pol.place_write(_req(4 * KIB), tiers) == 1


def _view(ino: int, tier: int, blocks: int = 64) -> FileView:
    return FileView(
        ino=ino,
        path=f"/f{ino}",
        size=blocks * 4096,
        blocks_by_tier={tier: blocks},
        runs=[(0, blocks, tier)],
    )


class TestPlanning:
    def test_backlogged_tier_demotes_cold_files(self):
        pol = PressureAwarePolicy()
        tiers = [_tier(0, 0), _tier(1, 1, load=2.0), _tier(2, 2)]
        orders = pol.plan_migrations(tiers, [_view(1, tier=1)])
        assert orders
        assert all(o.reason == "pressure-demote" for o in orders)
        assert all(o.src_tier == 1 and o.dst_tier != 1 for o in orders)

    def test_warm_files_stay_on_backlogged_tier(self):
        # warm = above the cold threshold (no demotion: moving warm data
        # off a busy tier just moves the heat) but below the hot
        # threshold (no promotion either)
        pol = PressureAwarePolicy()
        for _ in range(2):
            pol.on_access(1, 0, 1, 1, "read", 0.0)
        tiers = [_tier(0, 0), _tier(1, 1, load=2.0), _tier(2, 2)]
        orders = pol.plan_migrations(tiers, [_view(1, tier=1)])
        assert orders == []

    def test_watermark_demotion_ignores_heat(self):
        # a nearly-full fast tier sheds even warm files: absorption of
        # the next burst is worth more than any one file's placement
        pol = PressureAwarePolicy()
        for _ in range(8):
            pol.on_access(1, 0, 1, 0, "read", 0.0)
        full = _tier(0, 0, free=64 * MIB, total=1024 * MIB)
        tiers = [full, _tier(1, 1), _tier(2, 2)]
        orders = pol.plan_migrations(tiers, [_view(1, tier=0)])
        assert orders
        assert orders[0].src_tier == 0
        assert orders[0].reason == "pressure-demote"

    def test_promotion_deferred_while_fastest_is_hot(self):
        pol = PressureAwarePolicy()
        for _ in range(8):
            pol.on_access(1, 0, 1, 1, "read", 0.0)
        cool = [_tier(0, 0), _tier(1, 1), _tier(2, 2)]
        hot = [_tier(0, 0, load=2.0), _tier(1, 1), _tier(2, 2)]
        deferred_before = pol.router.deferred_orders
        assert pol.plan_migrations(hot, [_view(1, tier=1)]) == []
        assert pol.router.deferred_orders > deferred_before
        orders = pol.plan_migrations(cool, [_view(1, tier=1)])
        assert orders and orders[0].reason == "pressure-promote"

    def test_promotion_respects_headroom_cap(self):
        pol = PressureAwarePolicy()
        for _ in range(8):
            pol.on_access(1, 0, 1, 1, "read", 0.0)
        crowded = _tier(0, 0, free=400 * MIB, total=1024 * MIB)
        tiers = [crowded, _tier(1, 1), _tier(2, 2)]
        assert pol.plan_migrations(tiers, [_view(1, tier=1)]) == []

    def test_promotion_rationed_per_plan(self):
        pol = PressureAwarePolicy()
        views = [_view(i, tier=1) for i in range(1, 6)]
        for v in views:
            for _ in range(8):
                pol.on_access(v.ino, 0, 1, 1, "read", 0.0)
        tiers = [_tier(0, 0), _tier(1, 1), _tier(2, 2)]
        orders = pol.plan_migrations(tiers, views)
        assert len({o.ino for o in orders}) == 2


class TestIntegrationSpill:
    def test_saturated_ssd_timeline_triggers_spill(self):
        """End-to-end: replaying the canonical bursty trace, the fsynced
        write bursts saturate the small-buffer SSD's channels and the
        sampled load pushes subsequent burst writes uphill to PM."""
        from repro.bench.tracereplay import canonical_trace, replay_trace

        trace = canonical_trace("bursty")
        stack = build_stack(
            policy="pressure",
            enable_cache=False,
            profiles={
                "ssd": replace(OPTANE_SSD_P4800X, write_buffer_bytes=256 * KIB)
            },
            readahead_background=True,
            pressure_interval_ns=10_000,
        )
        result = replay_trace(
            stack, trace, ring_depth=32, maintain_every=256, population_tier="ssd"
        )
        assert result.errors == 0
        assert stack.mux.policy.router.pressure_spills > 0
        # the policy also migrated (demotions/promotions), not just spilled
        assert result.migrations_submitted > 0


class TestForgetRegression:
    """Policy.forget must fire on unlink AND rename-over for every
    stateful policy — stale per-ino heat/history must not pin a dead
    inode's placement decisions (ino numbers are never reused)."""

    def _state_keys(self, pol):
        keys = {k[0] for k in getattr(pol, "_recency", {})}
        if hasattr(pol, "heat"):
            keys |= set(pol.heat._heat)
        if hasattr(pol, "sizes"):
            keys |= set(pol.sizes._history)
        return keys

    @pytest.mark.parametrize("name", ["lru", "tpfs", "hotcold", "pressure"])
    def test_unlink_drops_policy_state(self, name):
        stack = build_stack(policy=name)
        mux = stack.mux
        mux.mkdir("/d")
        handle = mux.create("/d/a")
        mux.write(handle, 0, b"z" * 8192)
        mux.read(handle, 0, 8192)
        mux.close(handle)
        ino = handle.ino
        assert ino in self._state_keys(mux.policy)
        mux.unlink("/d/a")
        assert ino not in self._state_keys(mux.policy)

    @pytest.mark.parametrize("name", ["lru", "tpfs", "hotcold", "pressure"])
    def test_rename_over_drops_replaced_state(self, name):
        stack = build_stack(policy=name)
        mux = stack.mux
        mux.mkdir("/d")
        victim = mux.create("/d/victim")
        mux.write(victim, 0, b"z" * 8192)
        mux.read(victim, 0, 8192)
        mux.close(victim)
        other = mux.create("/d/other")
        mux.write(other, 0, b"w" * 4096)
        mux.close(other)
        assert victim.ino in self._state_keys(mux.policy)
        mux.rename("/d/other", "/d/victim")
        assert victim.ino not in self._state_keys(mux.policy)
        # the surviving file's state is untouched
        if isinstance(mux.policy, LruTieringPolicy):
            assert other.ino in self._state_keys(mux.policy)


class TestEnginePacing:
    def test_async_copy_bounds_bookahead(self):
        """A background copy must not book device time far past the
        global clock — foreground ops would knee-inflate against that
        phantom backlog.  Ticking with a static clock forces the bound
        to engage (counted stalls), yet the copy still completes."""
        from repro.core.policy import MigrationOrder

        stack = build_stack(enable_cache=False)
        mux = stack.mux
        mux.mkdir("/d")
        handle = mux.create("/d/big")
        mux.write(handle, 0, b"q" * (4 * MIB))
        mux.close(handle)
        inode = mux.inode_by_ino(handle.ino)
        src = next(iter(inode.blt.runs(0, inode.blt.end_block())))[2]
        dst = next(t for t in stack.tier_ids.values() if t != src)
        blocks = (4 * MIB) // mux.block_size
        task = mux.engine.submit(
            MigrationOrder(handle.ino, 0, blocks, src, dst, reason="test")
        )
        for _ in range(100_000):
            if task.done:
                break
            mux.engine.tick()
        assert task.done
        assert mux.engine.stats.get("bookahead_stalls") > 0
        assert mux.inode_by_ino(handle.ino).blt.blocks_on(dst) == blocks
