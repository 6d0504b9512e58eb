"""Tiering policies: placement rules, recency tracking, migration plans."""

import pytest

from repro.core.policies import (
    CHUNK_BLOCKS,
    HotColdPolicy,
    LruTieringPolicy,
    PinnedPolicy,
    TpfsPolicy,
)
from repro.core.policy import (
    FileView,
    PlacementRequest,
    TierState,
    fastest_with_room,
    make_policy,
    registered_policies,
)
from repro.devices.profile import DeviceKind
from repro.errors import PolicyError

MIB = 1024 * 1024


def tier(tier_id, rank, free, total=64 * MIB, kind=DeviceKind.SOLID_STATE):
    return TierState(
        tier_id=tier_id,
        name=f"t{tier_id}",
        rank=rank,
        kind=kind,
        free_bytes=free,
        total_bytes=total,
    )


def request(length=4096, ino=1, synchronous=False):
    return PlacementRequest(
        path="/f",
        ino=ino,
        length=length,
        synchronous=synchronous,
    )


class HalfFullLru(LruTieringPolicy):
    HIGH_WATERMARK = 0.5
    LOW_WATERMARK = 0.4


class AlmostEmptyLru(LruTieringPolicy):
    HIGH_WATERMARK = 0.1
    LOW_WATERMARK = 0.05


THREE_TIERS = [
    tier(0, 0, 32 * MIB, kind=DeviceKind.PERSISTENT_MEMORY),
    tier(1, 1, 48 * MIB, kind=DeviceKind.SOLID_STATE),
    tier(2, 2, 60 * MIB, kind=DeviceKind.HARD_DISK),
]


class TestRegistry:
    def test_builtins_are_exactly_the_golden_pinned_set(self):
        """A policy variant cannot (re)appear without a golden: every
        built-in except the static ``pinned`` router must be duelled by a
        wallclock workload or be the stack default."""
        from repro.bench import wallclock
        from repro.core.mux import MuxFileSystem
        from repro.sim.clock import SimClock
        from repro.vfs.vfs import VFS

        # names other test classes register in this process start "test-"
        names = [n for n in registered_policies() if not n.startswith("test-")]
        assert names == ["hotcold", "lru", "mirror", "pinned", "pressure", "tpfs"]
        clock = SimClock()
        default = MuxFileSystem(VFS(clock), clock).policy.name
        pinned_by_golden = (
            set(wallclock._DUEL_POLICIES)
            | set(wallclock._MIRROR_DUEL_POLICIES)
            | {default}
        )
        assert set(names) - {"pinned"} <= pinned_by_golden

    def test_make_policy(self):
        assert isinstance(make_policy("lru"), LruTieringPolicy)
        with pytest.raises(TypeError):
            make_policy("lru", high_watermark=0.8)

    def test_unknown_policy(self):
        with pytest.raises(PolicyError):
            make_policy("nonexistent")


class TestFastestWithRoom:
    def test_prefers_fastest(self):
        assert fastest_with_room(THREE_TIERS, 1024).tier_id == 0

    def test_skips_full_tier(self):
        tiers = [tier(0, 0, 100), tier(1, 1, 32 * MIB)]
        assert fastest_with_room(tiers, 4096).tier_id == 1

    def test_no_room_anywhere(self):
        tiers = [tier(0, 0, 10, total=100)]
        with pytest.raises(PolicyError):
            fastest_with_room(tiers, 10**9)


class TestLruPolicy:
    def test_places_on_fastest(self):
        policy = LruTieringPolicy()
        assert policy.place_write(request(), THREE_TIERS) == 0

    def test_demotes_coldest_from_overfull_tier(self):
        policy = HalfFullLru()
        # tier 0 is 75% full -> over the watermark
        tiers = [
            tier(0, 0, 16 * MIB, total=64 * MIB),
            tier(1, 1, 64 * MIB, total=64 * MIB),
        ]
        cold = FileView(
            ino=1,
            path="/cold",
            size=CHUNK_BLOCKS * 4096,
            runs=[(0, CHUNK_BLOCKS, 0)],
        )
        hot = FileView(
            ino=2,
            path="/hot",
            size=CHUNK_BLOCKS * 4096,
            runs=[(0, CHUNK_BLOCKS, 0)],
        )
        policy.on_access(1, 0, CHUNK_BLOCKS, 0, "write")
        policy.on_access(2, 0, CHUNK_BLOCKS, 0, "write")  # hot is recent
        orders = policy.plan_migrations(tiers, [cold, hot])
        assert orders
        first = orders[0]
        assert first.ino == 1  # coldest chunk demoted first
        assert first.src_tier == 0
        assert first.dst_tier == 1

    def test_promote_on_read(self):
        policy = LruTieringPolicy()
        tiers = THREE_TIERS
        policy.on_access(5, 0, 8, tier_id=2, kind="read")
        view = FileView(ino=5, path="/f", size=8 * 4096, runs=[(0, 8, 2)])
        orders = policy.plan_migrations(tiers, [view])
        promotes = [o for o in orders if o.reason == "promote-on-access"]
        assert promotes
        assert promotes[0].src_tier == 2
        assert promotes[0].dst_tier == 1

    def test_no_demotion_below_watermark(self):
        policy = LruTieringPolicy()
        orders = policy.plan_migrations(THREE_TIERS, [])
        assert orders == []

    def test_slowest_tier_never_demotes(self):
        policy = AlmostEmptyLru()
        tiers = [tier(0, 0, 1 * MIB, total=64 * MIB)]
        policy.on_access(1, 0, CHUNK_BLOCKS, 0, "write")
        view = FileView(ino=1, path="/f", size=0, runs=[(0, CHUNK_BLOCKS, 0)])
        assert policy.plan_migrations(tiers, [view]) == []

    def test_forget_clears_state(self):
        policy = LruTieringPolicy()
        policy.on_access(1, 0, 8, 2, "read")
        policy.forget(1)
        assert policy.plan_migrations(THREE_TIERS, []) == []


class TestTpfsPolicy:
    def test_small_writes_to_pm(self):
        policy = TpfsPolicy()
        assert policy.place_write(request(length=4096), THREE_TIERS) == 0

    def test_medium_writes_to_ssd(self):
        policy = TpfsPolicy()
        assert policy.place_write(request(length=512 * 1024), THREE_TIERS) == 1

    def test_large_writes_to_hdd(self):
        policy = TpfsPolicy()
        assert policy.place_write(request(length=8 * MIB), THREE_TIERS) == 2

    def test_synchronous_forces_pm(self):
        policy = TpfsPolicy()
        assert (
            policy.place_write(request(length=8 * MIB, synchronous=True), THREE_TIERS)
            == 0
        )

    def test_history_smooths_decisions(self):
        policy = TpfsPolicy()
        for _ in range(4):
            policy.place_write(request(length=8 * MIB, ino=9), THREE_TIERS)
        # one small write amid a large-write history stays on the large tier
        assert policy.place_write(request(length=1024, ino=9), THREE_TIERS) == 2

    def test_full_tier_overflows_downhill(self):
        policy = TpfsPolicy()
        tiers = [
            tier(0, 0, 100, kind=DeviceKind.PERSISTENT_MEMORY),
            tier(1, 1, 48 * MIB),
        ]
        assert policy.place_write(request(length=4096), tiers) == 1


class TestHotColdPolicy:
    def test_hot_file_promoted(self):
        policy = HotColdPolicy()
        for _ in range(5):
            policy.on_access(1, 0, 4, 2, "read")
        view = FileView(ino=1, path="/f", size=4 * 4096, runs=[(0, 4, 2)])
        orders = policy.plan_migrations(THREE_TIERS, [view])
        assert orders
        assert orders[0].dst_tier == 0
        assert orders[0].reason == "hot"

    def test_cold_file_demoted(self):
        policy = HotColdPolicy()
        policy.on_access(1, 0, 4, 0, "read")
        view = FileView(ino=1, path="/f", size=4 * 4096, runs=[(0, 4, 0)])
        # each plan sees the heat, then decays it: 1.0, 0.8, 0.64 and
        # 0.512 are warm; the fifth plan sees 0.4096 <= COLD_THRESHOLD
        for _ in range(4):
            assert policy.plan_migrations(THREE_TIERS, [view]) == []
        orders = policy.plan_migrations(THREE_TIERS, [view])
        demotes = [o for o in orders if o.reason == "cold"]
        assert demotes
        assert demotes[0].dst_tier == 2

    def test_untouched_file_ignored(self):
        policy = HotColdPolicy()
        view = FileView(ino=1, path="/f", size=4 * 4096, runs=[(0, 4, 1)])
        assert policy.plan_migrations(THREE_TIERS, [view]) == []


class TestPinnedPolicy:
    def test_pins(self):
        policy = PinnedPolicy(2)
        assert policy.place_write(request(), THREE_TIERS) == 2

    def test_unknown_tier_rejected(self):
        policy = PinnedPolicy(9)
        with pytest.raises(PolicyError):
            policy.place_write(request(), THREE_TIERS)


class TestCustomPolicyRegistration:
    def test_user_policy_plugs_in(self):
        from repro.core.policy import Policy, register_policy

        name = "test-custom-policy"

        @register_policy(name)
        class EveryOtherPolicy(Policy):
            def __init__(self):
                self.flip = False

            def place_write(self, request, tiers):
                self.flip = not self.flip
                return tiers[0].tier_id if self.flip else tiers[-1].tier_id

        policy = make_policy(name)
        assert policy.place_write(request(), THREE_TIERS) == 0
        assert policy.place_write(request(), THREE_TIERS) == 2

    def test_duplicate_registration_rejected(self):
        from repro.core.policy import Policy, register_policy

        with pytest.raises(PolicyError):

            @register_policy("lru")
            class Clash(Policy):
                def place_write(self, request, tiers):
                    return 0
