"""Characterisation transcripts: the exact decisions of every golden-pinned
policy over one fixed script of synthetic tier states.

Tier-1 otherwise pins policy decisions only through ``wallclock --smoke``;
this makes a refactor of ``core/policies.py`` fail fast under pytest.  The
expected transcripts were recorded at commit 7703bd6 (before the policy
family was flattened onto composition) and must not change with it.

The ``mirror`` transcript was re-recorded when a mirror became a cache
entry.  On the ``full`` tier a mirror shed past ``RECLAIM_UTIL`` is no
longer granted again in the same round, which leaves no mirror for the
``offline`` round to retire.  In the cooldown the mirror of ino 4 is no
longer dropped when the file cools, because PM still has room.
"""

import pytest

from repro.core.health import HealthState
from repro.core.policy import FileView, PlacementRequest, TierState, make_policy
from repro.devices.profile import DeviceKind

KIB = 1024
MIB = 1024 * KIB


def _tier(tier_id, load=0.0, health=HealthState.HEALTHY, free=900 * MIB):
    return TierState(
        tier_id=tier_id,
        name=f"t{tier_id}",
        rank=tier_id,
        kind=DeviceKind.SOLID_STATE,
        free_bytes=free,
        total_bytes=1024 * MIB,
        health=health,
        load=load,
    )


#: three tiers, rank == tier id; each scenario perturbs one of them
SCENARIOS = {
    "healthy": [_tier(0), _tier(1), _tier(2)],
    "loaded": [_tier(0), _tier(1, load=2.0), _tier(2)],  # past spill_load
    "band": [_tier(0), _tier(1, load=0.5), _tier(2)],  # inside the hysteresis
    "suspect": [_tier(0, health=HealthState.SUSPECT), _tier(1), _tier(2)],
    "offline": [_tier(0, health=HealthState.OFFLINE), _tier(1), _tier(2)],
    "full": [_tier(0, free=8 * MIB), _tier(1), _tier(2)],
}

#: (ino, length, synchronous): small, medium, large, large-but-sync
WRITES = [
    (1, 4 * KIB, False),
    (2, 512 * KIB, False),
    (3, 4 * MIB, False),
    (3, 4 * MIB, True),
]

#: ino -> (resident tier, blocks); ino 4 straddles two tiers
RESIDENCE = {1: [(1, 64)], 2: [(2, 128)], 3: [(0, 256)], 4: [(1, 32), (2, 32)]}


def _views():
    views = []
    for ino, placed in RESIDENCE.items():
        runs, start, by_tier = [], 0, {}
        for tier_id, blocks in placed:
            runs.append((start, blocks, tier_id))
            by_tier[tier_id] = blocks
            start += blocks
        views.append(
            FileView(
                ino=ino,
                path=f"/f{ino}",
                size=start * 4096,
                blocks_by_tier=by_tier,
                runs=runs,
            )
        )
    return views


def _place(policy, scenario):
    tiers = SCENARIOS[scenario]
    return [
        policy.place_write(
            PlacementRequest(
                path=f"/f{ino}",
                ino=ino,
                length=length,
                synchronous=sync,
            ),
            tiers,
        )
        for ino, length, sync in WRITES
    ]


def _plan(policy, scenario):
    tiers = SCENARIOS[scenario]
    migrations = [
        (o.ino, o.block_start, o.count, o.src_tier, o.dst_tier, o.reason)
        for o in policy.plan_migrations(tiers, _views())
    ]
    mirrors = [
        (o.ino, o.tier_id, o.action, o.reason)
        for o in policy.plan_mirrors(tiers, _views())
    ]
    return migrations, mirrors


def _touch(policy, ino, kind, times):
    tier_id, blocks = RESIDENCE[ino][0]
    for i in range(times):
        policy.on_access(ino, 0, blocks, tier_id, kind)


def transcript(name):
    """Run the fixed script against a default-constructed ``name`` policy."""
    policy = make_policy(name)
    out = []
    # placement: hysteresis makes the order loaded -> band -> healthy matter
    for scenario in ("healthy", "loaded", "band", "healthy", "suspect", "offline", "full"):
        out.append(("place", scenario, _place(policy, scenario)))
    # heat: ino 1 hot read-mostly, ino 2 write-heavy, ino 3 touched once
    # (cools below the cold threshold after a few rounds), ino 4 hot reads
    _touch(policy, 1, "read", 8)
    _touch(policy, 2, "write", 3)
    _touch(policy, 2, "read", 1)
    _touch(policy, 3, "read", 1)
    _touch(policy, 4, "read", 6)
    for scenario in ("healthy", "loaded", "band", "suspect", "offline", "full", "healthy"):
        out.append(("plan", scenario, *_plan(policy, scenario)))
    policy.forget(1)
    _touch(policy, 4, "read", 6)
    for scenario in ("healthy", "full", "offline"):
        out.append(("plan-after-forget", scenario, *_plan(policy, scenario)))
    out.append(("place-after-forget", "healthy", _place(policy, "healthy")))
    # one more burst on ino 4, then untouched rounds: heat decays until hot
    # files cool; only rounds that order something are listed
    _touch(policy, 4, "read", 4)
    for round_no in range(16):
        migrations, mirrors = _plan(policy, "healthy")
        if migrations or mirrors:
            out.append(("cooldown", round_no, migrations, mirrors))
    for counter in ("pressure_spills", "deferred_orders"):
        router = getattr(policy, "router", policy)
        if hasattr(router, counter):
            out.append((counter, getattr(router, counter)))
    return out


EXPECTED = {}

EXPECTED["lru"] = [('place', 'healthy', [0, 0, 0, 0]), ('place', 'loaded', [0, 0, 0, 0]),
 ('place', 'band', [0, 0, 0, 0]), ('place', 'healthy', [0, 0, 0, 0]),
 ('place', 'suspect', [1, 1, 1, 1]), ('place', 'offline', [1, 1, 1, 1]),
 ('place', 'full', [1, 1, 1, 1]),
 ('plan', 'healthy',
  [(1, 0, 64, 1, 0, 'promote-on-access'), (1, 0, 64, 1, 0, 'promote-on-access'),
   (1, 0, 64, 1, 0, 'promote-on-access'), (1, 0, 64, 1, 0, 'promote-on-access'),
   (1, 0, 64, 1, 0, 'promote-on-access'), (1, 0, 64, 1, 0, 'promote-on-access'),
   (1, 0, 64, 1, 0, 'promote-on-access'), (1, 0, 64, 1, 0, 'promote-on-access'),
   (2, 0, 128, 2, 1, 'promote-on-access'), (4, 0, 64, 1, 0, 'promote-on-access'),
   (4, 0, 64, 1, 0, 'promote-on-access'), (4, 0, 64, 1, 0, 'promote-on-access'),
   (4, 0, 64, 1, 0, 'promote-on-access'), (4, 0, 64, 1, 0, 'promote-on-access'),
   (4, 0, 64, 1, 0, 'promote-on-access')],
  []),
 ('plan', 'loaded', [], []), ('plan', 'band', [], []), ('plan', 'suspect', [], []),
 ('plan', 'offline', [], []),
 ('plan', 'full',
  [(3, 0, 64, 0, 1, 'lru-evict'), (3, 64, 64, 0, 1, 'lru-evict'),
   (3, 128, 64, 0, 1, 'lru-evict'), (3, 192, 64, 0, 1, 'lru-evict')],
  []),
 ('plan', 'healthy', [], []),
 ('plan-after-forget', 'healthy',
  [(4, 0, 64, 1, 0, 'promote-on-access'), (4, 0, 64, 1, 0, 'promote-on-access'),
   (4, 0, 64, 1, 0, 'promote-on-access'), (4, 0, 64, 1, 0, 'promote-on-access'),
   (4, 0, 64, 1, 0, 'promote-on-access'), (4, 0, 64, 1, 0, 'promote-on-access')],
  []),
 ('plan-after-forget', 'full',
  [(3, 0, 64, 0, 1, 'lru-evict'), (3, 64, 64, 0, 1, 'lru-evict'),
   (3, 128, 64, 0, 1, 'lru-evict'), (3, 192, 64, 0, 1, 'lru-evict')],
  []),
 ('plan-after-forget', 'offline', [], []),
 ('place-after-forget', 'healthy', [0, 0, 0, 0]),
 ('cooldown', 0,
  [(4, 0, 64, 1, 0, 'promote-on-access'), (4, 0, 64, 1, 0, 'promote-on-access'),
   (4, 0, 64, 1, 0, 'promote-on-access'), (4, 0, 64, 1, 0, 'promote-on-access')],
  [])]

EXPECTED["tpfs"] = [('place', 'healthy', [0, 1, 2, 0]), ('place', 'loaded', [0, 1, 2, 0]),
 ('place', 'band', [0, 1, 2, 0]), ('place', 'healthy', [0, 1, 2, 0]),
 ('place', 'suspect', [1, 2, 2, 1]), ('place', 'offline', [1, 2, 2, 1]),
 ('place', 'full', [0, 1, 2, 0]), ('plan', 'healthy', [], []),
 ('plan', 'loaded', [], []), ('plan', 'band', [], []), ('plan', 'suspect', [], []),
 ('plan', 'offline', [], []), ('plan', 'full', [], []), ('plan', 'healthy', [], []),
 ('plan-after-forget', 'healthy', [], []), ('plan-after-forget', 'full', [], []),
 ('plan-after-forget', 'offline', [], []),
 ('place-after-forget', 'healthy', [0, 1, 2, 0])]

EXPECTED["hotcold"] = [('place', 'healthy', [0, 0, 0, 0]), ('place', 'loaded', [0, 0, 0, 0]),
 ('place', 'band', [0, 0, 0, 0]), ('place', 'healthy', [0, 0, 0, 0]),
 ('place', 'suspect', [1, 1, 1, 1]), ('place', 'offline', [1, 1, 1, 1]),
 ('place', 'full', [1, 1, 1, 1]),
 ('plan', 'healthy',
  [(1, 0, 64, 1, 0, 'hot'), (2, 0, 128, 2, 0, 'hot'), (4, 0, 32, 1, 0, 'hot'),
   (4, 32, 32, 2, 0, 'hot')],
  []),
 ('plan', 'loaded',
  [(1, 0, 64, 1, 0, 'hot'), (4, 0, 32, 1, 0, 'hot'), (4, 32, 32, 2, 0, 'hot')], []),
 ('plan', 'band', [(1, 0, 64, 1, 0, 'hot')], []), ('plan', 'suspect', [], []),
 ('plan', 'offline', [(3, 0, 256, 0, 2, 'cold')], []),
 ('plan', 'full', [(3, 0, 256, 0, 2, 'cold')], []),
 ('plan', 'healthy', [(3, 0, 256, 0, 2, 'cold')], []),
 ('plan-after-forget', 'healthy',
  [(3, 0, 256, 0, 2, 'cold'), (4, 0, 32, 1, 0, 'hot'), (4, 32, 32, 2, 0, 'hot')], []),
 ('plan-after-forget', 'full',
  [(3, 0, 256, 0, 2, 'cold'), (4, 0, 32, 1, 0, 'hot'), (4, 32, 32, 2, 0, 'hot')], []),
 ('plan-after-forget', 'offline', [(3, 0, 256, 0, 2, 'cold'), (4, 32, 32, 2, 1, 'hot')],
  []),
 ('place-after-forget', 'healthy', [0, 0, 0, 0]),
 ('cooldown', 0,
  [(3, 0, 256, 0, 2, 'cold'), (4, 0, 32, 1, 0, 'hot'), (4, 32, 32, 2, 0, 'hot')], []),
 ('cooldown', 1,
  [(3, 0, 256, 0, 2, 'cold'), (4, 0, 32, 1, 0, 'hot'), (4, 32, 32, 2, 0, 'hot')], []),
 ('cooldown', 2,
  [(3, 0, 256, 0, 2, 'cold'), (4, 0, 32, 1, 0, 'hot'), (4, 32, 32, 2, 0, 'hot')], []),
 ('cooldown', 3, [(3, 0, 256, 0, 2, 'cold')], []),
 ('cooldown', 4, [(3, 0, 256, 0, 2, 'cold')], []),
 ('cooldown', 5, [(3, 0, 256, 0, 2, 'cold')], []),
 ('cooldown', 6, [(3, 0, 256, 0, 2, 'cold')], []),
 ('cooldown', 7, [(3, 0, 256, 0, 2, 'cold')], []),
 ('cooldown', 8, [(3, 0, 256, 0, 2, 'cold')], []),
 ('cooldown', 9, [(3, 0, 256, 0, 2, 'cold')], []),
 ('cooldown', 10, [(3, 0, 256, 0, 2, 'cold')], []),
 ('cooldown', 11, [(3, 0, 256, 0, 2, 'cold')], []),
 ('cooldown', 12, [(3, 0, 256, 0, 2, 'cold')], []),
 ('cooldown', 13, [(3, 0, 256, 0, 2, 'cold'), (4, 0, 32, 1, 2, 'cold')], []),
 ('cooldown', 14, [(3, 0, 256, 0, 2, 'cold'), (4, 0, 32, 1, 2, 'cold')], []),
 ('cooldown', 15, [(3, 0, 256, 0, 2, 'cold'), (4, 0, 32, 1, 2, 'cold')], [])]

EXPECTED["pressure"] = [('place', 'healthy', [0, 1, 2, 0]), ('place', 'loaded', [0, 0, 2, 0]),
 ('place', 'band', [0, 0, 2, 0]), ('place', 'healthy', [0, 1, 2, 0]),
 ('place', 'suspect', [1, 1, 2, 1]), ('place', 'offline', [1, 1, 2, 1]),
 ('place', 'full', [1, 1, 2, 1]),
 ('plan', 'healthy',
  [(1, 0, 64, 1, 0, 'pressure-promote'), (4, 0, 32, 1, 0, 'pressure-promote'),
   (4, 32, 32, 2, 0, 'pressure-promote')],
  []),
 ('plan', 'loaded',
  [(1, 0, 64, 1, 0, 'pressure-promote'), (4, 0, 32, 1, 0, 'pressure-promote'),
   (4, 32, 32, 2, 0, 'pressure-promote')],
  []),
 ('plan', 'band', [(1, 0, 64, 1, 0, 'pressure-promote')], []),
 ('plan', 'suspect', [], []), ('plan', 'offline', [], []),
 ('plan', 'full', [(3, 0, 256, 0, 1, 'pressure-demote')], []),
 ('plan', 'healthy', [], []),
 ('plan-after-forget', 'healthy',
  [(4, 0, 32, 1, 0, 'pressure-promote'), (4, 32, 32, 2, 0, 'pressure-promote')], []),
 ('plan-after-forget', 'full', [(3, 0, 256, 0, 1, 'pressure-demote')], []),
 ('plan-after-forget', 'offline', [(4, 32, 32, 2, 1, 'pressure-promote')], []),
 ('place-after-forget', 'healthy', [0, 1, 2, 0]),
 ('cooldown', 0,
  [(4, 0, 32, 1, 0, 'pressure-promote'), (4, 32, 32, 2, 0, 'pressure-promote')], []),
 ('cooldown', 1,
  [(4, 0, 32, 1, 0, 'pressure-promote'), (4, 32, 32, 2, 0, 'pressure-promote')], []),
 ('cooldown', 2,
  [(4, 0, 32, 1, 0, 'pressure-promote'), (4, 32, 32, 2, 0, 'pressure-promote')], []),
 ('pressure_spills', 2), ('deferred_orders', 2)]

EXPECTED["mirror"] = [('place', 'healthy', [0, 1, 2, 0]), ('place', 'loaded', [0, 0, 2, 0]),
 ('place', 'band', [0, 0, 2, 0]), ('place', 'healthy', [0, 1, 2, 0]),
 ('place', 'suspect', [1, 1, 2, 1]), ('place', 'offline', [1, 1, 2, 1]),
 ('place', 'full', [1, 1, 2, 1]),
 ('plan', 'healthy',
  [(1, 0, 64, 1, 0, 'pressure-promote'), (4, 0, 32, 1, 0, 'pressure-promote'),
   (4, 32, 32, 2, 0, 'pressure-promote')],
  [(1, 0, 'add', 'hot-read-mostly'), (4, 0, 'add', 'hot-read-mostly')]),
 ('plan', 'loaded', [], []), ('plan', 'band', [], []), ('plan', 'suspect', [], []),
 ('plan', 'offline', [], [(1, 0, 'drop', 'tier-gone'), (4, 0, 'drop', 'tier-gone')]),
 ('plan', 'full', [(3, 0, 256, 0, 1, 'pressure-demote')], []),
 ('plan', 'healthy', [], []),
 ('plan-after-forget', 'healthy',
  [(4, 0, 32, 1, 0, 'pressure-promote'), (4, 32, 32, 2, 0, 'pressure-promote')],
  [(4, 0, 'add', 'hot-read-mostly')]),
 ('plan-after-forget', 'full', [(3, 0, 256, 0, 1, 'pressure-demote')],
  [(4, 0, 'drop', 'reclaim')]),
 ('plan-after-forget', 'offline', [(4, 32, 32, 2, 1, 'pressure-promote')], []),
 ('place-after-forget', 'healthy', [0, 1, 2, 0]),
 ('cooldown', 0,
  [(4, 0, 32, 1, 0, 'pressure-promote'), (4, 32, 32, 2, 0, 'pressure-promote')],
  [(4, 0, 'add', 'hot-read-mostly')]),
 ('pressure_spills', 2), ('deferred_orders', 10)]


@pytest.mark.parametrize("name", ["lru", "tpfs", "hotcold", "pressure", "mirror"])
def test_transcript_matches_recording(name):
    assert transcript(name) == EXPECTED[name]


# -- watermark transcripts -------------------------------------------------------
#
# Demotion is planned only for a tier over its high watermark.  Two more
# fixed scripts pin the plans when no tier is over it and when two tiers
# are (the fastest demotes onto a tier that is itself over and demoting).
# Recorded at commit ee8ac4d, before the LRU planner stopped building its
# residence map on rounds where no tier has to demote.

WATERMARK_SCENARIOS = {
    # every tier ~41 % used
    "none-over": [_tier(0, free=600 * MIB), _tier(1, free=600 * MIB), _tier(2, free=600 * MIB)],
    # tiers 0 and 1 at ~96 % and ~94 %, tier 2 nearly empty
    "two-over": [_tier(0, free=40 * MIB), _tier(1, free=60 * MIB), _tier(2, free=1000 * MIB)],
}


def watermark_transcript(name):
    policy = make_policy(name)
    _touch(policy, 3, "write", 2)
    _touch(policy, 1, "read", 3)
    _touch(policy, 4, "read", 2)
    _touch(policy, 2, "write", 1)
    out = []
    for scenario in ("none-over", "two-over", "none-over", "two-over"):
        tiers = WATERMARK_SCENARIOS[scenario]
        migrations = [
            (o.ino, o.block_start, o.count, o.src_tier, o.dst_tier, o.reason)
            for o in policy.plan_migrations(tiers, _views())
        ]
        mirrors = [
            (o.ino, o.tier_id, o.action, o.reason)
            for o in policy.plan_mirrors(tiers, _views())
        ]
        out.append((scenario, migrations, mirrors))
    return out


_LRU_TWO_OVER = [
    (3, 0, 64, 0, 1, 'lru-evict'), (3, 64, 64, 0, 1, 'lru-evict'),
    (3, 128, 64, 0, 1, 'lru-evict'), (3, 192, 64, 0, 1, 'lru-evict'),
    (1, 0, 64, 1, 2, 'lru-evict'),
]
_PRESSURE_TWO_OVER = [
    (3, 0, 256, 0, 1, 'pressure-demote'), (4, 0, 32, 1, 2, 'pressure-demote'),
    (1, 0, 64, 1, 2, 'pressure-demote'),
]
_NOTHING = [('none-over', [], []), ('two-over', [], []), ('none-over', [], []),
            ('two-over', [], [])]

WATERMARK_EXPECTED = {
    "lru": [
        ('none-over',
         [(1, 0, 64, 1, 0, 'promote-on-access'), (1, 0, 64, 1, 0, 'promote-on-access'),
          (1, 0, 64, 1, 0, 'promote-on-access'), (4, 0, 64, 1, 0, 'promote-on-access'),
          (4, 0, 64, 1, 0, 'promote-on-access')],
         []),
        ('two-over', _LRU_TWO_OVER, []),
        ('none-over', [], []),
        ('two-over', _LRU_TWO_OVER, []),
    ],
    "tpfs": _NOTHING,
    "hotcold": _NOTHING,
    "pressure": [
        ('none-over', [], []), ('two-over', _PRESSURE_TWO_OVER, []),
        ('none-over', [], []), ('two-over', _PRESSURE_TWO_OVER, []),
    ],
    "mirror": [
        ('none-over', [], []), ('two-over', _PRESSURE_TWO_OVER, []),
        ('none-over', [], []), ('two-over', _PRESSURE_TWO_OVER, []),
    ],
}


@pytest.mark.parametrize("name", ["lru", "tpfs", "hotcold", "pressure", "mirror"])
def test_watermark_transcript_matches_recording(name):
    assert watermark_transcript(name) == WATERMARK_EXPECTED[name]
