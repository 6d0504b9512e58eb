"""The SCM cache's read-miss fill runs behind the read.

A miss returns when the tier has answered; the fill lands later, on
background time.  A hit or an absorbed write on a block whose fill has
not landed waits until it lands, and no longer; the map of fills in
flight stays bounded.

What the cache holds must not depend on when the fill lands.  A seeded stream of reads, writes and fsyncs runs over four files pinned
to the HDD of a pm+hdd stack whose SCM cache holds far fewer blocks than
the files, once read-through and once write-back.  After every op the
transcript records the bytes a read returned, the cache's
``hit``/``miss``/``fill``/``evict`` counters, the cached ``(ino, block)``
keys and every file's dirty runs.  Simulated time is not recorded: it is
the one thing a change to when a fill runs may move.

The recorded digests were taken with the fill on the reader's clock,
before it moved to background time.  ``python tests/test_fill_behind.py``
prints a fresh recording.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core import calibration as cal
from repro.core.cache import LANDING_PRUNE_AT
from repro.stack import build_stack

BS = 4096
MIB = 1024 * 1024
FILE_BLOCKS = 64

#: (write_back, seed) -> the transcript's SHA-256 and closing counters
RECORDED = {
    (False, 1): {
        "sha256": "946950dec8b083c6b4eecfda699d4c2488e62255814fd538aa67e25cac341c97",
        "counters": {"hit": 579, "miss": 654, "fill": 654, "evict": 285, "write_hit": 0, "destaged_blocks": 0},
        "cached_blocks": 119,
    },
    (False, 2): {
        "sha256": "ff220ca1ed1492f3f457e3a03b8e5c6393bee553b853f51c96515ae9e8a692b5",
        "counters": {"hit": 542, "miss": 736, "fill": 736, "evict": 326, "write_hit": 0, "destaged_blocks": 0},
        "cached_blocks": 96,
    },
    (True, 1): {
        "sha256": "6c2b549df6fb6e64a0c7cfb2ad4b9476662eab1a16889cc18e635e1867817822",
        "counters": {"hit": 592, "miss": 641, "fill": 641, "evict": 373, "write_hit": 100, "destaged_blocks": 95},
        "cached_blocks": 122,
    },
    (True, 2): {
        "sha256": "634fbf97c6f4cf8e3eb51e9c56e344aa4ce75fc0808ccba4f0ceae81f53312a4",
        "counters": {"hit": 543, "miss": 735, "fill": 735, "evict": 424, "write_hit": 114, "destaged_blocks": 114},
        "cached_blocks": 109,
    },
}

def cache_transcript(write_back: bool, seed: int, steps: int = 300) -> dict:
    rng = random.Random(seed)
    stack = build_stack(
        tiers=["pm", "hdd"],
        capacities={"pm": 2 * MIB, "hdd": 64 * MIB},
        cache_write_back=write_back,
    )
    mux = stack.mux
    cache = mux.cache
    handles = []
    for f in range(4):
        path = f"/f{f}"
        handles.append(mux.create(path))
        mux.set_placement(path, stack.tier_ids["hdd"])
        mux.write(handles[-1], 0, bytes([f + 1]) * (FILE_BLOCKS * BS))
        mux.fsync(handles[-1])
    assert cache.capacity_blocks < FILE_BLOCKS * len(handles)
    events: list = []
    for _ in range(steps):
        kind = rng.choices(("read", "write", "fsync"), weights=(6, 3, 1))[0]
        handle = rng.choice(handles)
        offset = rng.randrange(FILE_BLOCKS * BS - BS)
        length = rng.randint(1, 12 * BS)
        if kind == "read":
            data = mux.read(handle, offset, length)
            events.append(["read", handle.ino, offset, hashlib.sha256(data).hexdigest()])
        elif kind == "write":
            mux.write(handle, offset, bytes([rng.randrange(256)]) * length)
            events.append(["write", handle.ino, offset, length])
        else:
            mux.fsync(handle)
            events.append(["fsync", handle.ino])
        events.append(
            [
                [cache.stats.get(k) for k in ("hit", "miss", "fill", "evict")],
                sorted(cache._slots),
                {ino: cache.dirty_runs(ino) for ino in cache.dirty_files()},
            ]
        )
    for handle in handles:
        mux.close(handle)
    return {
        "sha256": hashlib.sha256(json.dumps(events).encode()).hexdigest(),
        "counters": {
            k: cache.stats.get(k)
            for k in ("hit", "miss", "fill", "evict", "write_hit", "destaged_blocks")
        },
        "cached_blocks": cache.cached_blocks,
    }


@pytest.mark.parametrize("write_back,seed", sorted(RECORDED))
def test_cache_contents_match_recording(write_back, seed):
    assert cache_transcript(write_back, seed) == RECORDED[(write_back, seed)]


# -- when a fill lands ---------------------------------------------------------


def hdd_file(write_back: bool = False, blocks: int = 8, pm_mib: int = 16):
    """A pm+hdd stack with the SCM cache and one file of ``blocks`` blocks
    pinned to the HDD, not yet read."""
    stack = build_stack(
        tiers=["pm", "hdd"],
        capacities={"pm": pm_mib * MIB, "hdd": 64 * MIB},
        cache_write_back=write_back,
    )
    mux = stack.mux
    handle = mux.create("/f")
    mux.set_placement("/f", stack.tier_ids["hdd"])
    mux.write(handle, 0, bytes(range(256)) * (blocks * BS // 256))
    mux.fsync(handle)
    return stack, handle


def test_cold_read_returns_before_its_fill_lands():
    stack, handle = hdd_file()
    cache = stack.mux.cache
    stack.mux.read(handle, 0, 2 * BS)
    assert cache.stats.get("fill") == 2
    landed = cache._landing[(handle.ino, 0)]
    assert cache._landing[(handle.ino, 1)] == landed
    assert landed > stack.clock.now_ns


def test_back_to_back_hit_waits_exactly_until_the_fill_lands():
    stack, handle = hdd_file()
    cache, clock = stack.mux.cache, stack.clock
    stack.mux.read(handle, 0, BS)
    landed = cache._landing[(handle.ino, 0)]
    bookkeeping = cal.CACHE_LOOKUP_NS + cal.CACHE_MGLRU_NS
    assert clock.now_ns + bookkeeping < landed
    block = cache.get(handle.ino, 0)
    waited = clock.now_ns
    assert cache.get(handle.ino, 0) == block
    load = clock.now_ns - waited - bookkeeping
    # lookup and MGLRU touch, then the wait, then the DAX load
    assert waited == landed + load
    assert cache.stats.get("hit") == 2


def test_hit_after_the_fill_landed_is_a_plain_hit():
    stack, handle = hdd_file()
    mux, clock = stack.mux, stack.clock
    want = mux.read(handle, 0, 4 * BS)
    clock.advance_to(max(mux.cache._landing.values()))
    durations = []
    for _ in range(2):
        t0 = clock.now_ns
        assert mux.read(handle, 0, 4 * BS) == want
        durations.append(clock.now_ns - t0)
        assert not mux.cache._landing
    assert durations[0] == durations[1]
    assert mux.cache.stats.get("hit") == 8


def test_absorbed_write_waits_for_the_fill():
    stack, handle = hdd_file(write_back=True)
    cache, clock = stack.mux.cache, stack.clock
    stack.mux.read(handle, 0, BS)
    landed = cache._landing[(handle.ino, 0)]
    bookkeeping = cal.CACHE_LOOKUP_NS + cal.CACHE_MGLRU_NS + cal.CACHE_DIRTY_META_NS
    assert clock.now_ns + bookkeeping < landed
    assert cache.write_hit(handle.ino, 0, b"x" * 64, 0)
    waited = clock.now_ns
    assert cache.write_hit(handle.ino, 0, b"y" * 64, 64)
    assert waited == landed + (clock.now_ns - waited - bookkeeping)
    assert cache.get(handle.ino, 0)[:128] == b"x" * 64 + b"y" * 64


def test_eviction_and_invalidation_drop_the_fill_entry():
    stack, handle = hdd_file()
    mux = stack.mux
    mux.read(handle, 0, 4 * BS)
    assert len(mux.cache._landing) == 4
    mux.write(handle, 0, b"z" * BS)  # write-invalidate
    assert (handle.ino, 0) not in mux.cache._landing
    mux.truncate(handle, BS)
    assert not mux.cache._landing
    mux.cache.check_invariants()
    # a small cache: one fill's own evictions, then the next fill's
    stack, handle = hdd_file(blocks=256, pm_mib=2)
    cache = stack.mux.cache
    stack.mux.read(handle, 0, 2 * cache.capacity_blocks * BS)
    assert cache.stats.get("evict") == cache.capacity_blocks
    cache.check_invariants()  # entries only for blocks still cached
    assert len(cache._landing) == cache.capacity_blocks


def test_fills_in_flight_stay_bounded():
    stack, handle = hdd_file(blocks=400)
    mux, clock = stack.mux, stack.clock
    most = 0
    for fb in range(400):
        mux.read(handle, fb * BS, BS)
        clock.advance_ns(1_000_000)  # every fill so far has landed
        most = max(most, len(mux.cache._landing))
    assert mux.cache.stats.get("fill") == 400
    assert most <= LANDING_PRUNE_AT


if __name__ == "__main__":
    for write_back, seed in sorted(RECORDED):
        print((write_back, seed), cache_transcript(write_back, seed))
