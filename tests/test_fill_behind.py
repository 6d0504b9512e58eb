"""The SCM cache's read-miss fill runs behind the read.

A miss returns when the tier has answered; the fill lands later, on
background time.  A hit or an absorbed write on a block whose fill has
not landed waits until it lands, and no longer; the map of fills in
flight stays bounded.

What the cache holds must not depend on when the fill lands.  A seeded stream of reads, writes and fsyncs runs over four files pinned
to the HDD of a pm+hdd stack whose SCM cache holds far fewer blocks than
the files, once read-through and once write-back.  After every op the
transcript records the bytes a read returned, the cache's
``hit``/``miss``/``fill``/``evict``/``refused`` counters, the cached
``(ino, block)`` keys and every file's dirty runs.  Simulated time is not
recorded: it is the one thing a change to when a fill runs may move.

The first digests were taken with the fill on the reader's clock and
still held after it moved to background time; they were re-recorded
once when a full cache began to refuse a block's first miss, which
changes what the cache holds.  ``python tests/test_fill_behind.py``
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
        "sha256": "c9740ebc6490eec9218851e15fecd6c43209b08890d4d6a39242f32b4aee13fb",
        "counters": {"hit": 579, "miss": 654, "fill": 446, "evict": 78, "refused": 208, "write_hit": 0, "destaged_blocks": 0},
        "cached_blocks": 124,
    },
    (False, 2): {
        "sha256": "91fd5eebe7b129304ffdcf3c943890f640621031a79619304d568e1d70f25a0b",
        "counters": {"hit": 556, "miss": 722, "fill": 486, "evict": 106, "refused": 236, "write_hit": 0, "destaged_blocks": 0},
        "cached_blocks": 98,
    },
    (True, 1): {
        "sha256": "b14940743ce81f00bf50ffeba464c22c0ed4fac7b0e1d18a017bd56c2b1ea4cf",
        "counters": {"hit": 621, "miss": 612, "fill": 379, "evict": 100, "refused": 233, "write_hit": 84, "destaged_blocks": 82},
        "cached_blocks": 121,
    },
    (True, 2): {
        "sha256": "98359ef5039abe9b117a4d97b2e172f46bb9974fd2107f02be4257427f1d9547",
        "counters": {"hit": 551, "miss": 727, "fill": 471, "evict": 128, "refused": 256, "write_hit": 57, "destaged_blocks": 55},
        "cached_blocks": 107,
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
                [cache.stats.get(k) for k in ("hit", "miss", "fill", "evict", "refused")],
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
            for k in (
                "hit", "miss", "fill", "evict", "refused", "write_hit", "destaged_blocks"
            )
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
    # a small cache: the first read fills it and makes the rest of its
    # blocks ghosts; the second read's hits wait out their fills, and its
    # fill admits the ghosts, evicting the first half and their entries
    stack, handle = hdd_file(blocks=256, pm_mib=2)
    cache = stack.mux.cache
    for _ in range(2):
        stack.mux.read(handle, 0, 2 * cache.capacity_blocks * BS)
    assert cache.stats.get("refused") == cache.capacity_blocks
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
