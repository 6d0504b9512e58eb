"""Coherence of the control plane's incremental state with the whole state.

Two pieces of Mux state are maintained incrementally for speed: the
mirror engine's set of files that may need a sync, and the per-file
views the Policy Runner plans from.  Both must be indistinguishable from
recomputing them from scratch:

* a scripted MOST scenario — placed and absorbed writes, mirror grants
  and drops, rename, unlink, a crash, a tier going offline — records
  every mirror-sync media write ``(ino, tier, first block, blocks,
  simulated ns)`` and the engine's counters; the transcript in
  ``tests/data/mirror_sync_transcript.json`` was recorded from the
  full-scan engine, re-recorded when the device timeline began to fill
  gaps (the same syncs of the same blocks, each landing earlier), and
  again when SCM cache fills moved behind the read and
  ``deadline_promotions`` began to count only a deadline that overrode
  the load gate (the same syncs of the same blocks; 10 promotions → 1),
  and must replay exactly (``python tests/test_control_plane_coherence.py``
  prints it);
* ``file_views()`` must equal a freshly built list after every operation
  that changes a block lookup table, on both BLT implementations.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.blt import ByteArrayBlt, ExtentBlt
from repro.core.policy import FileView, MigrationOrder
from repro.stack import build_stack
from repro.tools import fsck

BS = 4096
MIB = 1024 * 1024
TRANSCRIPT = Path(__file__).parent / "data" / "mirror_sync_transcript.json"
COUNTERS = ("syncs", "blocks_synced", "defer_ticks", "deadline_promotions", "sync_skipped_offline")


def pattern(size: int, salt: int) -> bytes:
    return bytes((i * 7 + salt) % 251 for i in range(size))


def _stack(**kwargs):
    return build_stack(
        capacities={"pm": 16 * MIB, "ssd": 32 * MIB, "hdd": 64 * MIB}, **kwargs
    )


def mirror_sync_transcript() -> dict:
    """Run the scripted scenario; returns the sync transcript."""
    stack = _stack(cache_write_back=True)
    mux = stack.mux
    pm, ssd, hdd = (stack.tier_ids[n] for n in ("pm", "ssd", "hdd"))
    events: list = []
    media_write = mux.mirrors._media_write

    def record(inode, tier_id, offset, data):
        events.append(["sync", inode.ino, tier_id, offset // BS, len(data) // BS, mux.clock.now_ns])
        media_write(inode, tier_id, offset, data)

    mux.mirrors._media_write = record
    handles = {}

    def tick(budget=None):
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(mux.mirrors, "MAX_SYNC_BLOCKS_PER_TICK", budget)
            moved = mux.mirrors.tick()
        events.append(["tick", moved, mux.mirrors.stale_backlog()])
        if not mux.registry.any_unhealthy():  # offline tiers are findings
            assert fsck.check_mux(mux, deep=False) == []

    mux.mkdir("/d")
    for i in range(6):
        path = f"/d/f{i}"
        handles[path] = mux.create(path)
        mux.set_placement(path, hdd)
        mux.write(handles[path], 0, pattern(24 * BS, i))
    for path, tiers in (
        ("/d/f0", [pm]), ("/d/f1", [pm, ssd]), ("/d/f2", [pm, ssd]),
        ("/d/f3", [pm]), ("/d/f4", [ssd]),
    ):
        for tier in tiers:
            mux.mirrors.add_mirror(mux.ns.resolve(path), tier)
    for _ in range(3):
        tick()
    tick(8)

    def rewrite(path, block, blocks, salt):
        mux.write(handles[path], block * BS, pattern(blocks * BS, salt))

    # placed writes racing the sync, reads pulling blocks into the cache
    for step in range(6):
        rewrite(f"/d/f{step % 5}", (step * 5) % 20, 3, 40 + step)
        mux.read(handles[f"/d/f{(step + 2) % 5}"], 0, 16 * BS)
        tick()
    # absorbed writes: the touched blocks are cache-resident now
    for step in range(4):
        path = f"/d/f{(step + 2) % 5}"
        rewrite(path, step, 1, 90 + step)
        tick(16)
    mux.mirrors.drop_mirror(mux.ns.resolve("/d/f2"), ssd)
    mux.rename("/d/f1", "/d/g1")
    handles["/d/g1"] = handles.pop("/d/f1")
    rewrite("/d/g1", 2, 4, 120)
    tick()
    mux.close(handles.pop("/d/f3"))
    mux.unlink("/d/f3")
    tick()
    # a tier goes offline with stale mirrors on it, then comes back
    rewrite("/d/f4", 0, 8, 130)
    rewrite("/d/g1", 10, 4, 131)
    mux.mark_tier_offline(ssd)
    for _ in range(3):
        tick()
    mux.mark_tier_online(ssd)
    tick()
    # crash: every mirror interval must re-prove itself
    rewrite("/d/f0", 12, 6, 140)
    mux.crash()
    mux.recover()
    for path in list(handles):
        handles[path] = mux.open(path)
    for _ in range(4):
        tick()
    for step in range(3):
        rewrite("/d/f0", step * 7, 2, 150 + step)
        rewrite("/d/f4", step * 5, 2, 160 + step)
        tick(12)
    events.append(["drain", mux.mirrors.drain(), mux.mirrors.stale_backlog()])
    return {
        "events": events,
        "counters": {name: mux.mirrors.stats.get(name) for name in COUNTERS},
        "now_ns": mux.clock.now_ns,
    }


def test_mirror_sync_transcript_is_unchanged():
    got = mirror_sync_transcript()
    want = json.loads(TRANSCRIPT.read_text())
    assert got["counters"] == want["counters"]
    assert got["events"] == want["events"]
    assert got["now_ns"] == want["now_ns"]


def test_transcript_exercises_every_counter():
    counters = json.loads(TRANSCRIPT.read_text())["counters"]
    assert all(counters[name] > 0 for name in COUNTERS), counters


# ---------------------------------------------------------------------------
# file_views coherence
# ---------------------------------------------------------------------------


def fresh_views(mux):
    """The views as built from scratch, one full BLT walk per file."""
    views = []
    for inode in mux.ns.files():
        end = inode.blt.end_block()
        views.append(
            FileView(
                ino=inode.ino,
                path=inode.rel_path,
                size=inode.size,
                blocks_by_tier={t: inode.blt.blocks_on(t) for t in inode.blt.tiers_used()},
                runs=list(inode.blt.runs(0, end)) if end else [],
            )
        )
    return views


def _as_plain(views):
    return [
        (v.ino, v.path, v.size, dict(v.blocks_by_tier), [tuple(r) for r in v.runs])
        for v in views
    ]


@pytest.mark.parametrize("blt_factory", [ExtentBlt, ByteArrayBlt])
def test_file_views_track_every_blt_change(blt_factory):
    stack = _stack(cache_write_back=True, blt_factory=blt_factory)
    mux = stack.mux
    pm, ssd, hdd = (stack.tier_ids[n] for n in ("pm", "ssd", "hdd"))
    handles = {}

    def check(what):
        assert _as_plain(mux.file_views()) == _as_plain(fresh_views(mux)), what

    mux.mkdir("/d")
    for i in range(4):
        path = f"/d/f{i}"
        handles[path] = mux.create(path)
        mux.set_placement(path, hdd if i % 2 else None)
        mux.write(handles[path], 0, pattern(12 * BS, i))
    check("placed writes")
    mux.file_views()  # a cached round, then change things under it
    mux.write(handles["/d/f1"], 20 * BS, pattern(2 * BS, 9))
    check("extending placed write")
    mux.read(handles["/d/f1"], 0, 8 * BS)
    mux.write(handles["/d/f1"], BS, pattern(BS, 10))
    assert mux.stats.get("writes_absorbed") == 1
    check("absorbed write")
    mux.truncate(handles["/d/f0"], 5 * BS + 7)
    check("truncate")
    mux.truncate(handles["/d/f0"], 9 * BS)
    check("extending truncate")
    mux.punch_hole(handles["/d/f2"], 2 * BS, 3 * BS)
    check("punch")
    inode = mux.ns.resolve("/d/f3")
    mux.engine.migrate_now(MigrationOrder(inode.ino, 0, 6, hdd, ssd))
    check("OCC commit")
    mux.evacuate(ssd)
    check("evacuate")
    mux.rename("/d/f2", "/d/g2")
    handles["/d/g2"] = handles.pop("/d/f2")
    check("rename")
    mux.rename("/d/f3", "/d/g2")  # replaces g2
    handles.pop("/d/g2")
    check("rename over a file")
    mux.unlink("/d/f1")
    handles.pop("/d/f1")
    check("unlink")
    mux.write(handles["/d/f0"], 3 * BS, pattern(4 * BS, 11))
    mux.crash()
    mux.recover()
    check("crash/recover")



def test_unchanged_views_are_shared_and_immutable():
    stack = _stack()
    mux = stack.mux
    handles = [mux.create(f"/f{i}") for i in range(3)]
    for i, handle in enumerate(handles):
        mux.write(handle, 0, pattern(4 * BS, i))
    first = mux.file_views()
    mux.write(handles[1], 8 * BS, pattern(BS, 7))
    second = mux.file_views()
    assert second[0] is first[0] and second[2] is first[2]
    assert second[1] is not first[1] and len(second[1].runs) > len(first[1].runs)
    view = second[0]
    assert isinstance(view.runs, tuple)
    with pytest.raises(AttributeError):
        view.runs = ()
    with pytest.raises(TypeError):
        view.blocks_by_tier[0] = 1
    # a view built from caller lists is frozen the same way
    built = FileView(ino=9, path="/x", size=0, blocks_by_tier={1: 2}, runs=[(0, 2, 1)])
    assert built.runs == ((0, 2, 1),) and dict(built.blocks_by_tier) == {1: 2}


# ---------------------------------------------------------------------------
# the mirror work set
# ---------------------------------------------------------------------------


def test_fsck_flags_a_stale_file_missing_from_the_work_set():
    stack = _stack(enable_cache=False)
    mux = stack.mux
    handle = mux.create("/f")
    mux.set_placement("/f", stack.tier_ids["hdd"])
    mux.write(handle, 0, pattern(8 * BS, 1))
    inode = mux.ns.resolve("/f")
    pm = stack.tier_ids["pm"]
    mux.mirrors.add_mirror(inode, pm)
    mux.mirrors.sync_file(inode)
    assert mux.mirrors.tick() == 0  # found clean: leaves the work set
    assert fsck.check_mux(mux, deep=False) == []
    # staleness that bypasses note_stale is exactly what the check catches
    inode.replicas.mark_stale(pm, 0, 2, mux.clock.now_ns)
    problems = fsck.check_mux(mux, deep=False)
    assert len(problems) == 1 and "work set" in problems[0]
    mux.mirrors.note_stale(inode.ino)
    assert fsck.check_mux(mux, deep=False) == []
    assert mux.mirrors.tick() == 2

if __name__ == "__main__":
    print(json.dumps(mirror_sync_transcript()))
