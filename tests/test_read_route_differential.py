"""Differential tests: MOST read routing and the dirty-block gauge.

``reference_replica_runs`` and ``reference_route_reads`` keep the earlier
read routing verbatim in behaviour: every read ranked each candidate tier
through a ``route_key`` closure, sorted the mirror tiers, and built a cut
set for every BLT run before it knew whether one clean mirror covered the
run.  Hypothesis drives a real stack through sequences that mix writes
(which mark mirrors stale), mirror sync (whole files and single ranges),
``add_mirror``/``drop_mirror``, migrations, hole punches, crash-style
invalidation and SUSPECT/OFFLINE/recover transitions, and after every
step compares, for several windows of every file, the routed runs and the
``reads_from_mirror``/``reads_degraded_mirror`` counts of the current
:meth:`MirrorEngine.route_reads` against the reference.

The SCM cache keeps its dirty-block total as a count; a second property
test checks it against the sum of the per-file interval sets after every
cache operation.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blt import BltRun, ReplicaSet, replica_runs
from repro.core.cache import ScmCacheManager
from repro.core.health import HealthState
from repro.core.intervals import intersect_runs
from repro.core.policy import MigrationOrder
from repro.devices.pm import PersistentMemoryDevice
from repro.errors import CrashTriggered, ReproError
from repro.fs.nova.fs import NovaFileSystem
from repro.sim.clock import SimClock
from repro.sim.stats import CounterSet
from repro.stack import build_stack

BS = 4096
MIB = 1024 * 1024
FILES = 3
FILE_BLOCKS = 24
ROUTE_COUNTERS = ("reads_from_mirror", "reads_degraded_mirror")


# -- the earlier routing, verbatim in behaviour ---------------------------------


def reference_replica_runs(runs: Iterable[BltRun], replicas: Optional[ReplicaSet]):
    mirror_tiers = replicas.tiers() if replicas is not None else ()
    for run_start, run_len, tier in runs:
        if tier is None or replicas is None:
            yield run_start, run_len, tier, ()
            continue
        cover: List[Tuple[int, int, int]] = []
        cuts = {run_start, run_start + run_len}
        for mirror in mirror_tiers:
            if mirror == tier:
                continue
            for s, n in intersect_runs(replicas.clean_runs(mirror), [(run_start, run_len)]):
                cover.append((s, s + n, mirror))
                cuts.add(s)
                cuts.add(s + n)
        if not cover:
            yield run_start, run_len, tier, ()
            continue
        if len(cover) == 1 and len(cuts) == 2:
            yield run_start, run_len, tier, (cover[0][2],)
            continue
        pts = sorted(cuts)
        pending = None
        for a, b in zip(pts, pts[1:]):
            mirrors = tuple(sorted(m for s, e, m in cover if s <= a and b <= e))
            if pending is not None and pending[2] == mirrors and pending[1] == a:
                pending = (pending[0], b, mirrors)
            else:
                if pending is not None:
                    yield pending[0], pending[1] - pending[0], tier, pending[2]
                pending = (a, b, mirrors)
        if pending is not None:
            yield pending[0], pending[1] - pending[0], tier, pending[2]


def reference_route_reads(registry, stats: CounterSet, replicas, runs):
    def route_key(tier_id: int) -> Tuple[int, int]:
        tier = registry.get(tier_id)
        if tier.health.is_offline:
            hclass = 2
        elif tier.health.state is HealthState.SUSPECT:
            hclass = 1
        else:
            hclass = 0
        return (hclass, tier.rank)

    routed: List[Tuple[int, int, Optional[int]]] = []
    for start, n, tid, mirrors in reference_replica_runs(runs, replicas):
        chosen = tid
        if tid is not None and mirrors:
            live = [m for m in mirrors if registry.maybe_get(m)]
            if live:
                chosen = min([tid] + live, key=route_key)
                if chosen != tid:
                    stats.add("reads_from_mirror")
                    if route_key(tid)[0] > 0:
                        stats.add("reads_degraded_mirror")
        if routed and routed[-1][2] == chosen and routed[-1][0] + routed[-1][1] == start:
            routed[-1] = (routed[-1][0], routed[-1][1] + n, chosen)
        else:
            routed.append((start, n, chosen))
    return routed


# -- the sequences ----------------------------------------------------------------

tier_ix = st.integers(0, 2)
block = st.integers(0, FILE_BLOCKS - 1)
span = st.integers(1, 10)
file_ix = st.integers(0, FILES - 1)

route_op = st.one_of(
    st.tuples(st.just("write"), file_ix, block, span),
    st.tuples(st.just("add_mirror"), file_ix, tier_ix),
    st.tuples(st.just("drop_mirror"), file_ix, tier_ix),
    st.tuples(st.just("sync"), file_ix),
    st.tuples(st.just("sync_range"), file_ix, tier_ix, block, span),
    st.tuples(st.just("migrate"), file_ix, block, span, tier_ix),
    st.tuples(st.just("punch"), file_ix, block, span),
    st.tuples(st.just("all_stale"), file_ix),
    st.tuples(
        st.just("health"), tier_ix, st.sampled_from(("suspect", "offline", "online"))
    ),
)


def _apply(stack, handles, op) -> None:
    mux = stack.mux
    kind, f = op[0], op[1]
    if kind == "health":
        tier = mux.registry.get(f)
        {"suspect": tier.health.mark_suspect, "offline": tier.health.mark_offline,
         "online": tier.health.mark_online}[op[2]]()
        return
    handle = handles[f]
    inode = mux.ns.get(handle.ino)
    try:
        if kind == "write":
            mux.write(handle, op[2] * BS, bytes([op[2] % 251]) * (op[3] * BS))
        elif kind == "add_mirror":
            mux.mirrors.add_mirror(inode, op[2])
        elif kind == "drop_mirror":
            mux.mirrors.drop_mirror(inode, op[2])
        elif kind == "sync":
            mux.mirrors.sync_file(inode)
        elif kind == "sync_range":
            # a partial sync: leaves mirrors that cover a run only in part
            if inode.replicas is not None:
                inode.replicas.mark_synced(op[2], op[3], op[4])
        elif kind == "migrate":
            _, _, start, count, dst = op
            for s, n, src in list(inode.blt.runs(start, count)):
                if src is not None and src != dst:
                    mux.engine.migrate_now(MigrationOrder(inode.ino, s, n, src, dst))
        elif kind == "punch":
            mux.punch_hole(handle, op[2] * BS, op[3] * BS)
        elif kind == "all_stale":
            if inode.replicas is not None:
                inode.replicas.mark_all_stale(mux.clock.now_ns)
                mux.mirrors.note_stale(inode.ino)
    except ReproError:
        pass  # an offline tier refuses the op; the routing state still counts


def _compare_routing(stack, handles, windows) -> None:
    mux = stack.mux
    ref_stats = CounterSet()
    for handle in handles:
        inode = mux.ns.get(handle.ino)
        for start, count in [(0, FILE_BLOCKS)] + windows:
            runs = list(inode.blt.runs(start, count))
            assert list(replica_runs(runs, inode.replicas)) == list(
                reference_replica_runs(runs, inode.replicas)
            )
            if inode.replicas is None:
                continue
            before = {name: mux.stats.get(name) for name in ROUTE_COUNTERS}
            got = mux.mirrors.route_reads(inode, runs)
            want = reference_route_reads(mux.registry, ref_stats, inode.replicas, runs)
            assert got == want, (start, count, inode.replicas.tiers())
            for name in ROUTE_COUNTERS:
                assert mux.stats.get(name) - before[name] == ref_stats.get(name), name
            ref_stats.reset()


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(route_op, min_size=1, max_size=30),
    windows=st.lists(st.tuples(block, span), min_size=1, max_size=3),
)
def test_route_reads_matches_reference(ops, windows):
    stack = build_stack(capacities={"pm": 16 * MIB, "ssd": 32 * MIB, "hdd": 64 * MIB})
    mux = stack.mux
    handles = []
    for f in range(FILES):
        handle = mux.create(f"/f{f}")
        mux.set_placement(f"/f{f}", f % 3)
        mux.write(handle, 0, bytes([f + 1]) * (FILE_BLOCKS * BS))
        handles.append(handle)
    mux.mirrors.add_mirror(mux.ns.get(handles[0].ino), 0)
    mux.mirrors.sync_file(mux.ns.get(handles[0].ino))
    _compare_routing(stack, handles, windows)
    for op in ops:
        _apply(stack, handles, op)
        _compare_routing(stack, handles, windows)


def test_route_reads_covers_the_interesting_cases():
    """One scripted sequence reaches every branch the property samples:
    a full clean cover, a partial cover by two mirrors, a degraded owner."""
    stack = build_stack(capacities={"pm": 16 * MIB, "ssd": 32 * MIB, "hdd": 64 * MIB})
    mux = stack.mux
    handle = mux.create("/f")
    mux.set_placement("/f", 2)
    mux.write(handle, 0, bytes(16 * BS))
    inode = mux.ns.get(handle.ino)
    for tier in (0, 1):
        mux.mirrors.add_mirror(inode, tier)
    inode.replicas.mark_synced(0, 0, 6)
    inode.replicas.mark_synced(1, 4, 8)
    mux.registry.get(2).health.mark_suspect()
    runs = list(inode.blt.runs(0, 16))
    routed = mux.mirrors.route_reads(inode, runs)
    assert routed == [(0, 6, 0), (6, 6, 1), (12, 4, 2)]
    assert mux.stats.get("reads_from_mirror") == 3
    assert mux.stats.get("reads_degraded_mirror") == 3
    assert routed == reference_route_reads(mux.registry, CounterSet(), inode.replicas, runs)


# -- the dirty-block count --------------------------------------------------------

cache_op = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 2), st.integers(0, 30), st.integers(1, 6)),
    st.tuples(st.just("write_hit"), st.integers(0, 2), st.integers(0, 30)),
    st.tuples(st.just("mark_clean"), st.integers(0, 2), st.integers(0, 30), st.integers(1, 8)),
    st.tuples(st.just("invalidate"), st.integers(0, 2), st.integers(0, 30)),
    st.tuples(st.just("invalidate_range"), st.integers(0, 2), st.integers(0, 30), st.integers(1, 8)),
    st.tuples(st.just("invalidate_file"), st.integers(0, 2)),
    st.tuples(st.just("destage_mode"), st.sampled_from(("accept", "refuse", "fail"))),
)


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(cache_op, min_size=1, max_size=60))
def test_dirty_block_count_is_the_sum_of_the_interval_sets(ops):
    clock = SimClock()
    pm = PersistentMemoryDevice("pm", 16 * MIB, clock)
    cache = ScmCacheManager(clock, NovaFileSystem("nova", pm, clock), 24, BS, write_back=True)
    mode = ["accept"]

    def destage(ino, runs):
        if mode[0] == "fail":
            raise ReproError("tier gone")
        if mode[0] == "accept":
            for fb, count in runs:
                cache.mark_clean(ino, fb, count)

    cache.destage_fn = destage
    for op in ops:
        kind = op[0]
        if kind == "put":
            cache.put_many(op[1], op[2], bytes(op[3] * BS))
        elif kind == "write_hit":
            cache.write_hit(op[1], op[2], b"x" * 100, 7)
        elif kind == "mark_clean":
            cache.mark_clean(op[1], op[2], op[3])
        elif kind == "invalidate":
            cache.invalidate(op[1], op[2])
        elif kind == "invalidate_range":
            cache.invalidate_range(op[1], op[2], op[3])
        elif kind == "invalidate_file":
            cache.invalidate_file(op[1])
        else:
            mode[0] = op[1]
        assert cache.dirty_block_count == sum(
            n for ino in cache.dirty_files() for _, n in cache.dirty_runs(ino)
        )
        cache.check_invariants()


def test_dirty_block_count_survives_a_crashing_destage():
    clock = SimClock()
    pm = PersistentMemoryDevice("pm", 16 * MIB, clock)
    cache = ScmCacheManager(clock, NovaFileSystem("nova", pm, clock), 4, BS, write_back=True)
    cache.put_many(1, 0, bytes(4 * BS))
    for fb in range(4):
        cache.write_hit(1, fb, b"y", 0)
    assert cache.dirty_block_count == 4

    def crash(ino, runs):
        raise CrashTriggered("power loss")

    cache.destage_fn = crash
    try:
        cache.put_many(2, 0, bytes(BS))
    except CrashTriggered:
        pass
    assert cache.dirty_block_count == sum(
        n for ino in cache.dirty_files() for _, n in cache.dirty_runs(ino)
    )
