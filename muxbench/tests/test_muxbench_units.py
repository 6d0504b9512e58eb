"""Generator, percentile, tracer and shadow self-tests (no stack built)."""

import pytest

from muxbench import gen, stats
from muxbench.shadow import BLOCK, ContentMismatch, Shadow
from muxbench.tracer import Tracer
from muxbench.workloads import WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_plan_is_a_pure_function_of_the_seed(workload):
    ops = workload.phase_ops(10, smoke=True)
    first = workload.plan(workload, 7, ops, True)
    again = workload.plan(workload, 7, ops, True)
    other = workload.plan(workload, 8, ops, True)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    assert [len(p.ops) for p in first.phases] == ops


def test_zipf_plan_hash_is_pinned():
    # the generator is part of the yardstick: changing what a seed means
    # invalidates every recorded simulated number
    plan = gen.zipf_read_cold(
        1, files=8, file_blocks=64, io_blocks=4, warm_ops=10,
        phases=[("lo", 100.0, 20), ("mid", 200.0, 30)],
    )
    assert plan.digest() == PINNED_ZIPF_DIGEST


PINNED_ZIPF_DIGEST = (
    "cb0ec0d03026ae81c7b3aef244d5b3bc80aa662cd8154e7a0126135ddaab6e47"
)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 0.5) == 50
    assert stats.nearest_rank(values, 0.99) == 99
    assert stats.nearest_rank(values, 1.0) == 100
    assert stats.nearest_rank([5], 0.999) == 5


def test_ten_samples_beyond_rule():
    assert stats.supported(1000, 0.99)  # exactly ten beyond
    assert not stats.supported(999, 0.99)
    assert not stats.supported(9999, 0.999)
    assert stats.supported(10000, 0.999)
    values = list(range(200))
    value, used = stats.tail(values, 0.99)  # only 2 beyond p99
    assert used == pytest.approx(0.95) and value == values[189]
    assert stats.tail(values, 0.5) == (values[99], 0.5)
    assert stats.tail([], 0.5) == (None, None)
    assert stats.tail([3, 4], 0.99) == (4, None)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([4.0] * 10) == 0.0
    assert stats.max_rel_diff([100.0, 110.0]) == pytest.approx(0.1)


class FakeClock:
    def __init__(self):
        self.now_ns = 0
        self.in_background = False


def test_tracer_self_time_on_a_synthetic_nest():
    """root(100) -> a(40) -> b(10), then c(20): self times 40/30/10/20."""
    clock = FakeClock()
    host = {"t": 0}

    def now_ns():
        return host["t"]

    tracer = Tracer(clock, now_ns)

    class Layered:
        def work(self, host_ns, sim_ns, children=()):
            for child, args in children:
                child(*args)
            host["t"] += host_ns
            clock.now_ns += sim_ns

    root, a, b, c = Layered(), Layered(), Layered(), Layered()
    tracer.wrap(root, ("work",), "vfs")
    tracer.wrap(a, ("work",), "core.mux")
    tracer.wrap(b, ("work",), "core.cache")
    tracer.wrap(c, ("work",), "fs.ext4")
    tracer.wrap(c, ("vanished",), "fs.ext4")
    assert tracer.missing == ["fs.ext4:vanished"]

    tracer.set_op(3)
    root.work(40, 4, [(a.work, (30, 3, [(b.work, (10, 1))])), (c.work, (20, 2))])
    totals = tracer.layer_totals()
    assert totals["vfs"].host_self_ns == 40
    assert totals["core.mux"].host_self_ns == 30
    assert totals["core.cache"].host_self_ns == 10
    assert totals["fs.ext4"].host_self_ns == 20
    assert [totals[k].sim_self_ns for k in ("vfs", "core.mux", "core.cache", "fs.ext4")] == [4, 3, 1, 2]
    # self times are never negative and sum to the root's duration
    assert all(t.host_self_ns >= 0 and t.sim_self_ns >= 0 for t in totals.values())
    assert sum(t.host_self_ns for t in totals.values()) == 100
    assert sum(t.sim_self_ns for t in totals.values()) == 10
    assert tracer.sim_clamped == 0
    by_id = {s[0]: s for s in tracer.spans}
    assert [by_id[i][1] for i in range(4)] == [-1, 0, 1, 0]  # parents
    assert {s[6] for s in tracer.spans} == {3}  # op id
    tracer.uninstall()
    root.work(1, 1)
    assert totals["vfs"].calls == 1


def test_tracer_leaves_background_frames_out_of_the_simulated_account():
    clock = FakeClock()
    host = {"t": 0}
    tracer = Tracer(clock, lambda: host["t"])

    class Mover:
        def copy(self):
            host["t"] += 5
            clock.now_ns += 1000

    mover = Mover()
    tracer.wrap(mover, ("copy",), "core.migration")
    clock.in_background = True
    mover.copy()
    totals = tracer.layer_totals()["core.migration"]
    assert (totals.calls, totals.host_self_ns, totals.sim_self_ns) == (1, 5, 0)


def test_tracer_parallel_child_frames_do_not_go_negative():
    """Two children overlapping on other frames cover the union, not the sum."""
    clock = FakeClock()
    tracer = Tracer(clock, lambda: 0)

    class Child:
        def io(self, start, end):
            clock.now_ns = start  # a frame pushed at the parent's cursor
            clock.now_ns = end

    class Parent:
        def split(self):
            clock.now_ns = 10
            child.io(10, 110)
            child.io(10, 90)
            clock.now_ns = 115  # advance_to(max(completions)) + own cost

    child, parent = Child(), Parent()
    tracer.wrap(child, ("io",), "devices.hdd")
    tracer.wrap(parent, ("split",), "core.mux")
    parent.split()
    totals = tracer.layer_totals()
    assert totals["core.mux"].sim_self_ns == 115 - 100
    assert tracer.sim_clamped == 0


def test_corrupted_read_trips_the_shadow_check():
    shadow = Shadow()
    shadow.add(4)
    data = shadow.payload(4, 0, 3)
    assert len(data) == 3 * BLOCK and shadow.size(4) == 3 * BLOCK
    versions = shadow.versions(4, 0, 3)
    shadow.check(4, 0, versions, data)
    flipped = bytearray(data)
    flipped[BLOCK + 100] ^= 0x01
    with pytest.raises(ContentMismatch):
        shadow.check(4, 0, versions, bytes(flipped))
    # a stale block (previous version) and a block of another file differ too
    stale = data
    fresh = shadow.payload(4, 1, 1)
    with pytest.raises(ContentMismatch):
        shadow.check(4, 0, shadow.versions(4, 0, 3), stale)
    other = Shadow()
    other.add(5)
    with pytest.raises(ContentMismatch):
        shadow.check(4, 1, shadow.versions(4, 1, 1), other.payload(5, 1, 1))
    shadow.check(4, 1, shadow.versions(4, 1, 1), fresh)
    # a never-written block must read as zeros
    shadow.add(6)
    shadow.payload(6, 2, 1)
    with pytest.raises(ContentMismatch):
        shadow.check(6, 0, shadow.versions(6, 0, 1), b"\x01" * BLOCK)
    shadow.check(6, 0, shadow.versions(6, 0, 1), bytes(BLOCK))
