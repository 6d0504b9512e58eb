"""Open-loop multi-tenant traffic engine: schedules, tails, QoS, goldens."""

import pytest

from repro.bench.multi_tenant import (
    TenantSpec,
    generate_schedule,
    run_multi_tenant,
)
from repro.core.qos import IoClass
from repro.errors import InvalidArgument
from repro.stack import build_stack

KIB = 1024
MS = 1_000_000


def _specs():
    return [
        TenantSpec("a", mean_interarrival_ns=20_000, files=4, read_fraction=0.9),
        TenantSpec("b", mean_interarrival_ns=30_000, files=2, read_fraction=0.5),
    ]


class TestSchedule:
    def test_deterministic_for_seed(self):
        one = generate_schedule(_specs(), duration_ns=2 * MS, seed=7)
        two = generate_schedule(_specs(), duration_ns=2 * MS, seed=7)
        assert one == two
        other = generate_schedule(_specs(), duration_ns=2 * MS, seed=8)
        assert one != other

    def test_sorted_and_open_loop(self):
        events = generate_schedule(_specs(), duration_ns=2 * MS, seed=7)
        assert events
        keys = [(e[0], e[1], e[2]) for e in events]
        assert keys == sorted(keys)
        # open loop: every arrival is fixed before execution, inside horizon
        assert all(0 < e[0] < 2 * MS for e in events)

    def test_zipf_skews_toward_hot_files(self):
        spec = TenantSpec("z", mean_interarrival_ns=1_000, files=8, zipf_alpha=1.2)
        events = generate_schedule([spec], duration_ns=2 * MS, seed=3)
        counts = [0] * spec.files
        for e in events:
            counts[e[4]] += 1
        # rank 0 is the hot file; it must dominate the coldest rank
        assert counts[0] > 3 * max(1, counts[-1])

    def test_bursty_ties_share_one_arrival(self):
        spec = TenantSpec(
            "burst", mean_interarrival_ns=10_000, arrival="bursty", burst_size=4
        )
        events = generate_schedule([spec], duration_ns=2 * MS, seed=5)
        arrivals = [e[0] for e in events]
        # whole bursts land at one instant: 4 ops per distinct arrival
        assert len(set(arrivals)) * spec.burst_size == len(arrivals)

    def test_spec_validation(self):
        with pytest.raises(InvalidArgument):
            TenantSpec("bad", mean_interarrival_ns=0)
        with pytest.raises(InvalidArgument):
            TenantSpec("bad", mean_interarrival_ns=1, arrival="sawtooth")
        with pytest.raises(InvalidArgument):
            TenantSpec("bad", mean_interarrival_ns=1, read_fraction=1.5)
        with pytest.raises(InvalidArgument):
            TenantSpec("bad", mean_interarrival_ns=1, io_bytes=8 * KIB, file_bytes=KIB)


class TestEngine:
    def test_every_offered_op_completes(self):
        stack = build_stack(enable_cache=False)
        res = run_multi_tenant(stack, _specs(), duration_ns=1 * MS, ring_depth=4)
        assert res.offered_ops > 0
        assert res.completed_ops == res.offered_ops
        for tenant in res.tenants.values():
            assert tenant.errors == 0
            assert tenant.ops == tenant.submitted

    def test_run_is_deterministic(self):
        def one_run():
            stack = build_stack(enable_cache=False)
            res = run_multi_tenant(stack, _specs(), duration_ns=1 * MS, ring_depth=4)
            return res.percentiles_ns("read"), res.percentiles_ns("write"), stack.clock.now_ns

        assert one_run() == one_run()

    def test_latency_measured_from_intended_arrival(self):
        # saturate one slow tenant: queueing delay must show up in the
        # tail even though each op's service time is roughly constant
        spec = TenantSpec("hot", mean_interarrival_ns=500, files=2, read_fraction=1.0)
        stack = build_stack(enable_cache=False)
        res = run_multi_tenant(stack, [spec], duration_ns=200_000, ring_depth=1)
        p = res.percentiles_ns("read")
        assert p["p99"] > 10 * p["p50"] or p["p99"] > 100_000

    def test_qos_class_registered_and_tagged(self):
        spec = TenantSpec(
            "batch",
            mean_interarrival_ns=50_000,
            read_fraction=0.5,
            qos_class=IoClass("batch", quota_bytes_per_sec=50 * KIB * KIB),
        )
        stack = build_stack(enable_cache=False)
        res = run_multi_tenant(stack, [spec], duration_ns=1 * MS, ring_depth=8)
        assert stack.mux.qos is not None
        assert "batch" in stack.mux.qos.classes()
        assert res.completed_ops == res.offered_ops


class TestAsyncVsSerialized:
    def _tail(self, depth):
        from repro.bench.wallclock import _mt_specs, _mt_stack

        stack = _mt_stack()
        res = run_multi_tenant(
            stack, _mt_specs(1.0), duration_ns=300_000, ring_depth=depth
        )
        return res.percentiles_ns("read")

    def test_async_ring_cuts_p99_3x(self):
        # the PR's acceptance criterion: same offered load, same schedule,
        # >=3x lower read p99 with depth-8 rings than serialized depth-1
        wide = self._tail(depth=8)
        narrow = self._tail(depth=1)
        assert narrow["p99"] >= 3 * wide["p99"]
        assert narrow["p999"] >= 3 * wide["p999"]


class TestWallclockWorkload:
    def test_smoke_profile_shape(self):
        from repro.bench.wallclock import WORKLOADS, _wl_multi_tenant

        assert any(name == "multi_tenant" for name, _ in WORKLOADS)
        result = _wl_multi_tenant(smoke=True)
        fp = result["fingerprint"]
        assert "depth1_now_ns" in fp
        assert "load_1x" in fp["tails"]
        point = fp["tails"]["load_1x"]
        for key in ("read_p50", "read_p99", "read_p999"):
            assert point["async"][key] > 0
            assert point["depth1"][key] > 0
        assert result["events"]["p99_ratio_x"] >= 3.0


class TestFairnessAcceptance:
    """Bound the interference a tenant may suffer from sharing the stack.

    ``fairness_slowdowns`` replays the same open-loop schedule twice per
    tenant — once shared, once with the stack to itself — and the ratio of
    the two tail latencies is the slowdown.  The acceptance bound is
    deliberately loose (4x at the p99): it exists to catch pathological
    starvation regressions, not to pin the exact interference level.
    """

    def test_p99_slowdown_stays_bounded(self):
        from repro.bench.multi_tenant import fairness_slowdowns, slowdown_x

        _, table = fairness_slowdowns(
            lambda: build_stack(), _specs(), duration_ns=2 * MS, ring_depth=8
        )
        assert set(table) == {"a", "b"}
        for tenant, entry in table.items():
            assert entry["isolated_p99_ns"] > 0, tenant
            assert entry["shared_p99_ns"] >= entry["shared_p50_ns"], tenant
            assert 0 < slowdown_x(entry) < 4.0, (tenant, entry)
            assert 0 < entry["shared_p50_ns"] / entry["isolated_p50_ns"] < 4.0, (
                tenant,
                entry,
            )

    def test_isolated_replay_is_deterministic(self):
        from repro.bench.multi_tenant import fairness_slowdowns

        _, one = fairness_slowdowns(
            lambda: build_stack(), _specs(), duration_ns=2 * MS, ring_depth=8
        )
        _, two = fairness_slowdowns(
            lambda: build_stack(), _specs(), duration_ns=2 * MS, ring_depth=8
        )
        assert one == two


class TestMirrorCadence:
    def test_stale_mirrors_converge_between_planning_rounds(self, monkeypatch):
        """Mirror sync rides every op, like in-flight migrations — not the
        planning cadence.  The first ``maintain_async`` round grants the
        mirrors (every block starts stale) and syncs one tick's budget;
        by the time the second round starts, the ops in between must
        have converged the rest."""
        stack = build_stack(tiers=["pm", "hdd"], policy="mirror", enable_cache=False)
        mirrors = stack.mux.mirrors
        plan = stack.mux.maintain_async
        entering = []  # (blocks synced so far, stale backlog) per round

        def spy():
            entering.append((mirrors.stats.get("blocks_synced"), mirrors.stale_backlog()))
            return plan()

        monkeypatch.setattr(stack.mux, "maintain_async", spy)
        spec = TenantSpec(
            "reader",
            mean_interarrival_ns=200_000,
            files=4,
            file_bytes=2 * KIB * KIB,
            io_bytes=16 * KIB,
            read_fraction=1.0,
            zipf_alpha=0.2,
        )
        res = run_multi_tenant(
            stack,
            [spec],
            duration_ns=60 * MS,
            ring_depth=4,
            population_tier="hdd",
            maintain_every=100,
            durable_population=True,
        )
        assert res.offered_ops // 100 == len(entering) == 2
        assert entering[0] == (0, 0)
        assert mirrors.stats.get("mirrors_added") == 4
        synced, backlog = entering[1]
        assert synced > mirrors.MAX_SYNC_BLOCKS_PER_TICK
        assert backlog == 0
