"""Integration tests for the parallel I/O engine.

Covers the three overlap surfaces the engine introduces — sub-requests of
one split op across tiers, requests across a device's channels, and
background work (migration copies) against foreground time — plus the
serial ablation, the pessimistic-lock foreground stall, and fault
latching/retry through overlapped dispatch.
"""

import pytest

from repro.bench.workloads import striped_reads
from repro.core import calibration as cal
from repro.core.health import HealthState
from repro.core.policy import MigrationOrder
from repro.core.scheduler import IoScheduler
from repro.devices.faults import FaultConfig
from repro.errors import TierUnavailable
from repro import stack as stack_module
from repro.stack import build_stack

MIB = 1024 * 1024
BS = 4096


def _stack(parallel: bool, **kwargs):
    return build_stack(
        enable_cache=False, scheduler=IoScheduler(parallel=parallel), **kwargs
    )


def _drop_caches(stack):
    for fs in stack.filesystems.values():
        cache = getattr(fs, "page_cache", None)
        if cache is not None:
            cache.drop_clean()


def _split_file(stack, blocks=64):
    """A file whose second half lives on the ssd tier."""
    mux = stack.mux
    handle = mux.create("/split")
    mux.write(handle, 0, bytes(blocks * BS))
    mux.engine.migrate_now(
        MigrationOrder(
            handle.ino,
            blocks // 2,
            blocks // 2,
            stack.tier_id("pm"),
            stack.tier_id("ssd"),
        )
    )
    return mux, handle, blocks


class TestSplitOpOverlap:
    def test_split_read_completes_at_max_not_sum(self):
        def run(parallel):
            stack = _stack(parallel, tiers=["pm", "ssd"])
            mux, handle, blocks = _split_file(stack)
            _drop_caches(stack)
            t0 = stack.clock.now_ns
            mux.read(handle, 0, blocks * BS)
            return stack.clock.now_ns - t0

        serial = run(False)
        parallel = run(True)
        assert parallel < serial

    def test_parallel_striped_read_at_least_2x_faster(self):
        """The ISSUE acceptance bar: >=2x on a cross-tier striped read."""

        def run(parallel):
            stack = _stack(parallel, tiers=["pm", "ssd"])
            tier_ids = [stack.tier_id(n) for n in ("pm", "ssd")]
            return striped_reads(
                stack, tier_ids, file_bytes=2 * MIB, reads=2
            ).mean_ns

        serial = run(False)
        parallel = run(True)
        assert parallel * 2 <= serial

    def test_parallel_read_returns_same_data(self):
        payloads = {}
        for parallel in (False, True):
            stack = _stack(parallel, tiers=["pm", "ssd"])
            mux, handle, blocks = _split_file(stack)
            expected = bytes(blocks * BS)
            mux.write(handle, 10 * BS, b"\x11" * BS)
            mux.write(handle, 50 * BS, b"\x22" * (2 * BS))
            expected = (
                expected[: 10 * BS]
                + b"\x11" * BS
                + expected[11 * BS : 50 * BS]
                + b"\x22" * (2 * BS)
                + expected[52 * BS :]
            )
            _drop_caches(stack)
            payloads[parallel] = mux.read(handle, 0, blocks * BS)
            assert payloads[parallel] == expected
        assert payloads[True] == payloads[False]

    def test_serial_ablation_unchanged_by_engine(self):
        # parallel=False must reproduce the pre-engine serial model: the
        # same op sequence on two serial stacks is bit-identical
        def run():
            stack = _stack(False)
            mux, handle, blocks = _split_file(stack)
            _drop_caches(stack)
            mux.read(handle, 0, blocks * BS)
            return stack.clock.now_ns

        assert run() == run()

    def test_determinism_across_runs(self):
        def run():
            stack = _stack(True, tiers=["pm", "ssd"])
            tier_ids = [stack.tier_id(n) for n in ("pm", "ssd")]
            striped_reads(stack, tier_ids, file_bytes=1 * MIB, reads=2)
            return (
                stack.clock.now_ns,
                {n: d.stats.snapshot() for n, d in sorted(stack.devices.items())},
                {n: d.timeline.snapshot() for n, d in sorted(stack.devices.items())},
                stack.mux.scheduler.snapshot(),
            )

        assert run() == run()


class TestBackgroundMigration:
    def _prepare(self, stack, blocks=256):
        mux = stack.mux
        handle = mux.create("/mig")
        mux.write(handle, 0, bytes(blocks * BS))
        return mux, handle, blocks

    def test_copy_runs_on_background_time(self):
        stack = _stack(True)
        mux, handle, blocks = self._prepare(stack)
        t0 = stack.clock.now_ns
        task = mux.engine.submit(
            MigrationOrder(
                handle.ino, 0, blocks, stack.tier_id("pm"), stack.tier_id("ssd")
            )
        )
        while task.step():
            pass
        stalled = stack.clock.now_ns - t0
        assert task.result.moved_blocks == blocks
        copy_span = task.cursor_ns - t0
        # the 1 MiB copy ran on the task's own timeline; the foreground
        # clock moved by far less than the copy took
        assert stalled * 10 < copy_span

    def test_drain_synchronizes_to_copy_completion(self):
        stack = _stack(True)
        mux, handle, blocks = self._prepare(stack)
        task = mux.engine.submit(
            MigrationOrder(
                handle.ino, 0, blocks, stack.tier_id("pm"), stack.tier_id("ssd")
            )
        )
        while task.step():
            pass
        assert stack.clock.now_ns < task.cursor_ns
        mux.engine.drain()
        assert stack.clock.now_ns >= task.cursor_ns

    def test_foreground_reads_overlap_background_copy(self):
        stack = _stack(True)
        mux, handle, blocks = self._prepare(stack)
        task = mux.engine.submit(
            MigrationOrder(
                handle.ino, 0, blocks, stack.tier_id("pm"), stack.tier_id("ssd")
            )
        )
        latencies = []
        while task.step():
            t0 = stack.clock.now_ns
            data = mux.read(handle, 0, BS)
            latencies.append(stack.clock.now_ns - t0)
            assert data == bytes(BS)
        # every interleaved foreground read stayed at PM-class latency
        # (the copy contends only for reserved background channels)
        assert max(latencies) < 100_000

    def test_serial_mode_migrations_stay_foreground(self):
        stack = _stack(False)
        mux, handle, blocks = self._prepare(stack)
        t0 = stack.clock.now_ns
        task = mux.engine.submit(
            MigrationOrder(
                handle.ino, 0, blocks, stack.tier_id("pm"), stack.tier_id("ssd")
            )
        )
        while task.step():
            pass
        # the serial ablation charges the copy straight to the global clock
        assert stack.clock.now_ns > t0
        assert task.cursor_ns is None

    def test_lock_fallback_stalls_foreground(self):
        def run(force_lock):
            stack = _stack(True)
            mux, handle, blocks = self._prepare(stack)
            mux.engine.occ.force_lock = force_lock
            t0 = stack.clock.now_ns
            task = mux.engine.submit(
                MigrationOrder(
                    handle.ino, 0, blocks, stack.tier_id("pm"), stack.tier_id("ssd")
                )
            )
            while task.step():
                pass
            assert task.result.moved_blocks == blocks
            assert task.result.lock_fallback == force_lock
            return stack.clock.now_ns - t0

        occ_stall = run(False)
        lock_stall = run(True)
        # a pessimistic lock blocks the user, so the locked copy charges
        # foreground time even though the task itself is background
        assert occ_stall * 10 < lock_stall
        assert lock_stall > cal.LOCK_FALLBACK_NS


class TestFaultsThroughParallelDispatch:
    def _faulty_split_stack(self, config):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stack_module, "FAULT_SEED", 7)
            stack = build_stack(
                enable_cache=False,
                scheduler=IoScheduler(parallel=True),
                faults={"ssd": config},
            )
        mux, handle, blocks = (None, None, 64)
        mux = stack.mux
        handle = mux.create("/split")
        mux.write(handle, 0, bytes(blocks * BS))
        mux.engine.migrate_now(
            MigrationOrder(
                handle.ino,
                blocks // 2,
                blocks // 2,
                stack.tier_id("pm"),
                stack.tier_id("ssd"),
            )
        )
        return stack, mux, handle, blocks

    def test_transient_fault_in_overlapped_subrequest_retries(self):
        stack, mux, handle, blocks = self._faulty_split_stack(
            FaultConfig(read_error_p=0.3, transient_fraction=1.0)
        )
        _drop_caches(stack)
        data = mux.read(handle, 0, blocks * BS)
        assert data == bytes(blocks * BS)
        # retries and their simulated backoff were charged inside the
        # sub-request's frame, not lost
        assert mux.stats.get("fault_retries") > 0
        assert mux.stats.get("fault_backoff_ns") > 0
        assert not stack.clock.in_frame  # frame stack unwound cleanly

    def test_persistent_fault_in_overlapped_subrequest_latches(self):
        stack, mux, handle, blocks = self._faulty_split_stack(
            FaultConfig(read_error_p=1.0, transient_fraction=0.0)
        )
        ssd_health = stack.mux.registry.get(stack.tier_id("ssd")).health
        from repro.core.health import HEALTH_SUSPECT_ERRORS

        for _ in range(HEALTH_SUSPECT_ERRORS):
            _drop_caches(stack)
            with pytest.raises(TierUnavailable):
                mux.read(handle, 0, blocks * BS)
        # the faults fired inside overlapped frames and still latched
        assert ssd_health.state is HealthState.SUSPECT
        assert not stack.clock.in_frame  # fault path popped its frame
        # the pm-resident half is still readable after the failure
        assert mux.read(handle, 0, (blocks // 2) * BS) == bytes((blocks // 2) * BS)

    def test_repeated_failures_take_tier_offline(self):
        stack, mux, handle, blocks = self._faulty_split_stack(
            FaultConfig(read_error_p=1.0, transient_fraction=0.0)
        )
        ssd_health = stack.mux.registry.get(stack.tier_id("ssd")).health
        for _ in range(8):
            _drop_caches(stack)
            with pytest.raises(TierUnavailable):
                mux.read(handle, 0, blocks * BS)
            if ssd_health.state is HealthState.OFFLINE:
                break
        assert ssd_health.state is HealthState.OFFLINE
        assert not stack.clock.in_frame
