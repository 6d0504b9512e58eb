"""Run-level OCC migration is observationally identical to the scalar
per-block protocol: same simulated time, same results, same data, same
final block placement — under clean runs, adversarial interleaved writes,
lock fallback and no-space aborts alike."""

from typing import Generator, List

import pytest

from repro.core import calibration as cal
from repro.core.intervals import (
    BlockIntervalSet,
    intersect_runs,
    normalize_runs,
    runs_length,
    subtract_runs,
)
from repro.core.occ import MigrationResult, OccSynchronizer, _contiguous_spans
from repro.core.policy import MigrationOrder
from repro.errors import NoSpace
from repro.sim.rng import DeterministicRng
from repro.sim.tasks import run_interleaved
from repro.stack import build_stack

MIB = 1024 * 1024
BS = 4096


class ScalarOccSynchronizer(OccSynchronizer):
    """The pre-optimization per-block OCC protocol, kept as a reference.

    Reproduces the original algorithm verbatim (materialized block lists,
    per-block clean/conflicted/retry comprehensions), adapted only to the
    run-based ``blt_commit_move`` signature.  The production run-level
    synchronizer must match it observation-for-observation.
    """

    def migrate(
        self, inode, block_start: int, count: int, src_tier: int, dst_tier: int
    ) -> Generator[None, None, MigrationResult]:
        result = MigrationResult()
        if src_tier == dst_tier or count <= 0:
            return result
        targets = self._scalar_blocks_on_src(inode, block_start, count, src_tier)
        result.skipped_blocks = count - len(targets)

        attempts = 0 if self.force_lock else cal.OCC_MAX_RETRIES
        for _ in range(attempts):
            if not targets:
                return result
            result.attempts += 1
            self.stats.add("attempts")
            inode.version += 1
            inode.migration_active = True
            inode.dirty_during_migration.clear()
            version_at_start = inode.version
            self.io.clock.advance_ns(cal.MUX_OCC_CHECK_NS)
            try:
                yield from self._scalar_copy(inode, targets, src_tier, dst_tier)
            except NoSpace:
                inode.version += 1
                inode.migration_active = False
                inode.dirty_during_migration.clear()
                result.aborted_no_space = True
                self.stats.add("no_space_aborts")
                return result
            inode.version += 1
            inode.migration_active = False
            dirty = set(inode.dirty_during_migration)
            inode.dirty_during_migration.clear()
            if inode.version != version_at_start + 1:
                dirty.update(targets)
            clean = [
                b
                for b in targets
                if b not in dirty and inode.blt.lookup(b) == src_tier
            ]
            self._scalar_commit(inode, clean, src_tier, dst_tier, result)
            conflicted = [b for b in targets if b not in clean]
            result.conflicts += len(conflicted)
            if conflicted:
                self.stats.add("conflicts", len(conflicted))
            targets = [b for b in conflicted if inode.blt.lookup(b) == src_tier]

        if targets:
            result.lock_fallback = True
            self.stats.add("lock_fallbacks")
            # like production: a pessimistic lock charges foreground time
            token = self.io.clock.suspend_frames()
            self.io.clock.advance_ns(cal.LOCK_FALLBACK_NS)
            inode.locked = True
            try:
                for _ in self._scalar_copy(inode, targets, src_tier, dst_tier):
                    pass
                self._scalar_commit(inode, targets, src_tier, dst_tier, result)
            except NoSpace:
                result.aborted_no_space = True
                self.stats.add("no_space_aborts")
            finally:
                inode.locked = False
                self.io.clock.resume_frames(token)
        return result

    def _scalar_blocks_on_src(self, inode, block_start, count, src_tier):
        blocks: List[int] = []
        for run_start, run_len, tier in inode.blt.runs(block_start, count):
            if tier == src_tier:
                blocks.extend(range(run_start, run_start + run_len))
        return blocks

    def _scalar_copy(self, inode, blocks, src_tier, dst_tier):
        block_size = self.io.block_size
        for span_start, span_len in _contiguous_spans(blocks):
            copied = 0
            while copied < span_len:
                chunk = min(cal.MIGRATION_CHUNK_BLOCKS, span_len - copied)
                offset = (span_start + copied) * block_size
                data = self.io.files.read(
                    inode, src_tier, offset, chunk * block_size,
                    create=True, dispatch=True,
                )
                self.io.files.write(
                    inode, dst_tier, offset, data, dispatch=True, cause="migration"
                )
                copied += chunk
                self.stats.add("blocks_copied", chunk)
                yield

    def _scalar_commit(self, inode, blocks, src_tier, dst_tier, result):
        if not blocks:
            return
        self.io.files.fsync(inode, dst_tier)
        spans = _contiguous_spans(blocks)
        self.io.blt_commit_move(inode, spans, src_tier, dst_tier)
        for span_start, span_len in spans:
            self.io.files.punch(
                inode, src_tier, span_start * self.io.block_size,
                span_len * self.io.block_size,
            )
        result.moved_blocks += len(blocks)
        result.bytes_moved += len(blocks) * self.io.block_size
        self.stats.add("blocks_committed", len(blocks))


def _make_stack(scalar: bool):
    stack = build_stack(
        capacities={"pm": 16 * MIB, "ssd": 32 * MIB, "hdd": 64 * MIB},
        enable_cache=False,
    )
    if scalar:
        stack.mux.engine.occ = ScalarOccSynchronizer(stack.mux)
    return stack


def _prepare(stack, nblocks=16):
    mux = stack.mux
    handle = mux.create("/f")
    payload = b"".join(bytes([i + 1]) * BS for i in range(nblocks))
    mux.write(handle, 0, payload)
    return mux, handle


def _observe(stack, mux, handle, result, nblocks=16):
    """Everything externally visible about a finished migration."""
    inode = mux.ns.get(handle.ino)
    return {
        "now_ns": stack.clock.now_ns,
        "moved": result.moved_blocks,
        "bytes": result.bytes_moved,
        "attempts": result.attempts,
        "conflicts": result.conflicts,
        "lock_fallback": result.lock_fallback,
        "skipped": result.skipped_blocks,
        "aborted": result.aborted_no_space,
        "data": mux.read(handle, 0, nblocks * BS + 64),
        "placement": {t: inode.blt.blocks_on(t) for t in mux.tier_ids()},
        "version": inode.version,
        "locked": inode.locked,
        "active": inode.migration_active,
    }


def _run_scenario(writer_factory, nblocks=16, count=None, start=0):
    """Run one adversarial scenario on both synchronizers; return both views."""
    views = []
    for scalar in (False, True):
        stack = _make_stack(scalar)
        mux, handle = _prepare(stack, nblocks)
        order = MigrationOrder(
            handle.ino,
            start,
            nblocks if count is None else count,
            stack.tier_id("pm"),
            stack.tier_id("ssd"),
        )
        task = mux.engine.submit(order)
        result = run_interleaved(task, writer_factory(mux, handle))
        views.append(_observe(stack, mux, handle, result, nblocks))
    return views


class TestRunLevelEquivalence:
    def test_clean_migration(self):
        new, ref = _run_scenario(lambda mux, handle: (lambda step: None))
        assert new == ref

    def test_single_dirty_block(self):
        def factory(mux, handle):
            def writer(step):
                if step == 0:
                    mux.write(handle, 3 * BS, b"USERDATA")

            return writer

        new, ref = _run_scenario(factory)
        assert new == ref
        assert new["conflicts"] > 0

    def test_dirty_range_every_other_step(self):
        def factory(mux, handle):
            def writer(step):
                if step % 2 == 0:
                    mux.write(handle, 5 * BS, bytes([step % 251]) * (3 * BS))

            return writer

        new, ref = _run_scenario(factory)
        assert new == ref

    def test_hostile_writer_forces_lock_fallback(self):
        def factory(mux, handle):
            inode = mux.ns.get(handle.ino)

            def writer(step):
                if inode.migration_active:
                    for fb in range(16):
                        mux.write(handle, fb * BS, bytes([0xEE]))

            return writer

        new, ref = _run_scenario(factory)
        assert new == ref
        assert new["lock_fallback"]

    def test_append_during_migration(self):
        def factory(mux, handle):
            def writer(step):
                if step == 0:
                    mux.append(handle, b"GROWN")

            return writer

        new, ref = _run_scenario(factory)
        assert new == ref

    def test_partial_range_with_holes(self):
        # migrate a window past EOF: skipped blocks counted identically
        new, ref = _run_scenario(
            lambda mux, handle: (lambda step: None), count=24
        )
        assert new == ref
        assert new["skipped"] == 8

    @pytest.mark.parametrize("seed", [3, 17, 92])
    def test_randomized_adversary(self, seed):
        def factory(mux, handle):
            rng = DeterministicRng(seed)

            def writer(step):
                roll = rng.random()
                if roll < 0.45:
                    offset = rng.randint(0, 15) * BS
                    mux.write(handle, offset, bytes([rng.randint(1, 255)]) * 512)
                elif roll < 0.55:
                    start = rng.randint(0, 12)
                    mux.write(handle, start * BS, b"\x7f" * (4 * BS))

            return writer

        new, ref = _run_scenario(factory)
        assert new == ref

    def test_committed_runs_reported(self, stack_nocache):
        stack = stack_nocache
        mux, handle = _prepare(stack)
        order = MigrationOrder(
            handle.ino, 0, 16, stack.tier_id("pm"), stack.tier_id("ssd")
        )
        result = mux.engine.migrate_now(order)
        # 16 contiguous clean blocks commit as one run, not 16
        assert result.committed_runs == 1
        assert mux.engine.stats.get("runs_moved") == 1


class TestRunAlgebra:
    """Interval algebra matches the set-based definitions it replaced."""

    CASES = [
        ([], []),
        ([(0, 4)], [(2, 4)]),
        ([(0, 10)], [(3, 2), (7, 1)]),
        ([(0, 2), (5, 3), (20, 1)], [(1, 6)]),
        ([(4, 4)], [(0, 12)]),
        ([(0, 3), (3, 3)], [(2, 2)]),
    ]

    @staticmethod
    def _blocks(runs):
        out = set()
        for s, n in runs:
            out.update(range(s, s + n))
        return out

    @pytest.mark.parametrize("a,b", CASES)
    def test_subtract_matches_sets(self, a, b):
        a, b = normalize_runs(a), normalize_runs(b)
        assert self._blocks(subtract_runs(a, b)) == (
            self._blocks(a) - self._blocks(b)
        )

    @pytest.mark.parametrize("a,b", CASES)
    def test_intersect_matches_sets(self, a, b):
        a, b = normalize_runs(a), normalize_runs(b)
        assert self._blocks(intersect_runs(a, b)) == (
            self._blocks(a) & self._blocks(b)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_algebra(self, seed):
        rng = DeterministicRng(seed)

        def rand_runs():
            return normalize_runs(
                (rng.randint(0, 60), rng.randint(0, 6))
                for _ in range(rng.randint(0, 8))
            )

        for _ in range(50):
            a, b = rand_runs(), rand_runs()
            assert self._blocks(subtract_runs(a, b)) == (
                self._blocks(a) - self._blocks(b)
            )
            assert self._blocks(intersect_runs(a, b)) == (
                self._blocks(a) & self._blocks(b)
            )
            merged = normalize_runs(a + b)
            assert self._blocks(merged) == self._blocks(a) | self._blocks(b)
            # normalized output is sorted, disjoint, non-adjacent
            for (s1, n1), (s2, _) in zip(merged, merged[1:]):
                assert s1 + n1 < s2

    def test_normalize_merges_adjacent_and_overlapping(self):
        assert normalize_runs([(5, 3), (0, 2), (2, 3), (8, 0)]) == [(0, 8)]
        assert runs_length([(0, 8), (10, 2)]) == 10


class TestBlockIntervalSet:
    def test_set_compat(self):
        s = BlockIntervalSet()
        assert not s
        s.add(4)
        s.add(5)
        s.add(1)
        assert s
        assert s == {1, 4, 5}
        assert 4 in s and 2 not in s
        assert sorted(s) == [1, 4, 5]
        assert len(s) == 3
        s.clear()
        assert s == set()

    def test_add_range_merging(self):
        s = BlockIntervalSet()
        s.add_range(10, 4)
        s.add_range(0, 2)
        s.add_range(14, 2)  # adjacent: extends [10,14) to [10,16)
        s.add_range(1, 10)  # bridges everything up to 11
        assert s.runs() == [(0, 16)]

    def test_matches_set_reference_randomized(self):
        rng = DeterministicRng(99)
        s = BlockIntervalSet()
        ref = set()
        for _ in range(400):
            roll = rng.random()
            if roll < 0.55:
                start, n = rng.randint(0, 200), rng.randint(1, 9)
                assert s.add_range(start, n) == len(set(range(start, start + n)) - ref)
                ref.update(range(start, start + n))
            elif roll < 0.8:
                b = rng.randint(0, 210)
                assert s.add(b) == (b not in ref)
                ref.add(b)
            else:
                start, n = rng.randint(0, 200), rng.randint(1, 12)
                assert s.remove_range(start, n) == len(ref & set(range(start, start + n)))
                ref.difference_update(range(start, start + n))
            assert runs_length(s.runs()) == len(ref)
        assert s == ref
        assert set(s) == ref
        assert runs_length(s.runs()) == len(ref)
