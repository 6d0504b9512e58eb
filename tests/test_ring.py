"""Async submit/complete ring: overlap, backpressure, ordering, OCC."""

import pytest

from repro.core.migration import MigrationOrder
from repro.core.scheduler import IoScheduler
from repro.errors import InvalidArgument
from repro.stack import build_stack

MIB = 1024 * 1024


def _ssd_stack(**kwargs):
    """Cache-free single-SSD stack: every op pays the device, overlap shows."""
    return build_stack(tiers=["ssd"], enable_cache=False, **kwargs)


def _prepare_file(mux, path="/f", nbytes=256 * 1024):
    mux.write_file(path, bytes(nbytes))
    return mux.open(path)


class TestSubmitComplete:
    def test_read_roundtrip(self):
        stack = _ssd_stack()
        mux = stack.mux
        mux.write_file("/f", b"ring payload" + bytes(4096))
        handle = mux.open("/f")
        ring = mux.open_ring(depth=4)
        sub = ring.submit_read(handle, 0, 12)
        assert sub.op == "read"
        assert sub.ino == handle.ino
        done = ring.wait(sub)
        assert done.seq == sub.seq
        assert done.unwrap() == b"ring payload"
        assert done.completed_ns >= done.submitted_ns
        assert done.latency_ns > 0
        mux.close(handle)

    def test_write_then_read_program_order(self):
        # state mutates at submission, in program order: a later-seq read
        # sees an earlier-seq write even before either completion is reaped
        stack = _ssd_stack()
        mux = stack.mux
        handle = _prepare_file(mux)
        ring = mux.open_ring(depth=8)
        w = ring.submit_write(handle, 0, b"ORDERED")
        r = ring.submit_read(handle, 0, 7)
        done = {c.seq: c for c in ring.drain()}
        assert done[w.seq].unwrap() == 7
        assert done[r.seq].unwrap() == b"ORDERED"
        mux.close(handle)

    def test_fsync_submission(self):
        stack = _ssd_stack()
        mux = stack.mux
        handle = _prepare_file(mux)
        ring = mux.open_ring(depth=2)
        ring.submit_write(handle, 0, b"durable")
        s = ring.submit_fsync(handle)
        done = ring.wait(s)
        assert done.op == "fsync"
        assert done.error is None
        mux.close(handle)

    def test_error_lands_in_completion(self):
        stack = _ssd_stack()
        mux = stack.mux
        handle = _prepare_file(mux)
        ring = mux.open_ring(depth=2)
        sub = ring.submit_read(handle, -1, 10)  # negative offset: EINVAL
        done = ring.wait(sub)
        assert isinstance(done.error, InvalidArgument)
        with pytest.raises(InvalidArgument):
            done.unwrap()
        mux.close(handle)

    def test_wait_empty_and_unknown(self):
        stack = _ssd_stack()
        mux = stack.mux
        handle = _prepare_file(mux)
        ring = mux.open_ring(depth=2)
        with pytest.raises(InvalidArgument):
            ring.wait()
        sub = ring.submit_read(handle, 0, 10)
        ring.wait(sub)
        with pytest.raises(InvalidArgument):
            ring.wait(sub)  # already reaped
        mux.close(handle)

    def test_close_unregisters(self):
        stack = _ssd_stack()
        mux = stack.mux
        handle = _prepare_file(mux)
        with mux.open_ring(depth=2) as ring:
            ring.submit_read(handle, 0, 10)
        assert ring.closed
        assert ring not in mux.rings
        with pytest.raises(InvalidArgument):
            ring.submit_read(handle, 0, 10)
        mux.close(handle)

    def test_close_twice_keeps_counters(self):
        stack = _ssd_stack()
        mux = stack.mux
        handle = _prepare_file(mux)
        ring = mux.open_ring(depth=2)
        ring.submit_read(handle, 0, 10)
        assert len(ring.close()) == 1
        assert ring.close() == []  # used to raise ValueError from list.remove
        snap = ring.snapshot()
        assert (snap["submitted"], snap["reaped"], snap["pending"]) == (1, 1, 0)
        mux.close(handle)

    def test_bad_depth_rejected(self):
        stack = _ssd_stack()
        with pytest.raises(InvalidArgument):
            stack.mux.open_ring(depth=0)


class TestOverlap:
    def _issue_reads(self, depth, n=8, length=64 * 1024):
        stack = _ssd_stack()
        mux = stack.mux
        handle = _prepare_file(mux, nbytes=n * length)
        t0 = stack.clock.now_ns
        ring = mux.open_ring(depth=depth)
        for i in range(n):
            ring.submit_read(handle, i * length, length)
        completions = ring.drain()
        elapsed = stack.clock.now_ns - t0
        mux.close(handle)
        return elapsed, completions, ring

    def test_async_ring_beats_depth1(self):
        wide, _, _ = self._issue_reads(depth=8)
        narrow, _, _ = self._issue_reads(depth=1)
        # eight independent reads on an eight-channel SSD: near-full overlap
        assert narrow > 3 * wide

    def test_depth1_matches_serial_loop(self):
        # a depth-1 ring is the serialized baseline: identical device time,
        # only the constant ring submit/reap costs differ
        n, length = 4, 64 * 1024
        elapsed_ring, _, ring = self._issue_reads(depth=1, n=n, length=length)
        stack = _ssd_stack()
        mux = stack.mux
        handle = _prepare_file(mux, nbytes=n * length)
        t0 = stack.clock.now_ns
        for i in range(n):
            mux.read(handle, i * length, length)
        elapsed_serial = stack.clock.now_ns - t0
        mux.close(handle)
        from repro.core import calibration as cal

        # submit CPU after the first op is absorbed by the backpressure
        # wait (the SQE is built while the previous op is in flight), so
        # the exposed ring overhead is one submit plus the n reaps
        ring_cost = cal.RING_SUBMIT_NS + n * cal.RING_REAP_NS
        assert elapsed_ring == elapsed_serial + ring_cost

    def test_backpressure_bounds_overlap(self):
        _, _, ring = self._issue_reads(depth=2, n=8)
        assert ring.backpressure_waits > 0
        assert ring.max_inflight <= 2
        snap = ring.snapshot()
        assert snap["submitted"] == 8
        assert snap["reaped"] == 8
        assert snap["pending"] == 0

    def test_serial_scheduler_disables_overlap(self):
        stack = _ssd_stack(scheduler=IoScheduler(parallel=False))
        mux = stack.mux
        handle = _prepare_file(mux, nbytes=8 * 64 * 1024)
        ring = mux.open_ring(depth=8)
        for i in range(8):
            ring.submit_read(handle, i * 64 * 1024, 64 * 1024)
        # serial ablation: each op ran on the global clock at submit, so
        # nothing is ever in flight and completions strictly increase
        assert ring.inflight() == 0
        done = ring.drain()
        times = [c.completed_ns for c in done]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        mux.close(handle)


class TestCompletionOrdering:
    def test_same_ns_completions_reap_in_seq_order(self):
        # the reap-order contract on a real tie: a submission on a closed
        # handle fails at once, so submitting it exactly when an earlier
        # read completes lands both on the same nanosecond.  The tie must
        # queue in submission (seq) order ahead of a later completion, and
        # wait() must pick the tie's lowest seq
        from repro.core import calibration as cal

        stack = _ssd_stack()
        mux = stack.mux
        handle = _prepare_file(mux)
        closed = mux.open("/f")
        mux.close(closed)
        ring = mux.open_ring(depth=8)
        first = ring.submit_read(handle, 0, 4096)
        later = ring.submit_read(handle, 64 * 1024, 64 * 1024)
        pending = {c.seq: c for c in ring._pending}
        t_first = pending[first.seq].completed_ns
        assert t_first < pending[later.seq].completed_ns
        stack.clock.advance_to(t_first - cal.RING_SUBMIT_NS)
        failed = ring.submit_read(closed, 0, 4096)
        assert failed.submitted_ns == t_first
        order = [(c.completed_ns, c.seq) for c in ring._pending]
        assert order == sorted(order)
        assert [seq for _, seq in order] == [first.seq, failed.seq, later.seq]
        assert ring.wait().seq == first.seq
        done = ring.drain()
        assert [c.seq for c in done] == [failed.seq, later.seq]
        assert done[0].completed_ns == t_first and done[0].error is not None
        mux.close(handle)

    def test_drain_orders_by_completion_time(self):
        # end-to-end: reaped completions come out (completed_ns, seq)-sorted
        # even though backpressure reorders nothing in submission order
        stack = _ssd_stack()
        mux = stack.mux
        handle = _prepare_file(mux, nbytes=8 * 4096)
        ring = mux.open_ring(depth=8)
        subs = [ring.submit_read(handle, 0, 4096) for _ in range(4)]
        done = ring.drain()
        keys = [(c.completed_ns, c.seq) for c in done]
        assert keys == sorted(keys)
        assert {s.seq for s in subs} == {c.seq for c in done}
        mux.close(handle)

    def test_poll_returns_only_due(self):
        stack = _ssd_stack()
        mux = stack.mux
        handle = _prepare_file(mux)
        ring = mux.open_ring(depth=4)
        ring.submit_read(handle, 0, 64 * 1024)
        # nothing has been waited on: the op is still in flight
        assert ring.poll() == []
        assert ring.pending == 1
        ring.drain()
        assert ring.pending == 0
        mux.close(handle)


class TestOccInteraction:
    def test_lock_fallback_quiesces_inflight_ring(self):
        stack = build_stack(enable_cache=False)
        mux = stack.mux
        nbytes = 64 * 4096
        mux.write_file("/f", bytes(nbytes))
        handle = mux.open("/f")
        inode = mux.ns.get(handle.ino)
        src = inode.blt.tiers_used()[0]
        dst = next(t for t in mux.tier_ids() if t != src)

        ring = mux.open_ring(depth=8)
        for i in range(8):
            ring.submit_read(handle, i * 4096, 4096)
        inflight_before = ring.inflight(handle.ino)
        assert inflight_before > 0
        horizon = max(c.completed_ns for c in ring._pending)
        assert stack.clock.global_now_ns < horizon

        # force the pessimistic path: the lock must wait out the ring
        mux.engine.occ.force_lock = True
        result = mux.engine.migrate_now(
            MigrationOrder(handle.ino, 0, 64, src, dst, reason="test")
        )
        assert result.lock_fallback
        assert stack.clock.global_now_ns >= horizon
        assert ring.inflight(handle.ino) == 0
        # completions were quiesced, not consumed
        assert ring.pending == 8
        done = ring.drain()
        assert all(c.error is None for c in done)
        mux.close(handle)

    def test_quiesce_is_per_inode(self):
        stack = build_stack(enable_cache=False)
        mux = stack.mux
        mux.write_file("/a", bytes(16 * 4096))
        mux.write_file("/b", bytes(16 * 4096))
        ha, hb = mux.open("/a"), mux.open("/b")
        ring = mux.open_ring(depth=8)
        ring.submit_read(ha, 0, 16 * 4096)
        ring.submit_read(hb, 0, 16 * 4096)
        horizon_b = max(c.completed_ns for c in ring._pending if c.ino == hb.ino)
        mux.quiesce_inflight(ha.ino)
        # ops on /b keep flying unless their completion already passed
        assert stack.clock.global_now_ns <= horizon_b
        ring.quiesce()
        assert ring.inflight() == 0
        mux.close(ha)
        mux.close(hb)
