"""Unit tests for the virtual clock."""

import pytest

from repro.sim.clock import NSEC_PER_SEC, SimClock, microseconds, milliseconds, seconds


class TestConversions:
    def test_seconds(self):
        assert seconds(1.0) == NSEC_PER_SEC

    def test_seconds_rounds(self):
        assert seconds(1.5e-9) == 2

    def test_microseconds(self):
        assert microseconds(3.0) == 3_000

    def test_milliseconds(self):
        assert milliseconds(2.0) == 2_000_000


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0

    def test_custom_start(self):
        assert SimClock(start_ns=500).now_ns == 500

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start_ns=-1)

    def test_advance(self):
        clock = SimClock()
        clock.advance_ns(100)
        clock.advance_ns(23)
        assert clock.now_ns == 123

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance_ns(7) == 7

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance_ns(-1)

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance_ns(0)
        assert clock.now_ns == 0

    def test_charge_seconds(self):
        clock = SimClock()
        clock.charge(0.5)
        assert clock.now_ns == NSEC_PER_SEC // 2

    def test_now_seconds(self):
        clock = SimClock()
        clock.advance_ns(NSEC_PER_SEC)
        assert clock.now() == pytest.approx(1.0)

    def test_integer_precision_no_drift(self):
        clock = SimClock()
        for _ in range(1_000):
            clock.advance_ns(3)
        assert clock.now_ns == 3_000


class TestFrames:
    def test_frame_starts_at_now(self):
        clock = SimClock()
        clock.advance_ns(100)
        assert clock.push_frame() == 100
        assert clock.now_ns == 100

    def test_frame_advance_does_not_move_global(self):
        clock = SimClock()
        clock.push_frame()
        clock.advance_ns(500)
        assert clock.now_ns == 500
        assert clock.global_now_ns == 0
        assert clock.pop_frame() == 500
        assert clock.now_ns == 0

    def test_pop_returns_cursor_for_caller_to_fold(self):
        clock = SimClock()
        completions = []
        for cost in (300, 700, 100):
            clock.push_frame()
            clock.advance_ns(cost)
            completions.append(clock.pop_frame())
        clock.advance_to(max(completions))
        assert clock.now_ns == 700  # max, not sum

    def test_explicit_start(self):
        clock = SimClock()
        clock.advance_ns(50)
        assert clock.push_frame(start_ns=200) == 200
        clock.advance_ns(10)
        assert clock.pop_frame() == 210

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock().push_frame(start_ns=-5)

    def test_pop_without_frame_raises(self):
        with pytest.raises(RuntimeError):
            SimClock().pop_frame()

    def test_nested_frames(self):
        clock = SimClock()
        clock.push_frame()
        clock.advance_ns(100)
        clock.push_frame()
        clock.advance_ns(9)
        assert clock.pop_frame() == 109
        assert clock.now_ns == 100

    def test_advance_to_inside_frame(self):
        clock = SimClock()
        clock.push_frame(start_ns=40)
        clock.advance_to(90)
        assert clock.now_ns == 90
        clock.advance_to(10)  # never backwards
        assert clock.pop_frame() == 90

    def test_background_flag(self):
        clock = SimClock()
        assert not clock.in_background
        clock.push_frame(background=True)
        assert clock.in_background
        clock.push_frame()  # nested foreground frame keeps bg context
        assert clock.in_background
        clock.pop_frame()
        clock.pop_frame()
        assert not clock.in_background

    def test_in_frame(self):
        clock = SimClock()
        assert not clock.in_frame
        clock.push_frame()
        assert clock.in_frame
        clock.pop_frame()
        assert not clock.in_frame


class TestSuspendFrames:
    def test_suspended_charges_hit_global(self):
        clock = SimClock()
        clock.push_frame(background=True)
        clock.advance_ns(100)
        token = clock.suspend_frames()
        assert not clock.in_frame and not clock.in_background
        clock.advance_ns(1000)  # pessimistic-lock work: foreground time
        assert clock.global_now_ns == 1000
        clock.resume_frames(token)
        assert clock.in_frame and clock.in_background

    def test_resume_pulls_cursor_up_to_global(self):
        clock = SimClock()
        clock.push_frame()
        clock.advance_ns(100)
        token = clock.suspend_frames()
        clock.advance_ns(5000)
        clock.resume_frames(token)
        # the frame cannot resume before the global instant it waited for
        assert clock.pop_frame() == 5000

    def test_resume_keeps_later_cursor(self):
        clock = SimClock()
        clock.push_frame()
        clock.advance_ns(9000)
        token = clock.suspend_frames()
        clock.advance_ns(10)
        clock.resume_frames(token)
        assert clock.pop_frame() == 9000

    def test_suspend_with_no_frames_is_noop(self):
        clock = SimClock()
        token = clock.suspend_frames()
        clock.advance_ns(7)
        clock.resume_frames(token)
        assert clock.now_ns == 7
        assert not clock.in_frame


class TestFrameEdgeCases:
    """The corners the async ring and background readahead lean on."""

    def test_nested_stack_survives_suspend_resume(self):
        # a foreground frame nested inside a background one: suspending
        # must escape *both*, resuming must restore depth, cursors and the
        # background flag exactly
        clock = SimClock()
        clock.push_frame(background=True)
        clock.advance_ns(300)
        clock.push_frame()
        clock.advance_ns(50)  # inner cursor at 350
        token = clock.suspend_frames()
        assert not clock.in_frame and not clock.in_background
        clock.advance_ns(100)  # foreground work at global time
        clock.resume_frames(token)
        assert clock.in_frame and clock.in_background
        assert clock.pop_frame() == 350  # inner, ahead of global: untouched
        assert clock.in_background
        assert clock.pop_frame() == 300
        assert not clock.in_background
        assert clock.global_now_ns == 100

    def test_push_pop_while_suspended(self):
        # code running under a pessimistic lock may itself split I/O into
        # frames; those nest on the *global* clock and must not leak into
        # the suspended stack
        clock = SimClock()
        clock.push_frame(start_ns=1_000, background=True)
        token = clock.suspend_frames()
        clock.push_frame()
        clock.advance_ns(80)
        assert clock.pop_frame() == 80
        assert not clock.in_frame
        clock.advance_to(80)
        clock.resume_frames(token)
        # the background frame resumed at its own (later) cursor
        assert clock.pop_frame() == 1_000

    def test_resume_pulls_only_stale_cursors(self):
        # two suspended frames, one behind and one ahead of the foreground
        # work: only the stale one is pulled up to the global clock
        clock = SimClock()
        clock.push_frame(start_ns=10)
        clock.push_frame(start_ns=9_000)
        token = clock.suspend_frames()
        clock.advance_ns(500)
        clock.resume_frames(token)
        assert clock.pop_frame() == 9_000
        assert clock.pop_frame() == 500

    def test_background_cursors_after_drain(self):
        # TaskRunner.drain is a sync point: the global clock lands on the
        # latest background completion, no frame is left active, and the
        # background flag is clean
        from repro.sim.tasks import TaskRunner

        clock = SimClock()
        runner = TaskRunner(clock)

        def work(cost):
            def gen():
                clock.advance_ns(cost)
                yield
                clock.advance_ns(cost)

            return gen()

        runner.spawn(work(100), background=True)
        runner.spawn(work(350), background=True)
        runner.drain()
        assert not clock.in_frame and not clock.in_background
        assert runner.completed_until_ns == 700
        assert clock.global_now_ns == 700

    def test_drained_runner_does_not_rewind(self):
        # a second drain (or one after the world moved on) never pulls the
        # clock backwards to an old background cursor
        from repro.sim.tasks import TaskRunner

        clock = SimClock()
        runner = TaskRunner(clock)

        def gen():
            clock.advance_ns(10)
            yield

        runner.spawn(gen(), background=True)
        runner.drain()
        clock.advance_to(5_000)
        runner.drain()
        assert clock.global_now_ns == 5_000

    def test_same_ns_completions_fold_deterministically(self):
        # sibling frames completing on the same nanosecond: the fold is
        # max(), so issue order cannot change the result, and a stable
        # (completion, index) sort gives one canonical ordering for ties
        clock = SimClock()
        completions = []
        for index, cost in enumerate((400, 400, 250)):
            clock.push_frame(start_ns=0)
            clock.advance_ns(cost)
            completions.append((clock.pop_frame(), index))
        clock.advance_to(max(c for c, _ in completions))
        assert clock.now_ns == 400
        assert sorted(completions) == [(250, 2), (400, 0), (400, 1)]
