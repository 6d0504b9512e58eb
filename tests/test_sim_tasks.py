"""Unit tests for the cooperative task runner."""

import pytest

from repro.sim.tasks import Task, TaskRunner, run_interleaved


def counting(n, log, tag):
    for i in range(n):
        log.append((tag, i))
        yield
    return f"{tag}-done"


class TestTask:
    def test_join_returns_result(self):
        task = Task(counting(3, [], "a"))
        assert task.join() == "a-done"
        assert task.done

    def test_step_by_step(self):
        log = []
        task = Task(counting(2, log, "a"))
        assert task.step() is True
        assert task.step() is True
        assert task.step() is False
        assert log == [("a", 0), ("a", 1)]

    def test_step_after_done(self):
        task = Task(counting(0, [], "a"))
        task.join()
        assert task.step() is False

    def test_error_captured_and_reraised(self):
        def boom():
            yield
            raise RuntimeError("nope")

        task = Task(boom())
        task.step()
        assert task.step() is False
        assert isinstance(task.error, RuntimeError)
        with pytest.raises(RuntimeError):
            task.join()


class TestTaskRunner:
    def test_round_robin_interleaving(self):
        log = []
        runner = TaskRunner()
        runner.spawn(counting(2, log, "a"), background=False)
        runner.spawn(counting(2, log, "b"), background=False)
        runner.drain()
        assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]

    def test_pending_count(self):
        runner = TaskRunner()
        runner.spawn(counting(3, [], "a"), background=False)
        assert runner.pending == 1
        runner.drain()
        assert runner.pending == 0

    def test_drain_raises_task_error(self):
        def boom():
            yield
            raise ValueError("x")

        runner = TaskRunner()
        runner.spawn(boom(), background=False)
        with pytest.raises(ValueError):
            runner.drain()

    def test_finished_tasks_reaped(self):
        runner = TaskRunner()
        runner.spawn(counting(1, [], "a"), background=False)
        runner.drain()
        assert list(runner) == []


class TestRunInterleaved:
    def test_callback_between_steps(self):
        log = []
        task = Task(counting(3, log, "a"))
        result = run_interleaved(task, lambda i: log.append(("cb", i)))
        assert result == "a-done"
        assert log == [
            ("a", 0),
            ("cb", 0),
            ("a", 1),
            ("cb", 1),
            ("a", 2),
            ("cb", 2),
        ]

    def test_error_propagates(self):
        def boom():
            yield
            raise KeyError("k")

        with pytest.raises(KeyError):
            run_interleaved(Task(boom()), lambda i: None)


class TestTaskNaming:
    def test_names_are_per_runner(self):
        # regression: Task used to hold a class-level counter, so names
        # depended on how many tasks *any* earlier test had spawned
        def gen():
            yield

        a, b = TaskRunner(), TaskRunner()
        assert a.spawn(gen(), background=False).name == "task-1"
        assert a.spawn(gen(), background=False).name == "task-2"
        assert b.spawn(gen(), background=False).name == "task-1"

    def test_bare_task_has_stable_name(self):
        def gen():
            yield

        assert Task(gen()).name == "task"


class TestBackgroundTasks:
    def _clock(self):
        from repro.sim.clock import SimClock

        return SimClock()

    def test_steps_run_on_background_time(self):
        clock = self._clock()

        def copy():
            for _ in range(3):
                clock.advance_ns(100)
                yield

        task = Task(copy(), clock=clock, background=True)
        while task.step():
            pass
        assert clock.now_ns == 0  # foreground never stalled
        assert task.cursor_ns == 300  # the task's own timeline advanced

    def test_cursor_resumes_across_steps(self):
        clock = self._clock()

        def copy():
            clock.advance_ns(100)
            yield
            clock.advance_ns(50)
            yield

        task = Task(copy(), clock=clock, background=True)
        task.step()
        clock.advance_ns(10)  # foreground does a little work meanwhile
        task.step()
        # second step resumed at cursor 100 (> global 10), not at 10
        assert task.cursor_ns == 150

    def test_task_cannot_run_in_the_past(self):
        clock = self._clock()

        def copy():
            clock.advance_ns(5)
            yield
            clock.advance_ns(5)
            yield

        task = Task(copy(), clock=clock, background=True)
        task.step()
        clock.advance_ns(1000)  # foreground races far ahead
        task.step()
        assert task.cursor_ns == 1005  # resumed at global now, not cursor 5

    def test_join_synchronizes_global_clock(self):
        clock = self._clock()

        def copy():
            clock.advance_ns(700)
            yield

        task = Task(copy(), clock=clock, background=True)
        task.join()
        assert clock.now_ns == 700

    def test_drain_synchronizes_global_clock(self):
        clock = self._clock()

        def copy(cost):
            clock.advance_ns(cost)
            yield

        runner = TaskRunner(clock=clock)
        runner.spawn(copy(300), background=True)
        runner.spawn(copy(900), background=True)
        runner.drain()
        assert clock.now_ns == 900  # max over tasks, not sum
