"""Cooperative task runner used for asynchronous data movement.

The paper's Mux performs block migration *asynchronously* with respect to
user requests (§2.4).  In a deterministic simulation we model asynchrony
with cooperative tasks: a migration is a Python generator that yields
between steps, and a :class:`TaskRunner` interleaves those steps with user
operations.  Tests can drive the interleaving explicitly to construct the
exact races the OCC Synchronizer must survive.

With the parallel I/O engine, a task can additionally run on *background
time*: give it the shared clock and ``background=True`` and every step
executes inside a background clock frame.  The task keeps its own time
cursor (it resumes where its previous step completed, or at the global
now if the world has moved on), its device accesses land on the devices'
reserved background channels, and the global clock is only advanced when
someone synchronizes with the task (``join``/``drain``) — so background
copies overlap foreground ops instead of stalling them.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.clock import SimClock

Step = Generator[None, None, Any]


class Task:
    """One cooperative task wrapping a generator.

    Anonymous tasks get the name ``"task"``; :meth:`TaskRunner.spawn`
    assigns per-runner sequential names instead, so task-name-dependent
    traces are reproducible regardless of what ran earlier in the process.
    """

    def __init__(
        self,
        gen: Step,
        name: str = "",
        clock: Optional["SimClock"] = None,
        background: bool = False,
    ) -> None:
        self._gen = gen
        self.name = name or "task"
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._clock = clock
        self._background = background and clock is not None
        #: where this task's last step completed on its own timeline
        self.cursor_ns: Optional[int] = None

    def step(self) -> bool:
        """Advance one step; returns True while the task is still running."""
        if self.done:
            return False
        if not self._background:
            return self._step_inner()
        clock = self._clock
        # resume where the previous step completed, unless the foreground
        # has already moved past it (a task cannot run in the past)
        start = clock.now_ns
        if self.cursor_ns is not None and self.cursor_ns > start:
            start = self.cursor_ns
        clock.push_frame(start, background=True)
        try:
            return self._step_inner()
        finally:
            self.cursor_ns = clock.pop_frame()

    def _step_inner(self) -> bool:
        try:
            next(self._gen)
            return True
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            return False
        except BaseException as exc:  # surfaced via .error, re-raised by join
            self.done = True
            self.error = exc
            return False

    def join(self) -> Any:
        """Run the task to completion; returns its result or re-raises.

        Joining a background task is a synchronization point: the caller
        waits for it, so the global clock advances to its completion.
        """
        while self.step():
            pass
        if self._background and self.cursor_ns is not None:
            self._clock.advance_to(self.cursor_ns)
        if self.error is not None:
            raise self.error
        return self.result


class TaskRunner:
    """Round-robin scheduler for cooperative tasks.

    ``spawn`` registers a generator; ``tick`` advances every live task by
    one step; ``drain`` runs everything to completion.  Errors raised inside
    a task are stored on the task and re-raised when the runner drains (so a
    failed background migration cannot vanish silently).

    Task names are per-runner sequential (``task-1``, ``task-2``, ...), so
    traces keyed on names don't depend on process-global state.  A runner
    constructed with a clock can host background tasks (see :class:`Task`);
    ``drain`` then advances the global clock to the latest background
    completion, because draining means the caller waited for everything.
    """

    def __init__(self, clock: Optional["SimClock"] = None) -> None:
        self._tasks: List[Task] = []
        self._next_id = 1
        self._clock = clock
        #: latest background-task completion seen so far
        self.completed_until_ns = 0

    def spawn(self, gen: Step, background: bool) -> Task:
        task = Task(
            gen, name=f"task-{self._next_id}", clock=self._clock, background=background
        )
        self._next_id += 1
        self._tasks.append(task)
        return task

    @property
    def pending(self) -> int:
        return sum(1 for t in self._tasks if not t.done)

    @property
    def idle(self) -> bool:
        """No task is registered: :meth:`tick` would step nothing."""
        return not self._tasks

    def tick(self, gate: Optional[Callable[[Task], bool]] = None) -> int:
        """Advance every live task by one step; returns live-task count.

        ``gate(task)`` may veto stepping a live task this tick (it still
        counts as live) — the hook drivers use to hold back background
        tasks whose time cursor has raced ahead of the global clock.
        """
        live = 0
        for task in list(self._tasks):
            if gate is not None and not task.done and not gate(task):
                live += 1
                continue
            if task.step():
                live += 1
        self._reap()
        return live

    def drain(self) -> None:
        """Run all tasks to completion, re-raising the first task error.

        Synchronization point: the global clock catches up to the latest
        background completion before control returns.
        """
        while self.tick():
            pass
        if self._clock is not None and self.completed_until_ns:
            self._clock.advance_to(self.completed_until_ns)
        self._raise_errors()

    def _reap(self) -> None:
        finished = [t for t in self._tasks if t.done and t.error is None]
        for task in finished:
            if task.cursor_ns is not None and task.cursor_ns > self.completed_until_ns:
                self.completed_until_ns = task.cursor_ns
            self._tasks.remove(task)

    def _raise_errors(self) -> None:
        for task in list(self._tasks):
            if task.error is not None:
                if (
                    task.cursor_ns is not None
                    and task.cursor_ns > self.completed_until_ns
                ):
                    self.completed_until_ns = task.cursor_ns
                self._tasks.remove(task)
                raise task.error

    def __iter__(self) -> Iterator[Task]:
        return iter(list(self._tasks))


def run_interleaved(task: Task, between_steps: Callable[[int], None]) -> Any:
    """Run ``task`` to completion, calling ``between_steps(i)`` after step i.

    This is the deterministic race harness used by OCC tests: the callback
    issues user writes at chosen points *during* a migration.
    """
    i = 0
    while task.step():
        between_steps(i)
        i += 1
    if task.error is not None:
        raise task.error
    return task.result
