"""Differential test: :class:`SimClock` against the frame-list clock it replaced.

``ReferenceClock`` is the earlier implementation, kept verbatim in
behaviour: ``now_ns`` is a property that reads the innermost entry of a
list of ``[cursor, background]`` frames, ``in_background`` counts
background frames, and every ``advance_*`` branches on whether a frame
is active.  Hypothesis drives both clocks through the same sequences of
push (foreground/background, explicit/implicit start), ``advance_ns``,
``advance_to``, ``pop_frame``, nested frames and LIFO
``suspend_frames``/``resume_frames``, and after every step compares
``now_ns``, ``global_now_ns``, ``in_frame``, ``in_background`` and the
step's return value or exception type.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import SimClock


class ReferenceClock:
    """The frame-list clock, as it was before the cursor became a slot."""

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ValueError("clock cannot start before t=0")
        self._now_ns = start_ns
        self._frames: list = []
        self._background_depth = 0

    @property
    def now_ns(self) -> int:
        if self._frames:
            return self._frames[-1][0]
        return self._now_ns

    @property
    def global_now_ns(self) -> int:
        return self._now_ns

    @property
    def in_frame(self) -> bool:
        return bool(self._frames)

    @property
    def in_background(self) -> bool:
        return self._background_depth > 0

    def push_frame(self, start_ns: Optional[int] = None, background: bool = False) -> int:
        start = self.now_ns if start_ns is None else start_ns
        if start < 0:
            raise ValueError("frame cannot start before t=0")
        self._frames.append([start, background])
        if background:
            self._background_depth += 1
        return start

    def pop_frame(self) -> int:
        if not self._frames:
            raise RuntimeError("pop_frame with no active frame")
        cursor, background = self._frames.pop()
        if background:
            self._background_depth -= 1
        return cursor

    def suspend_frames(self) -> tuple:
        token = (self._frames, self._background_depth)
        self._frames = []
        self._background_depth = 0
        return token

    def resume_frames(self, token: tuple) -> None:
        frames, depth = token
        for frame in frames:
            if frame[0] < self._now_ns:
                frame[0] = self._now_ns
        self._frames = frames
        self._background_depth = depth

    def advance_ns(self, delta_ns: int) -> int:
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by {delta_ns}ns")
        if self._frames:
            frame = self._frames[-1]
            frame[0] += delta_ns
            return frame[0]
        self._now_ns += delta_ns
        return self._now_ns

    def advance_to(self, t_ns: int) -> int:
        if self._frames:
            frame = self._frames[-1]
            if t_ns > frame[0]:
                frame[0] = t_ns
            return frame[0]
        if t_ns > self._now_ns:
            self._now_ns = t_ns
        return self._now_ns


STEPS = st.one_of(
    st.tuples(
        st.just("push"),
        st.one_of(st.none(), st.integers(-3, 5_000)),
        st.booleans(),
    ),
    st.tuples(st.just("pop")),
    st.tuples(st.just("advance_ns"), st.integers(-2, 2_000)),
    st.tuples(st.just("advance_to"), st.integers(0, 6_000)),
    st.tuples(st.just("suspend")),
    st.tuples(st.just("resume")),
)


def _step(clock, tokens: list, step: tuple):
    """Apply one step; returns ``("ok", value)`` or ``("raise", type)``."""
    name = step[0]
    try:
        if name == "push":
            return "ok", clock.push_frame(step[1], background=step[2])
        if name == "pop":
            return "ok", clock.pop_frame()
        if name == "advance_ns":
            return "ok", clock.advance_ns(step[1])
        if name == "advance_to":
            return "ok", clock.advance_to(step[1])
        if name == "suspend":
            tokens.append(clock.suspend_frames())
            return "ok", None
        if tokens:  # resume: LIFO, each token once, as occ/cluster use it
            clock.resume_frames(tokens.pop())
        return "ok", None
    except (ValueError, RuntimeError) as exc:
        return "raise", type(exc)


def _observe(clock) -> tuple:
    return (clock.now_ns, clock.global_now_ns, clock.in_frame, clock.in_background)


@settings(max_examples=400, deadline=None)
@given(start=st.integers(0, 1_000), steps=st.lists(STEPS, max_size=60))
def test_clock_matches_reference(start, steps):
    new, ref = SimClock(start), ReferenceClock(start)
    new_tokens: list = []
    ref_tokens: list = []
    assert _observe(new) == _observe(ref)
    for step in steps:
        assert _step(new, new_tokens, step) == _step(ref, ref_tokens, step), step
        assert _observe(new) == _observe(ref), step


def test_nested_suspend_matches_reference():
    # suspend inside a background frame, frames pushed on the global clock
    # while suspended, a second suspend inside those, then unwinding
    script = [
        ("push", 100, True), ("advance_ns", 40), ("push", None, False),
        ("advance_ns", 5), ("suspend",), ("push", None, False),
        ("advance_ns", 300), ("suspend",), ("advance_ns", 900),
        ("resume",), ("advance_to", 2_000), ("pop",), ("advance_ns", 7),
        ("resume",), ("pop",), ("pop",), ("pop",),
    ]
    new, ref = SimClock(), ReferenceClock()
    new_tokens: list = []
    ref_tokens: list = []
    for step in script:
        assert _step(new, new_tokens, step) == _step(ref, ref_tokens, step), step
        assert _observe(new) == _observe(ref), step


def test_negative_advance_and_empty_pop_still_raise():
    clock = SimClock(50)
    with pytest.raises(ValueError):
        clock.advance_ns(-1)
    with pytest.raises(RuntimeError):
        clock.pop_frame()
    clock.push_frame(background=True)
    with pytest.raises(ValueError):
        clock.advance_ns(-5)
    with pytest.raises(ValueError):
        clock.push_frame(start_ns=-1)
    # the failed calls changed nothing
    assert (clock.now_ns, clock.global_now_ns, clock.in_frame, clock.in_background) == (
        50, 50, True, True,
    )
    assert clock.pop_frame() == 50
    with pytest.raises(RuntimeError):
        clock.pop_frame()
