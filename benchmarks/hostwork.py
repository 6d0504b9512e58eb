"""Count, not time, the host work a step spends in chosen modules.

A timed ratio assert ("cost does not follow N") reads host time, which
a shared host can spread by more than the ratio it checks.  Its counted
twin reads the calls and lines a step spends in the code under test:
those are the same on every run and every host, and a scan of the grown
population adds to them as surely as it adds to the time.
"""

import sys


def code_work(step, steps: int, *modules) -> tuple:
    """``(calls, lines)`` that ``steps`` calls of ``step`` spend in the code
    of ``modules``: Python and C calls made into or from those files
    (``sys.setprofile``) and the lines they execute (``sys.settrace``).
    Work the step does in any other module is not counted."""
    files = {module.__file__ for module in modules}
    calls = lines = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call") and frame.f_code.co_filename in files:
            calls += 1

    def trace_lines(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return trace_lines

    def trace(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in files else None

    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        for _ in range(steps):
            step()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return calls, lines
