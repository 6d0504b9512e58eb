"""Hotspot profiler: ``python -m repro.bench profile <workload>``.

Runs any workload registered in the wall-clock harness under
:class:`SamplingProfiler`, a stdlib statistical sampler, and prints the
top-N functions by inclusive and by self share of host CPU.  This makes
perf work profile-guided: before optimising a path, run the closest
workload here and read where the host CPU actually goes (the simulated
clock is unaffected — profiling only observes the host).  Sampling the
stack on a CPU-time timer charges nothing per call, so cheap calls are
not inflated the way a tracing profiler inflates them; for call counts,
run ``python -m cProfile -m repro.bench profile …``.

Usage::

    PYTHONPATH=src python -m repro.bench profile metadata_churn
    PYTHONPATH=src python -m repro.bench profile seq_read --smoke --top 40
    PYTHONPATH=src python -m repro.bench profile --list
"""

from __future__ import annotations

import os
import signal
import sys
from collections import Counter
from typing import List

from repro.bench.harness import pop_flag_value, reject_unknown

DEFAULT_TOP_N = 25


def _registered():
    from repro.bench.wallclock import WORKLOADS

    return dict(WORKLOADS)


#: host CPU time between two stack samples
SAMPLE_INTERVAL_S = 0.001


class SamplingProfiler:
    """Statistical profiler on the process CPU-time timer (stdlib only).

    Used as a context manager: every ``SAMPLE_INTERVAL_S`` of host CPU
    time a ``SIGPROF`` handler walks the interrupted Python stack once and counts
    each function's code object as *inclusive* (on the stack; counted once
    per sample however deep the recursion) and the innermost one as
    *self*.  Time inside a C builtin is the self time of the Python
    function that called it.  Main thread only (signals are delivered
    there); the simulated clock is never touched.
    """

    def __init__(self) -> None:
        self.samples = 0
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self._previous = None

    @staticmethod
    def _key(frame):
        """The frame's code object; generated code (dataclass ``__init__``
        and friends live in ``<string>``) is told apart by its class."""
        code = frame.f_code
        owner = frame.f_locals.get("self") if code.co_filename == "<string>" else None
        return code if owner is None else (code, type(owner).__qualname__)

    def _on_sample(self, signum, frame) -> None:
        if frame is None:
            return
        self.samples += 1
        self.self_time[self._key(frame)] += 1
        seen = set()
        while frame is not None:
            key = self._key(frame)
            if key not in seen:
                seen.add(key)
                self.inclusive[key] += 1
            frame = frame.f_back

    def __enter__(self) -> "SamplingProfiler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    @staticmethod
    def label(key) -> str:
        """``module:qualname`` for code under a package, ``file:name`` for
        other files, ``<string>:Class.name`` for generated code."""
        if isinstance(key, tuple):
            code, owner = key
            return f"{code.co_filename}:{owner}.{code.co_name}"
        code = key
        path = code.co_filename
        parts = path.replace(os.sep, "/").split("/")
        if "repro" in parts:
            module = ".".join(parts[parts.index("repro") :])
        else:
            module = parts[-1]
        if module.endswith(".py"):
            module = module[:-3]
        return f"{module}:{code.co_qualname}"

    def shares(self, counts: Counter, top_n: int) -> List[tuple]:
        """``(share, label)`` of the ``top_n`` largest entries of ``counts``."""
        total = self.samples or 1
        return [(n / total, self.label(key)) for key, n in counts.most_common(top_n)]

    def report(self, top_n: int) -> str:
        lines = [
            f"{self.samples} samples, one per "
            f"{SAMPLE_INTERVAL_S * 1e3:g} ms of host CPU"
        ]
        for title, counts in (
            ("inclusive", self.inclusive),
            ("self", self.self_time),
        ):
            lines.append(f"top {top_n} functions by {title} share:")
            for share, label in self.shares(counts, top_n):
                lines.append(f"  {100 * share:6.2f} %  {label}")
        return "\n".join(lines) + "\n"


def sample_workload(name: str, smoke: bool, top_n: int) -> str:
    """Run one registered workload under :class:`SamplingProfiler`."""
    workloads = _registered()
    if name not in workloads:
        raise KeyError(name)
    with SamplingProfiler() as sampler:
        result = workloads[name](smoke)
    return (
        f"profile: {name} ({'smoke' if smoke else 'full'} size) — "
        f"sim={result['sim_elapsed_s']:.4f}s simulated\n" + sampler.report(top_n)
    )


USAGE = "usage: python -m repro.bench profile <workload> [--smoke] [--top N] | --list"


def main(argv: List[str]) -> int:
    argv = list(argv)
    workloads = _registered()
    try:
        top = pop_flag_value(argv, "--top", USAGE)
        top_n = int(top) if top is not None else DEFAULT_TOP_N
    except ValueError as exc:
        print(f"{exc}; {USAGE}", file=sys.stderr)
        return 2
    positional = [a for a in argv if not a.startswith("-")]
    reject_unknown(argv, ("--smoke", "--list", *positional[:1]), USAGE)
    if "--list" in argv or not positional:
        print("registered workloads:")
        for name in workloads:
            print(f"  {name}")
        print(USAGE)
        return 0 if "--list" in argv else 2
    name = positional[0]
    if name not in workloads:
        print(f"unknown workload {name!r}; --list shows choices; {USAGE}", file=sys.stderr)
        return 2
    print(sample_workload(name, smoke="--smoke" in argv, top_n=top_n))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
