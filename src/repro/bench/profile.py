"""Hotspot profiler: ``python -m repro.bench profile <workload>``.

Runs any workload registered in the wall-clock harness under
:mod:`cProfile` and prints the top-N functions by cumulative host time.
This makes perf work profile-guided: before optimising a path, run the
closest workload here and read where the host CPU actually goes (the
simulated clock is unaffected — profiling only observes the host).

Usage::

    PYTHONPATH=src python -m repro.bench profile metadata_churn
    PYTHONPATH=src python -m repro.bench profile seq_read --smoke -n 40
    PYTHONPATH=src python -m repro.bench profile hot_set_reads --sort tottime
    PYTHONPATH=src python -m repro.bench profile --list
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from typing import List, Optional

from repro.bench.harness import pop_flag_value

DEFAULT_TOP_N = 25

#: pstats sort keys accepted by --sort; "cumulative" finds the expensive
#: call path, "tottime" finds the function burning the cycles itself
SORT_KEYS = ("cumulative", "tottime", "ncalls")


def _registered():
    from repro.bench.wallclock import WORKLOADS

    return dict(WORKLOADS)


def profile_workload(
    name: str,
    smoke: bool = False,
    top_n: int = DEFAULT_TOP_N,
    sort: str = "cumulative",
) -> str:
    """Run one registered workload under cProfile; returns the report text."""
    workloads = _registered()
    if name not in workloads:
        raise KeyError(name)
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, not {sort!r}")
    fn = workloads[name]
    profiler = cProfile.Profile()
    profiler.enable()
    result = fn(smoke)
    profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats(sort)
    stats.print_stats(top_n)
    header = (
        f"profile: {name} ({'smoke' if smoke else 'full'} size) — "
        f"wall={result['wall_s']:.3f}s host, "
        f"sim={result['sim_elapsed_s']:.4f}s simulated\n"
        f"top {top_n} functions by {sort} host time:\n"
    )
    return header + buf.getvalue()


USAGE = (
    "usage: python -m repro.bench profile <workload> [--smoke] [-n N]"
    " [--sort cumulative|tottime|ncalls] | --list"
)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    workloads = _registered()
    try:
        top = pop_flag_value(argv, "-n", USAGE) or pop_flag_value(argv, "--top", USAGE)
        top_n = int(top) if top is not None else DEFAULT_TOP_N
    except ValueError as exc:
        print(f"{exc}; {USAGE}", file=sys.stderr)
        return 2
    sort = pop_flag_value(argv, "--sort", USAGE) or "cumulative"
    if sort not in SORT_KEYS:
        print(f"--sort must be one of {', '.join(SORT_KEYS)}; {USAGE}", file=sys.stderr)
        return 2
    positional = [a for a in argv if not a.startswith("-")]
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
    print(profile_workload(name, smoke="--smoke" in argv, top_n=top_n, sort=sort))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
