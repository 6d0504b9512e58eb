"""Benchmark harness: workloads, system builders, paper experiments."""

from repro.bench.harness import (
    ResultRow,
    StrataStack,
    build_pinned_mux,
    build_strata,
    format_rows,
)
from repro.bench.macro import ALL_WORKLOADS, MacroResult, fileserver, varmail, webserver
from repro.bench.workloads import (
    LatencyResult,
    ThroughputResult,
    hot_set_reads,
    make_file,
    random_read_single_byte,
    random_write,
    sequential_write,
)

__all__ = [
    "ALL_WORKLOADS",
    "MacroResult",
    "fileserver",
    "varmail",
    "webserver",
    "ResultRow",
    "StrataStack",
    "build_pinned_mux",
    "build_strata",
    "format_rows",
    "LatencyResult",
    "ThroughputResult",
    "hot_set_reads",
    "make_file",
    "random_read_single_byte",
    "random_write",
    "sequential_write",
]
