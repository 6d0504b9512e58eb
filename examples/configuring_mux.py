#!/usr/bin/env python3
"""Configuring Mux (§4): find the best tiering policy for a given
workload by *measuring*, not guessing.

Because the whole stack runs on simulated time, a plain loop replays the
exact same deterministic request stream against a fresh stack per
registered policy and ranks them — different workloads pick different
winners, which is the paper's point about needing a configuration story.

Run:  python examples/configuring_mux.py
"""

from repro.bench.macro import fileserver, varmail, webserver
from repro.core.policy import registered_policies
from repro.stack import build_stack

MIB = 1024 * 1024
# a small PM tier creates real capacity pressure: placement and demotion
# decisions matter, so configurations genuinely diverge
CAPS = {"pm": 8 * MIB, "ssd": 32 * MIB, "hdd": 256 * MIB}

WORKLOADS = [
    ("varmail (fsync-heavy mail spool)", varmail, {"operations": 400}),
    (
        "webserver (hot-set reads + log)",
        webserver,
        {"files": 150, "operations": 600},
    ),
    (
        "fileserver (mixed create/read/append)",
        fileserver,
        {"files": 40, "operations": 300},
    ),
]


def evaluate(policy, workload, kwargs):
    """(ops/s, simulated seconds) of one workload on a fresh stack; the
    policy's background maintenance is part of the configuration's cost."""
    stack = build_stack(policy=policy, capacities=CAPS)
    start = stack.clock.now_ns
    result = workload(stack.mux, stack.clock, **kwargs)
    stack.mux.maintain()
    elapsed = (stack.clock.now_ns - start) / 1e9
    return result.operations / elapsed, elapsed


def main():
    for label, workload, kwargs in WORKLOADS:
        print(f"=== {label} ===")
        scores = [
            (*evaluate(policy, workload, kwargs), policy)
            for policy in registered_policies()
        ]
        scores.sort(key=lambda s: -s[0])
        for rank, (ops, elapsed, policy) in enumerate(scores, 1):
            marker = " <== best" if rank == 1 else ""
            print(
                f"  {rank}. {policy:10s} {ops:12,.0f} ops/s "
                f"({elapsed * 1e3:8.2f} ms simulated){marker}"
            )
        print()
    print("Same hardware, same requests — the right Mux configuration is")
    print("workload-dependent, and the simulator makes picking it cheap.")


if __name__ == "__main__":
    main()
