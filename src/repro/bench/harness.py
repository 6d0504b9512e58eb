"""Shared system builders + result reporting for the benchmark suite."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.policies import PinnedPolicy
from repro.devices.hdd import HardDiskDrive
from repro.devices.pm import PersistentMemoryDevice
from repro.devices.ssd import SolidStateDrive
from repro.sim.clock import SimClock
from repro.stack import DEFAULT_CAPACITIES, Stack, build_stack
from repro.strata.fs import StrataFileSystem

MIB = 1024 * 1024


def pop_flag_value(argv: List[str], flag: str, usage: str) -> Optional[str]:
    """Remove ``flag VALUE`` from ``argv`` and return VALUE (None when the
    flag is absent); a flag with no value exits 2 with ``usage`` on one line."""
    if flag not in argv:
        return None
    at = argv.index(flag)
    if at + 1 >= len(argv) or argv[at + 1].startswith("--"):
        print(f"{flag} requires a value; {usage}", file=sys.stderr)
        raise SystemExit(2)
    value = argv[at + 1]
    del argv[at : at + 2]
    return value


def reject_unknown(argv: List[str], known, usage: str) -> None:
    """Exit 2 with ``usage`` on one line if ``argv`` (value flags already
    popped) holds anything outside ``known`` — before any work starts."""
    unknown = [arg for arg in argv if arg not in known]
    if unknown:
        print(f"unknown argument {unknown[0]!r}; {usage}", file=sys.stderr)
        raise SystemExit(2)


@dataclass
class StrataStack:
    """A Strata instance plus its devices and clock."""

    clock: SimClock
    fs: StrataFileSystem
    devices: Dict[str, object]


def build_strata(
    capacities: Optional[Dict[str, int]] = None,
    pin_target: Optional[str] = None,
) -> StrataStack:
    """Assemble Strata over the paper's three devices."""
    caps = dict(DEFAULT_CAPACITIES)
    if capacities:
        caps.update(capacities)
    clock = SimClock()
    pm = PersistentMemoryDevice("pm0", caps["pm"], clock)
    ssd = SolidStateDrive("ssd0", caps["ssd"], clock)
    hdd = HardDiskDrive("hdd0", caps["hdd"], clock)
    fs = StrataFileSystem("strata", pm, ssd, hdd, clock, pin_target=pin_target)
    return StrataStack(clock, fs, {"pm": pm, "ssd": ssd, "hdd": hdd})


def build_pinned_mux(
    target: str,
    tiers: Optional[List[str]] = None,
    capacities: Optional[Dict[str, int]] = None,
    enable_cache: bool = True,
) -> Stack:
    """A Mux stack whose policy pins every write to ``target``."""
    tiers = tiers if tiers is not None else ["pm", "ssd", "hdd"]
    stack = build_stack(
        tiers=tiers,
        capacities=capacities,
        policy=PinnedPolicy(0),  # placeholder; fixed below once ids exist
        enable_cache=enable_cache,
    )
    stack.mux.policy = PinnedPolicy(stack.tier_id(target))
    return stack


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


@dataclass
class ResultRow:
    """One paper-vs-measured comparison line."""

    experiment: str
    config: str
    metric: str
    paper: str
    measured: str

    def formatted(self, widths: List[int]) -> str:
        cells = [self.experiment, self.config, self.metric, self.paper, self.measured]
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))


def format_rows(rows: List[ResultRow], title: str) -> str:
    header = ResultRow("experiment", "config", "metric", "paper", "measured")
    all_rows = [header] + rows
    widths = [
        max(len(getattr(r, f)) for r in all_rows)
        for f in ("experiment", "config", "metric", "paper", "measured")
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(header.formatted(widths))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(row.formatted(widths) for row in rows)
    return "\n".join(lines)
