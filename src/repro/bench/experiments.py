"""The paper's experiments (§3), each as a reusable function.

Every function builds fresh systems, runs the paper's workload at a
capacity-scaled size, and returns structured results together with the
paper's reported numbers so callers (pytest benchmarks, the CLI, and
EXPERIMENTS.md) can print paper-vs-measured tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench import workloads
from repro.bench.harness import (
    MIB,
    ResultRow,
    StrataStack,
    build_pinned_mux,
    build_strata,
    format_rows,
)
from repro.core.policy import MigrationOrder
from repro.errors import MigrationUnsupported
from repro.stack import build_stack
from repro.vfs.interface import OpenFlags

TIERS = ("pm", "ssd", "hdd")

#: §3.1/Fig. 3 numbers the paper reports
PAPER_MIGRATION_SPEEDUP_PM_SSD = 2.59
PAPER_IO_SPEEDUP = {"pm": 1.08, "ssd": 1.46, "hdd": 1.07}
#: §3.2 overheads (percent)
PAPER_READ_OVERHEAD = {"pm": 52.4, "ssd": 87.3, "hdd": 6.6}
PAPER_WRITE_OVERHEAD = {"pm": 1.6, "ssd": 2.2, "hdd": 3.5}


# ===========================================================================
# Figure 3a — migration matrix (extensibility + throughput)
# ===========================================================================


@dataclass
class Fig3aResult:
    #: (src, dst) -> MB/s; missing pair = N/S (unsupported)
    mux: Dict[Tuple[str, str], float] = field(default_factory=dict)
    strata: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @property
    def mux_supported_pairs(self) -> int:
        return len(self.mux)

    @property
    def strata_supported_pairs(self) -> int:
        return len(self.strata)

    def speedup_pm_ssd(self) -> Optional[float]:
        mux = self.mux.get(("pm", "ssd"))
        strata = self.strata.get(("pm", "ssd"))
        if not mux or not strata:
            return None
        return mux / strata

    def rows(self) -> List[ResultRow]:
        rows = []
        for src in TIERS:
            for dst in TIERS:
                if src == dst:
                    continue
                mux = self.mux.get((src, dst))
                strata = self.strata.get((src, dst))
                rows.append(
                    ResultRow(
                        "Fig3a",
                        f"{src}->{dst}",
                        "migration MB/s (Strata / Mux)",
                        "supported only for pm->ssd, pm->hdd",
                        f"{_fmt(strata)} / {_fmt(mux)}",
                    )
                )
        speedup = self.speedup_pm_ssd()
        rows.append(
            ResultRow(
                "Fig3a",
                "pm->ssd",
                "Mux/Strata migration speedup",
                f"{PAPER_MIGRATION_SPEEDUP_PM_SSD:.2f}x",
                f"{speedup:.2f}x" if speedup else "n/a",
            )
        )
        return rows


def _fmt(value: Optional[float]) -> str:
    return f"{value:.0f}" if value is not None else "N/S"


def experiment_fig3a(file_mib: int) -> Fig3aResult:
    """Measure migration throughput for every device pair, both systems."""
    result = Fig3aResult()
    size = file_mib * MIB

    for src in TIERS:
        for dst in TIERS:
            if src == dst:
                continue
            # ---- Mux: any pair works through the VFS ----------------------
            stack = build_pinned_mux(src, enable_cache=False)
            mux = stack.mux
            handle = workloads.make_file(mux, stack.clock, "/mig.bin", size)
            inode = mux.ns.get(handle.ino)
            end = inode.blt.end_block()
            mux.engine.migrate_now(
                MigrationOrder(
                    handle.ino,
                    0,
                    end,
                    stack.tier_id(src),
                    stack.tier_id(dst),
                    reason="fig3a",
                )
            )
            pair = (stack.tier_id(src), stack.tier_id(dst))
            result.mux[(src, dst)] = mux.engine.pair_stats[pair].throughput_mb_s()
            mux.close(handle)

            # ---- Strata: static routing -----------------------------------
            strata_stack = build_strata(pin_target=src)
            strata = strata_stack.fs
            s_handle = workloads.make_file(strata, strata_stack.clock, "/mig.bin", size)
            strata.digest()  # push everything out of the log to `src`
            blocks = size // strata.block_size
            try:
                strata.migrate_blocks("/mig.bin", 0, blocks, src, dst)
            except MigrationUnsupported:
                pass  # N/S cell
            else:
                result.strata[(src, dst)] = strata.pair_stats[
                    (src, dst)
                ].throughput_mb_s()
            strata.close(s_handle)
    return result


# ===========================================================================
# Figure 3b — per-device I/O throughput, Strata vs Mux
# ===========================================================================


@dataclass
class Fig3bResult:
    mux_mb_s: Dict[str, float] = field(default_factory=dict)
    strata_mb_s: Dict[str, float] = field(default_factory=dict)

    def speedup(self, tier: str) -> float:
        return self.mux_mb_s[tier] / self.strata_mb_s[tier]

    def rows(self) -> List[ResultRow]:
        rows = []
        for tier in TIERS:
            rows.append(
                ResultRow(
                    "Fig3b",
                    tier,
                    "Mux/Strata write throughput",
                    f"{PAPER_IO_SPEEDUP[tier]:.2f}x",
                    f"{self.speedup(tier):.2f}x "
                    f"({self.strata_mb_s[tier]:.0f} -> {self.mux_mb_s[tier]:.0f} MB/s)",
                )
            )
        return rows


#: Fig. 3b's random writes land anywhere in a 40 MiB span
FIG3B_SPAN_MIB = 40


def experiment_fig3b(total_mib: int) -> Fig3bResult:
    """Random 16 KiB writes always directed to one target device (both
    systems); the paper's microbenchmark measures streaming I/O, so no
    fsync until the end."""
    result = Fig3bResult()
    span_mib = FIG3B_SPAN_MIB
    for tier in TIERS:
        # ---- Mux ----------------------------------------------------------
        stack = build_pinned_mux(tier, enable_cache=False)
        res = workloads.random_write(
            stack.mux,
            stack.clock,
            "/io.bin",
            file_size=span_mib * MIB,
            total_bytes=total_mib * MIB,
        )
        result.mux_mb_s[tier] = res.mb_per_s

        # ---- Strata ---------------------------------------------------------
        strata_stack = build_strata(pin_target=tier)
        strata = strata_stack.fs
        clock = strata_stack.clock
        start_ns = clock.now_ns
        res = workloads.random_write(
            strata,
            clock,
            "/io.bin",
            file_size=span_mib * MIB,
            total_bytes=total_mib * MIB,
        )
        if tier != "pm":
            # data bound for SSD/HDD is not on its device until digested;
            # PM-bound data already lives on PM (the log *is* PM storage)
            strata.digest()
        elapsed = (clock.now_ns - start_ns) / 1e9
        result.strata_mb_s[tier] = (total_mib * MIB / 1e6) / elapsed
    return result


# ===========================================================================
# §3.2 — read latency overhead (Mux vs native, no tiering)
# ===========================================================================

# Both overhead experiments reach the native file system at its mount
# (``/tiers/<tier>``) and Mux at ``/mux`` through the same shared VFS, as
# the paper's baselines are reached through the kernel VFS: both sides pay
# the same dispatch cost, so the gap is Mux's alone.

#: file + device sizes per tier for the overhead experiments
OVERHEAD_SIZES = {
    "pm": {"caps": {"pm": 256 * MIB}, "file": 96 * MIB},
    "ssd": {"caps": {"ssd": 256 * MIB}, "file": 128 * MIB},
    "hdd": {"caps": {"hdd": 1024 * MIB}, "file": 256 * MIB},
}


@dataclass
class ReadOverheadResult:
    native_us: Dict[str, float] = field(default_factory=dict)
    mux_us: Dict[str, float] = field(default_factory=dict)

    def overhead_pct(self, tier: str) -> float:
        return 100.0 * (self.mux_us[tier] / self.native_us[tier] - 1.0)

    def rows(self) -> List[ResultRow]:
        return [
            ResultRow(
                "§3.2-read",
                tier,
                "1-byte random read latency overhead",
                f"+{PAPER_READ_OVERHEAD[tier]:.1f}%",
                f"+{self.overhead_pct(tier):.1f}% "
                f"({self.native_us[tier]:.2f} -> {self.mux_us[tier]:.2f} us)",
            )
            for tier in TIERS
        ]


def experiment_read_overhead(iterations: int) -> ReadOverheadResult:
    """Worst-case read path: one random byte from a large file."""
    result = ReadOverheadResult()
    for tier in TIERS:
        sizes = OVERHEAD_SIZES[tier]

        # ---- native file system through the VFS ----------------------------
        native = build_stack(tiers=[tier], capacities=sizes["caps"])
        path = f"/tiers/{tier}/big.bin"
        handle = workloads.make_file(native.vfs, native.clock, path, sizes["file"])
        native.vfs.close(handle)
        res = workloads.random_read_single_byte(
            native.vfs, native.clock, path, sizes["file"], iterations
        )
        result.native_us[tier] = res.mean_us

        # ---- Mux over the same single file system ----------------------------
        mux = build_pinned_mux(tier, tiers=[tier], capacities=sizes["caps"])
        handle = workloads.make_file(mux.vfs, mux.clock, "/mux/big.bin", sizes["file"])
        mux.vfs.close(handle)
        res = workloads.random_read_single_byte(
            mux.vfs, mux.clock, "/mux/big.bin", sizes["file"], iterations
        )
        result.mux_us[tier] = res.mean_us
    return result


# ===========================================================================
# §3.2 — write throughput overhead (Mux vs native, no tiering)
# ===========================================================================

WRITE_TOTALS = {"pm": 32 * MIB, "ssd": 128 * MIB, "hdd": 192 * MIB}


@dataclass
class WriteOverheadResult:
    native_mb_s: Dict[str, float] = field(default_factory=dict)
    mux_mb_s: Dict[str, float] = field(default_factory=dict)

    def overhead_pct(self, tier: str) -> float:
        return 100.0 * (1.0 - self.mux_mb_s[tier] / self.native_mb_s[tier])

    def rows(self) -> List[ResultRow]:
        return [
            ResultRow(
                "§3.2-write",
                tier,
                "4 MiB sequential write throughput loss",
                f"-{PAPER_WRITE_OVERHEAD[tier]:.1f}%",
                f"-{self.overhead_pct(tier):.1f}% "
                f"({self.native_mb_s[tier]:.0f} -> {self.mux_mb_s[tier]:.0f} MB/s)",
            )
            for tier in TIERS
        ]


def experiment_write_overhead() -> WriteOverheadResult:
    """Sequential 4 MiB writes, Mux vs the native file system."""
    result = WriteOverheadResult()
    for tier in TIERS:
        sizes = OVERHEAD_SIZES[tier]
        total = WRITE_TOTALS[tier]

        native = build_stack(tiers=[tier], capacities=sizes["caps"])
        res = workloads.sequential_write(
            native.vfs, native.clock, f"/tiers/{tier}/seq.bin", total
        )
        result.native_mb_s[tier] = res.mb_per_s

        mux = build_pinned_mux(tier, tiers=[tier], capacities=sizes["caps"])
        res = workloads.sequential_write(mux.vfs, mux.clock, "/mux/seq.bin", total)
        result.mux_mb_s[tier] = res.mb_per_s
    return result


# ===========================================================================
# CLI: run everything, print paper-vs-measured
# ===========================================================================


def run_all(fast: bool) -> str:
    """Run every experiment; returns the combined report text."""
    sections: List[str] = []
    fig3a = experiment_fig3a(file_mib=8 if fast else 16)
    sections.append(format_rows(fig3a.rows(), "== Figure 3a: migration matrix =="))
    fig3b = experiment_fig3b(total_mib=12 if fast else 24)
    sections.append(format_rows(fig3b.rows(), "== Figure 3b: device I/O =="))
    reads = experiment_read_overhead(iterations=400 if fast else 1200)
    sections.append(format_rows(reads.rows(), "== §3.2 read latency overhead =="))
    writes = experiment_write_overhead()
    sections.append(format_rows(writes.rows(), "== §3.2 write throughput overhead =="))
    return "\n\n".join(sections)
