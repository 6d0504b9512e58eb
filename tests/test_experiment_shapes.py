"""Shape assertions for the paper's headline claims, at tiny scale.

These run the same experiment code as the benchmark suite but with small
workloads, asserting only the *qualitative* results the paper reports:
who wins, which pairs are supported, which overheads are positive.
Magnitudes are recorded by the benches and EXPERIMENTS.md, not here.
"""

import pytest

from repro.bench import experiments
from repro.bench.experiments import (
    TIERS,
    experiment_fig3a,
    experiment_fig3b,
)


@pytest.fixture(scope="module")
def fig3a():
    return experiment_fig3a(file_mib=4)


@pytest.fixture(scope="module")
def fig3b():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "FIG3B_SPAN_MIB", 8)
        return experiment_fig3b(total_mib=4)


class TestFig3aShape:
    def test_mux_supports_all_six_pairs(self, fig3a):
        assert fig3a.mux_supported_pairs == 6

    def test_strata_supports_exactly_two(self, fig3a):
        assert fig3a.strata_supported_pairs == 2
        assert set(fig3a.strata) == {("pm", "ssd"), ("pm", "hdd")}

    def test_mux_faster_on_shared_pairs(self, fig3a):
        for pair in fig3a.strata:
            assert fig3a.mux[pair] > fig3a.strata[pair], pair

    def test_pm_ssd_speedup_direction(self, fig3a):
        """Paper: 2.59x; we require >1.3x (same story, simulator scale)."""
        assert fig3a.speedup_pm_ssd() > 1.3

    def test_throughputs_positive(self, fig3a):
        for value in list(fig3a.mux.values()) + list(fig3a.strata.values()):
            assert value > 0

    def test_fast_destinations_faster(self, fig3a):
        """Migrating into PM beats migrating into HDD from the same source."""
        assert fig3a.mux[("ssd", "pm")] > fig3a.mux[("ssd", "hdd")]


class TestFig3bShape:
    def test_mux_wins_every_device(self, fig3b):
        for tier in TIERS:
            assert fig3b.speedup(tier) > 1.0, tier

    def test_device_ordering_preserved(self, fig3b):
        """PM > SSD > HDD throughput for both systems."""
        for series in (fig3b.mux_mb_s, fig3b.strata_mb_s):
            assert series["pm"] > series["ssd"] > series["hdd"]


class TestOverheadShape:
    @pytest.fixture(scope="class")
    def reads(self):
        from repro.bench.experiments import experiment_read_overhead

        return experiment_read_overhead(iterations=150)

    def test_read_overhead_positive_everywhere(self, reads):
        for tier in TIERS:
            assert reads.overhead_pct(tier) > 0, tier

    def test_hdd_overhead_smallest(self, reads):
        assert reads.overhead_pct("hdd") < reads.overhead_pct("pm")
        assert reads.overhead_pct("hdd") < 25  # paper: 6.6%

    def test_native_latency_ordering(self, reads):
        assert reads.native_us["pm"] < reads.native_us["ssd"] < reads.native_us["hdd"]
