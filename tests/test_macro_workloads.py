"""Macro workload generators: determinism, correctness, portability."""

import pytest

from repro.bench.macro import ALL_WORKLOADS, fileserver, varmail, webserver
from repro.stack import build_stack

MIB = 1024 * 1024


@pytest.fixture
def small_stack():
    return build_stack(
        capacities={"pm": 16 * MIB, "ssd": 64 * MIB, "hdd": 128 * MIB}
    )


class TestWorkloadMechanics:
    def test_fileserver_runs_on_mux(self, small_stack):
        result = fileserver(
            small_stack.mux, small_stack.clock, files=6, operations=60
        )
        assert result.operations == 60
        assert result.ops_per_sec > 0
        assert sum(result.op_mix.values()) == 60

    def test_fileserver_runs_on_native(self, ext4, clock):
        result = fileserver(ext4, clock, files=4, operations=40)
        assert result.operations == 40

    def test_webserver_hot_set_skew(self, small_stack):
        result = webserver(
            small_stack.mux, small_stack.clock, files=20, operations=100
        )
        assert result.op_mix["page-read"] == 100
        assert result.op_mix["log-append"] == 100

    def test_varmail_fsyncs(self, small_stack):
        before = small_stack.mux.stats.get("fsync")
        result = varmail(small_stack.mux, small_stack.clock, operations=40)
        assert small_stack.mux.stats.get("fsync") > before
        assert result.operations == 40

    def test_determinism(self):
        def run():
            stack = build_stack(
                capacities={"pm": 16 * MIB, "ssd": 64 * MIB, "hdd": 128 * MIB}
            )
            return fileserver(stack.mux, stack.clock, files=5, operations=50).elapsed_s

        assert run() == run()

    def test_all_workloads_registry(self):
        assert set(ALL_WORKLOADS) == {"fileserver", "webserver", "varmail"}

    def test_filesystem_consistent_after_workloads(self, small_stack):
        from repro.tools.fsck import check_mux, check_native_fs

        for workload in ALL_WORKLOADS.values():
            workload(small_stack.mux, small_stack.clock, operations=30)
        small_stack.mux.maintain()
        assert check_mux(small_stack.mux, deep=True) == []
        for fs in small_stack.filesystems.values():
            assert check_native_fs(fs) == []

    def test_summary_string(self, small_stack):
        result = varmail(small_stack.mux, small_stack.clock, operations=10)
        text = result.summary()
        assert "varmail" in text
        assert "ops/s" in text
