"""Benchmark harness: workloads are deterministic and systems comparable."""

import json
from pathlib import Path

import pytest

from repro.bench import workloads
from repro.bench.harness import build_pinned_mux, build_strata, format_rows, ResultRow
from repro.stack import build_stack

MIB = 1024 * 1024


class TestWorkloads:
    def test_make_file(self):
        stack = build_stack(enable_cache=False)
        handle = workloads.make_file(stack.mux, stack.clock, "/f", 2 * MIB)
        assert stack.mux.getattr("/f").size == 2 * MIB
        stack.mux.close(handle)

    def test_sequential_write_throughput(self):
        stack = build_stack(enable_cache=False)
        res = workloads.sequential_write(stack.mux, stack.clock, "/f", 4 * MIB)
        assert res.bytes_moved == 4 * MIB
        assert res.mb_per_s > 0

    def test_random_write_deterministic(self):
        def run():
            stack = build_stack(enable_cache=False)
            return workloads.random_write(
                stack.mux, stack.clock, "/f", 4 * MIB, 1 * MIB
            ).elapsed_s

        assert run() == run()

    def test_random_read_single_byte(self):
        stack = build_stack(enable_cache=False)
        handle = workloads.make_file(stack.mux, stack.clock, "/f", 1 * MIB)
        stack.mux.close(handle)
        res = workloads.random_read_single_byte(
            stack.mux, stack.clock, "/f", 1 * MIB, iterations=50
        )
        assert res.operations == 50
        assert res.mean_us > 0

    def test_hot_set_reads(self):
        stack = build_stack(enable_cache=False)
        handle = workloads.make_file(stack.mux, stack.clock, "/f", 1 * MIB)
        stack.mux.close(handle)
        res = workloads.hot_set_reads(
            stack.mux, stack.clock, "/f", 1 * MIB, 64 * 1024, iterations=40
        )
        assert res.operations == 40


class TestBuilders:
    def test_build_strata(self):
        strata_stack = build_strata(pin_target="ssd")
        assert strata_stack.fs.pin_target == "ssd"
        strata_stack.fs.write_file("/f", b"x")
        assert strata_stack.fs.read_file("/f") == b"x"

    def test_build_pinned_mux(self):
        stack = build_pinned_mux("hdd", enable_cache=False)
        stack.mux.write_file("/f", b"x" * 4096)
        assert stack.vfs.exists("/tiers/hdd/f")


class TestReporting:
    def test_format_rows(self):
        rows = [ResultRow("E", "cfg", "metric", "1.0x", "1.1x")]
        text = format_rows(rows, "title")
        assert "title" in text
        assert "metric" in text
        assert "1.1x" in text


class TestTraceCli:
    """``python -m repro.bench trace`` argv handling: ``--no-faults`` is
    the only argument."""

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["--ops", "20"], "unknown argument '--ops'"),
            (["--no-faults", "--seed", "7"], "unknown argument '--seed'"),
            (["--cluster"], "unknown argument '--cluster'"),
            (["--write-back"], "unknown argument '--write-back'"),
            (["--drr"], "unknown argument '--drr'"),
            (["--no-faults", "bogus"], "unknown argument 'bogus'"),
            (["--readahead-bg"], "unknown argument '--readahead-bg'"),
        ],
    )
    def test_bad_argv_is_one_usage_line_and_exit_2(self, argv, complaint, capsys):
        from repro.bench.trace import main

        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any workload ran
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert complaint in lines[0] and "usage: python -m repro.bench trace" in lines[0]

    def test_wallclock_shares_the_flag_helper(self, capsys):
        from repro.bench.wallclock import main

        with pytest.raises(SystemExit) as exc:
            main(["--smoke", "--out"])
        assert exc.value.code == 2
        assert "--out requires a value" in capsys.readouterr().err

    def test_one_run_prints_every_section(self, capsys):
        from repro.bench.trace import main

        assert main(["--no-faults"]) == 0
        out = capsys.readouterr().out
        for section in (
            "cache:", "migrations (no faults):", "engine totals:", "fairness:",
            "scheduler:", "device ssd:", "readahead:", "page caches:",
            "metafile:", "pressure:", "cluster:", "rebalance:",
        ):
            assert section in out, section
        assert "write_hit=0 " not in out  # the write-back cache absorbed writes
        assert "readahead: bg_blocks=0 " not in out
        # the mixed stack's metafile lives on PM: every append is a DAX one
        (metafile,) = [line for line in out.splitlines() if line.startswith("metafile:")]
        assert " dax_appends=0 " not in metafile and " write_appends=0 " in metafile
        assert " growth_writes=0 " not in metafile


class TestWallclockCli:
    """``python -m repro.bench [wallclock]``: a typo may not start the
    multi-minute full run (which rewrites the goldens), and the smoke
    guard may not skip what it cannot compare."""

    GOLDENS = Path(__file__).resolve().parent.parent / "BENCH_wallclock.json"

    def _one_usage_line(self, capsys, complaint, usage):
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any workload ran
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert complaint in lines[0] and usage in lines[0]

    @pytest.mark.parametrize("argv", [["--smok"], ["--smoke", "extra"]])
    def test_unknown_wallclock_argument_exits_2(self, argv, tmp_path, capsys):
        from repro.bench.wallclock import main

        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        self._one_usage_line(
            capsys, f"unknown argument {argv[-1]!r}", "usage: python -m repro.bench wallclock"
        )

    @pytest.mark.parametrize("arg", ["walclock", "--fats"])
    def test_unknown_subcommand_exits_2(self, arg, monkeypatch, capsys):
        from repro.bench.__main__ import main

        monkeypatch.setattr("sys.argv", ["repro.bench", arg])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        self._one_usage_line(
            capsys, f"unknown argument {arg!r}", "usage: python -m repro.bench [--fast]"
        )

    def test_every_workload_has_both_goldens_and_no_golden_is_orphaned(self):
        from repro.bench.wallclock import WORKLOADS

        doc = json.loads(self.GOLDENS.read_text())
        names = {name for name, _ in WORKLOADS}
        assert len(names) == len(WORKLOADS) == 19
        assert names == set(doc["golden_sim"]) == set(doc["golden_sim_smoke"])

    def test_smoke_fails_on_a_missing_or_orphaned_golden(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.bench import wallclock

        registered = dict(wallclock.WORKLOADS)
        monkeypatch.setattr(
            wallclock,
            "WORKLOADS",
            [(n, registered[n]) for n in ("seq_read", "metadata_churn")],
        )
        smoke = json.loads(self.GOLDENS.read_text())["golden_sim_smoke"]
        out = tmp_path / "bench.json"
        out.write_text(
            json.dumps(
                {"golden_sim_smoke": {"seq_read": smoke["seq_read"], "gone": {}}}
            )
        )
        assert wallclock.main(["--smoke", "--out", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "seq_read: ok" in printed
        assert "metadata_churn: NO GOLDEN RECORDED" in printed
        assert "gone: GOLDEN WITHOUT A WORKLOAD" in printed

    def test_diff_tabulates_every_moved_golden_field_and_runs_nothing(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.bench import wallclock

        monkeypatch.setattr(wallclock, "WORKLOADS", [])  # a run would be empty
        fp = {"now_ns": 100, "devices": {"pm": {"write_ops": 4, "seeks": 0}}}
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps({"golden_sim": {"a": fp, "b": fp}, "golden_sim_smoke": {"a": fp}}))
        moved = {"now_ns": 50, "devices": {"pm": {"write_ops": 4, "seeks": 0}}, "x": 1}
        new.write_text(json.dumps({"golden_sim": {"a": moved, "b": fp}, "golden_sim_smoke": {"a": fp}}))
        assert wallclock.main(["--diff", str(old), "--out", str(new)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("2 golden field(s) moved")
        assert lines[-2:] == [
            "| `a` | full | `now_ns` | 100 | 50 | 0.500x |",
            "| `a` | full | `x` | None | 1 | - |",
        ]
        assert wallclock.main(["--diff", str(tmp_path / "none.json"), "--out", str(new)]) == 2
        assert wallclock.main(["--diff", str(old), "--smoke"]) == 2


class TestRunWorkloads:
    """``run_workloads`` repeats each workload and compares fingerprints."""

    def test_a_fingerprint_that_changes_between_reps_is_named(self, monkeypatch):
        from repro.bench import wallclock

        reps = []

        def flaky(smoke):
            reps.append(smoke)
            return {"sim_elapsed_s": 0.0, "fingerprint": {"now_ns": len(reps)}}

        registered = dict(wallclock.WORKLOADS)
        monkeypatch.setattr(
            wallclock,
            "WORKLOADS",
            [("metadata_churn", registered["metadata_churn"]), ("flaky", flaky)],
        )
        monkeypatch.setattr(wallclock, "SMOKE_REPS", 2)
        with pytest.raises(RuntimeError, match="workload 'flaky' rep 1"):
            wallclock.run_workloads(smoke=True)
        assert reps == [True, True]

    def test_a_stable_workload_records_simulated_values_only(self, monkeypatch):
        from repro.bench import wallclock

        registered = dict(wallclock.WORKLOADS)
        monkeypatch.setattr(
            wallclock, "WORKLOADS", [("metadata_churn", registered["metadata_churn"])]
        )
        monkeypatch.setattr(wallclock, "SMOKE_REPS", 2)
        record = wallclock.run_workloads(smoke=True)["metadata_churn"]
        assert set(record) == {"sim_elapsed_s", "fingerprint"}
        assert record["sim_elapsed_s"] > 0
        assert record["fingerprint"]["now_ns"] > 0


class TestCrashexploreCli:
    """``python -m repro.bench crashexplore``: a typo may not start the
    full sweep in place of the smoke subset."""

    @pytest.mark.parametrize("argv", [["--smok"], ["--smoke", "extra"], ["-s"]])
    def test_unknown_argument_exits_2_before_the_sweep(self, argv, capsys):
        from repro.tools.crashexplore import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any state was explored
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert f"unknown argument {argv[-1]!r}" in lines[0]
        assert "usage: python -m repro.bench crashexplore" in lines[0]


class TestProfileCli:
    """``python -m repro.bench profile`` argv handling (same flag helper)."""

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["seq_read", "--top"], "--top requires a value"),
            (["seq_read", "--top", "--smoke"], "--top requires a value"),
            (["seq_read", "--top", "many"], "invalid literal"),
            # a misspelt flag, or a second spelling of --top, may not be
            # ignored while the workload runs
            (["metadata_churn", "--smoke", "--sampel"], "unknown argument '--sampel'"),
            (["seq_read", "-n", "3", "--top", "5"], "unknown argument '-n'"),
            (["no_such_workload"], "unknown workload 'no_such_workload'"),
        ],
    )
    def test_bad_argv_is_one_usage_line_and_exit_2(self, argv, complaint, capsys):
        from repro.bench.profile import main

        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any workload ran
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert complaint in lines[0] and "usage: python -m repro.bench profile" in lines[0]

    def test_list_and_no_workload(self, capsys):
        from repro.bench.profile import main

        assert main(["--list"]) == 0
        assert "seq_read" in capsys.readouterr().out
        assert main(["--smoke"]) == 2  # nothing named: listing, exit 2

    def test_value_flags_are_honoured(self, capsys):
        from repro.bench.profile import main

        assert main(["metadata_churn", "--smoke", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 functions by self share" in out

    def test_sample_reports_inclusive_and_self_shares(self, capsys):
        from repro.bench.profile import main

        assert main(["mirror_skew", "--smoke", "--top", "4"]) == 0
        out = capsys.readouterr().out
        assert "samples, one per 1 ms of host CPU" in out
        inclusive, self_time = out.split("top 4 functions by inclusive share:")[1].split(
            "top 4 functions by self share:"
        )
        assert len(inclusive.strip().splitlines()) == 4
        assert len(self_time.strip().splitlines()) == 4
        assert "repro.bench.wallclock:" in inclusive

    def test_sampler_attributes_self_and_inclusive_time(self):
        from repro.bench.profile import SamplingProfiler

        def leaf():
            return sum(i * i for i in range(20_000))

        def caller():
            for _ in range(200):
                leaf()

        with SamplingProfiler() as sampler:
            caller()
        assert sampler.samples > 0
        inclusive = dict((label, share) for share, label in sampler.shares(sampler.inclusive, 50))
        label = next(name for name in inclusive if name.endswith(".caller"))
        assert inclusive[label] > 0.9  # on the stack for (nearly) every sample
