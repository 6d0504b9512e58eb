"""``run.py --smoke`` end to end, and the driver's contract."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from muxbench import measure, run
from muxbench.metrics import END_TO_END, GATED, per_layer_metrics
from muxbench.workloads import BY_NAME, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAMES = [w.name for w in WORKLOADS]


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_smoke_emits_every_end_to_end_metric(name, capsys):
    code = run.main(["--workload", name, "--smoke", "--seed", "5", "--trace", "0"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in GATED]
    for metric in GATED:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
        assert entry["value"] != 0, metric.name
    for metric in END_TO_END:  # the report names every metric, gated or not
        assert f" {metric.name} " in out


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_pass_reproduces_the_fingerprint(name, capsys):
    code = run.main(["--workload", name, "--smoke", "--seed", "5", "--trace", "1"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert "fingerprint equals the untraced pass" in out
    assert "layers_missing=none" in out
    assert list(result["metrics"]) == [m.name for m in per_layer_metrics()]
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls_per_op")}
    if name == "cluster_tenants":
        assert calls["cluster.calls_per_op"] > 0 and calls["fs.nfs.calls_per_op"] > 0
    else:
        assert calls["cluster.calls_per_op"] == 0
    if name == "meta_churn":
        # the bypass workload: no data-path layer runs, bar the cache's
        # invalidate_file that every unlink issues
        for layer in ("core.ring", "core.migration", "core.mirror", "fscommon.pagecache"):
            assert calls[f"{layer}.calls_per_op"] == 0
        assert result["metrics"]["core.cache.host_self_share"]["value"] < 0.01
        assert result["metrics"]["devices.pm.bytes_per_user_byte"]["value"] == 0
    assert (run.OUT_DIR / f"{name}.trace.json").is_file()


def test_a_corrupted_read_fails_the_run():
    workload = BY_NAME["zipf_read_cold"]
    plan = workload.plan(workload, 3, workload.phase_ops(10, True), True)
    rig = workload.build(workload, plan, True)
    rig.populate(plan)
    mux = rig.stacks[0].mux
    honest = mux.read

    def corrupting(handle, offset, length):
        data = bytearray(honest(handle, offset, length))
        data[-1] ^= 0xFF
        return bytes(data)

    mux.read = corrupting
    result = rig.run_phase(plan.phases[1], lambda index: None)
    assert result.checked_reads > 0 and result.mismatches == result.checked_reads
    assert rig.sweep()[1] == len(plan.populate)


def test_same_seed_same_simulated_numbers():
    workload = BY_NAME["fileserver_sync"]
    a = measure.run_once(workload, 9, 10, smoke=True, setups=1)
    b = measure.run_once(workload, 9, 10, smoke=True, setups=1)
    c = measure.run_once(workload, 10, 10, smoke=True, setups=1)
    assert a.fingerprint == b.fingerprint != c.fingerprint
    va, vb = measure.end_to_end(a), measure.end_to_end(b)
    for metric in END_TO_END:
        if metric.exact:
            assert va[metric.name].value == vb[metric.name].value, metric.name


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["muxbench"]
    assert spec["command"] == ["python3", "muxbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == NAMES
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in GATED
    ]
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in per_layer_metrics()
    ]
    assert 1 <= len(spec["per_layer"]) <= 128
    setup = spec["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(
        ROOT / "muxbench", tmp_path / "muxbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "muxbench/run.py", "--workload", "meta_churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
