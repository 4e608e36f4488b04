"""Self-test of the benchmark: smoke runs and the reference check.

    python3 -m pytest -q perfbench/test_perfbench.py

Each test runs `run.py --smoke`, one pass at tiny sizes (a few seconds).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(*args):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
         *args], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct(workload):
    details, result = _run("--workload", workload, "--seed", "7")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_is_one_failed_task(tmp_path):
    refs = json.loads((HERE / "reference.json").read_text())
    task = workloads.plan("counts", 7, tiny=True)[0]
    ref = refs[task["key"]]
    ref["floats"][0] *= 1 + 1e-6
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(refs))
    details, result = _run("--workload", "counts", "--seed", "7",
                           "--reference", str(bad))
    assert not result["correct"]
    assert result["failed"] == 1
    assert list(details["errors"]) == [task["id"]]


def test_traced_smoke_reports_every_per_layer_metric():
    details, result = _run("--workload", "slopes", "--seed", "7",
                           "--trace", "1")
    assert result["correct"], details["errors"]
    names = {name for name, _, _ in tracing.PER_LAYER}
    assert set(result["metrics"]) | set(details["missing_metrics"]) == names
    assert result["metrics"]["lattice.newton_polygon.calls"]["value"] > 0


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_input_a_seed_can_draw_has_a_reference():
    refs = json.loads((HERE / "reference.json").read_text())
    for workload in workloads.WORKLOADS:
        for tiny in (False, True):
            for inst in workloads.all_instances(workload, tiny):
                assert inst["key"] in refs, inst["key"]
