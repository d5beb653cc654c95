"""Self-test of the benchmark: every workload at a tiny size, in seconds.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run  # noqa: E402
from ldrlle import diagnostics, weights  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY = {
    "roll8k_ldr": {"n": 300, "pool": 2, "warmup_n": 100},
    "scurve2k_classical_cli": {"n": 200, "pool": 2, "warmup_n": 100},
    "perturb_cross": {"trials": 20, "pool": 10, "warmup_trials": 5},
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    spec = copy.deepcopy(bench.SPEC)
    for name, params in TINY.items():
        spec["workloads"][name]["params"].update(params)
    monkeypatch.setattr(bench, "SPEC", spec)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)


def _result(capsys, workload, trace, seconds=0.5):
    assert run.main(["--workload", workload, "--seed", "3",
                     "--seconds", str(seconds), "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == set(bench.SPEC["workloads"])
    for w in BENCHMARK["workloads"]:
        assert w["why"] and "\n" not in w["why"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_match_the_pipeline(capsys):
    metrics = _result(capsys, "roll8k_ldr", 1)["metrics"]
    n = TINY["roll8k_ldr"]["n"]
    assert metrics["weights.per_point_calls"]["value"] == 3 * n
    assert metrics["neighbors.knn.calls"]["value"] == 1
    assert metrics["embedding.m_nnz"]["value"] > n
    assert metrics["weights.lle_weights.calls"]["value"] == 0


def test_corrupted_weights_count_as_failed_operations(capsys, monkeypatch):
    """A W whose rows do not sum to one fails its operation; the run goes on."""
    original = weights.assemble_weight_matrix
    n = TINY["roll8k_ldr"]["n"]
    calls = []

    def corrupt(X, graph, method, **kwargs):
        W, spectra = original(X, graph, method, **kwargs)
        if len(X) == n:
            calls.append(1)
            if len(calls) % 2:
                W = W * 1.01
        return W, spectra

    monkeypatch.setattr(weights, "assemble_weight_matrix", corrupt)
    result = _result(capsys, "roll8k_ldr", 0, seconds=1.0)
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]


def test_non_strict_json_sidecar_is_a_failure(capsys, monkeypatch):
    original = diagnostics.linear_projection_diagnostic

    def nan_phi(*args, **kwargs):
        diag = original(*args, **kwargs)
        diag.phi_value = float("nan")
        return diag

    monkeypatch.setattr(diagnostics, "linear_projection_diagnostic", nan_phi)
    result = _result(capsys, "scurve2k_classical_cli", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
