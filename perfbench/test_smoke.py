"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Runs one small op per workload untraced and traced, checks that the
printed metric names are exactly those of ``BENCHMARK.json``, that
traced counts repeat, that a corrupted output counts as a failed op, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_redar()

import redar  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--size", "tiny"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(capsys, workload):
    counts = []
    for _ in range(2):
        metrics = bench(capsys, workload, 1)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "B")})
    assert counts[0] == counts[1]


def _corrupt_rows(run_seed):
    def corrupted(config, seed, log=None):
        outcome = run_seed(config, seed, log)
        rows = tuple(dataclasses.replace(r, mse_fit=r.mse_fit * 1.001) for r in outcome.rows)
        return dataclasses.replace(outcome, rows=rows)

    return corrupted


def _corrupt_level(bound_inputs):
    def corrupted(*args, **kwargs):
        inputs = bound_inputs(*args, **kwargs)
        return dataclasses.replace(inputs, level=inputs.level * 0.5)

    return corrupted


def _corrupt_prediction(predict_with_model):
    def corrupted(*args, **kwargs):
        return predict_with_model(*args, **kwargs) + 1e-3

    return corrupted


CORRUPTIONS = {
    "sweep": (redar.experiments, "run_seed", _corrupt_rows),
    "bound": (redar.bounds, "bound_inputs", _corrupt_level),
    "order_select": (redar.realization, "predict_with_model", _corrupt_prediction),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(capsys, monkeypatch, workload):
    module, name, corrupt = CORRUPTIONS[workload]
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    result = bench(capsys, workload, 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
