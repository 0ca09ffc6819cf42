"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run_tiny(capsys, workload, trace, *extra):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny", *extra])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_workload_reports_every_metric(capsys, workload, trace):
    code, result = run_tiny(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    if trace:  # every layer ran: a layer that never ran would read null, not 0
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("fault", ["nan", "raise"])
@pytest.mark.parametrize("workload", ["train_ref", "forecast_online"])
def test_injected_fault_fails_the_run(capsys, monkeypatch, workload, fault):
    import gridcast.model
    import importlib

    def bad_forward(x, params, config, **kwargs):
        if fault == "raise":
            raise FloatingPointError("injected")
        B, _, N = np.shape(x)
        return gridcast.Tensor(np.full((B, config.F, N), np.nan)), None

    monkeypatch.setattr(importlib.import_module("gridcast.train"), "forward", bad_forward)
    monkeypatch.setattr(gridcast.model, "forward", bad_forward)
    code, result = run_tiny(capsys, workload, 0)
    assert code != 0 and not result["correct"]
    assert result["failed"] > 0 and result["failed"] <= result["attempted"]


def test_a_crashed_run_has_no_result():
    assert run.last_result("Traceback (most recent call last):\n  ...\n") is None
    assert run.last_result("") is None
    line = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    assert run.last_result("workload x\n" + json.dumps(line) + "\n") == line


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train_ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10.0, 10.1, 9.9, 10.0, 10.05], [9.0, 9.1, 8.9, 9.0, 9.05], "improved"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.05], "regressed"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [10.1, 10.0, 10.0, 9.95, 10.1], "unchanged"),
        ([10.0, 14.0, 6.0, 10.0, 12.0], [11.0, 15.0, 7.0, 11.0, 13.0], "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, "lower", 0.1) == expected


def test_compare_fails_a_change_whose_checks_failed(tmp_path, capsys):
    def write(path, correct, failed):
        with open(path, "w") as fh:
            for seed, value in enumerate([10.0, 10.1, 9.9, 10.0, 10.05]):
                metrics = {m["name"]: {"value": value * (0.5 if failed else 1.0),
                                       "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
                result = {"correct": correct, "attempted": 100, "failed": failed,
                          "metrics": metrics}
                fh.write(json.dumps({"workload": "train_ref", "seed": seed, "trace": 0,
                                     "result": result}) + "\n")

    write(tmp_path / "parent.jsonl", True, 0)
    write(tmp_path / "change.jsonl", False, 3)
    assert compare.main([str(tmp_path / "parent.jsonl"), str(tmp_path / "change.jsonl")]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "improved" not in out
    assert compare.main([str(tmp_path / "parent.jsonl")] * 2) == 0
