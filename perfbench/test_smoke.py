"""Smoke test of the benchmark at minimal length.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

LISTED = ("geodesic", "selftest")
WORKLOADS = LISTED + ("residual", "equivalence")


def run(root, workload, seed=3, trace=0, seconds=0.5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result(workload, **kwargs):
    done = run(ROOT, workload, **kwargs)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(LISTED)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_no_operation_fails(workload, trace):
    info, res = result(workload, trace=trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m[0]: m[1] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    assert res["attempted"] >= 1
    assert res["failed"] == 0 and res["correct"], info["failures"]
    if trace:
        assert res["metrics"]["error_rate"]["value"] == 0
        assert res["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())
    for key in ("commit", "python", "numpy", "nproc", "seed", "threads"):
        assert key in info


def test_same_seed_gives_identical_output():
    first, _ = result("residual", seed=5)
    second, _ = result("residual", seed=5)
    assert first["out_digest"] == second["out_digest"]


def test_failures_are_listed_per_input_with_exit_code():
    info, res = result("equivalence-sqrt")
    assert res["failed"] == sum(f["count"] for f in info["failures"])
    assert all(f["case"] and f["exit"] for f in info["failures"])
    assert res["correct"] == (res["failed"] == 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run(tmp_path, "geodesic")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
