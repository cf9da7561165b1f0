"""Smoke test of the benchmark harness at tiny budgets.

Run from the root of the checkout with ``python3 -m pytest perfbench``
(about a minute). It runs every workload of ``BENCHMARK.json`` untraced
and traced and checks that each named metric is printed with its unit and
that no trial failed.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def run_bench(root: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "0",
            "--seconds", "1",
            "--trace", str(trace),
            *extra,
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # fail_frac == 0
    assert result["correct"] is True
    expected = SPEC["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in printed.items()
    }
    assert all(math.isfinite(metric["value"]) for metric in printed.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(tmp_path, "grid-brute", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
