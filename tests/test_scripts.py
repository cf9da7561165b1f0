"""The example scripts under ``scripts/`` run end to end at small budgets,
each as its own process, and print the summary lines they promise."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    """Standard output lines of ``scripts/<name>`` run with ``args``; it must
    exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_gridworld_sweep(tmp_path):
    out = tmp_path / "sweep"
    lines = run_script(
        "run_gridworld_sweep.py", "--trials", "1", "--lams", "1.0", "--out", str(out),
        cwd=tmp_path,
    )
    number = r"[+-]?\d+\.\d{3}"
    for line, algorithm in zip(lines, ("brute-force", "greedy", "correlational")):
        pattern = rf"{algorithm} +lam=1\.0 +objective={number} return={number} modal=\["
        assert re.match(pattern, line), line
    assert lines[3:] == [f"report written to {out / 'report.md'}"]
    assert (out / "report.md").read_text().startswith("| algorithm |")
    with open(out / "report_curves.csv") as fh:
        rows = list(csv.DictReader(fh))
    # record 0 is brute force: all 32 masks scored, iterations their positions
    assert [int(r["iteration"]) for r in rows if r["record"] == "0"] == list(range(32))


def test_factory_failure(tmp_path):
    lines = run_script("run_factory_failure.py", "--rollouts", "20", cwd=tmp_path)
    assert re.fullmatch(r"greedy mask: +\(\) \(stopped: objective-decreased\)", lines[0])
    assert re.fullmatch(r"variance-screen mask: \(0, 1, 2\)", lines[1])
    assert re.fullmatch(r"greedy +successes: 0 across 20 rollouts", lines[2])
    hits = re.fullmatch(r"variance-screen +successes: (\d+) across 20 rollouts", lines[3])
    assert hits and int(hits[1]) > 0 and len(lines) == 4


def test_crowd_goals(tmp_path):
    lines = run_script("run_crowd_goals.py", "--trials", "1", cwd=tmp_path)
    assert lines == [
        "manipulable goal: modal mask (0, 2, 4) over 1 trials ({(0, 2, 4): 1})",
        "  includes agent variables: True",
        "static goal: modal mask (1, 4) over 1 trials ({(1, 4): 1})",
        "  includes agent variables: False",
    ]
