#!/usr/bin/env python3
"""Interleaved benchmark pairs: a parent commit against the working tree.

For every workload and seed, runs ``perfbench/run.py --trace 0`` once on the
parent commit and once on the working tree, alternating which side runs
first, and writes per-workload medians, quartiles, digests and failure
counts to ``BENCH_<pr>.json`` at the root of the checkout:

    python3 scripts/bench_pairs.py --pr 6 --seeds 1301-1310

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``. The parent
is HEAD while the working tree has uncommitted edits, and ``HEAD^`` once they
are committed; it is taken with ``git archive`` into a temporary directory,
so the checkout is never touched. The change is copied beside it (tracked and
untracked files that git does not ignore), and both copies are byte-compiled
before the first pair, so the two sides start from the same state: neither
runs from a checkout with bytecode caches or stray files the other lacks.
Runs are sequential; each takes about ``run_seconds`` plus its set-up probes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``: comma-separated non-negative seeds
    and ascending ``lo-hi`` ranges, strictly increasing overall."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        if not (lo.isdecimal() and (hi.isdecimal() if dash else not hi)):
            raise argparse.ArgumentTypeError(
                f"{part!r} in {text!r} is neither a seed nor a range lo-hi"
            )
        if int(hi or lo) < int(lo):
            raise argparse.ArgumentTypeError(f"range {part!r} descends")
        seeds += range(int(lo), int(hi or lo) + 1)
    repeated = [b for a, b in zip(seeds, seeds[1:]) if b <= a]
    if repeated:
        raise argparse.ArgumentTypeError(
            f"seeds {text!r} must be strictly increasing; {repeated[0]} "
            f"comes again or out of order"
        )
    return seeds


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export_commit(rev: str, dest: Path) -> None:
    archive = dest.parent / f"{dest.name}.tar"
    git("archive", "--format=tar", "-o", str(archive), rev)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def export_working_tree(dest: Path) -> None:
    """Copy the files git tracks or would add, as they are in the working tree."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        if (ROOT / name).is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its result line plus its digest."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{command} in {root} failed:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    result = lines[-1]
    digest = next(line["digest"] for line in lines if "digest" in line)
    machine = next(line["machine"] for line in lines if "machine" in line)
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digest": digest,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "machine": machine,
    }


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        parent, change = spread(values["parent"]), spread(values["change"])
        better = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(values["parent"], values["change"])
        )
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "change_pct": 100.0 * (change["median"] - parent["median"]) / parent["median"],
            "change_better_pairs": better,
        }
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "1201-1210"')
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    parent_sha = git("rev-parse", "--verify", "HEAD" if dirty else "HEAD^")
    report = {
        "command": "python3 scripts/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
        "parent": parent_sha,
        "change": git("rev-parse", "HEAD") + (" + uncommitted edits" if dirty else ""),
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        export_commit(parent_sha, roots["parent"])
        export_working_tree(roots["change"])
        for root in roots.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(root)], check=True)
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    t0 = time.monotonic()
                    pair[side] = run_once(roots[side], workload, seed, seconds)
                    print(
                        f"{workload} seed {seed} {side}: "
                        f"{pair[side]['metrics']} ({time.monotonic() - t0:.0f} s)",
                        flush=True,
                    )
                report.setdefault("machine", pair[order[0]]["machine"])
                for side in SIDES:
                    del pair[side]["machine"]
                pairs.append(pair)
            report["workloads"][workload] = {
                "summary": summarize(pairs, spec["end_to_end"]),
                "digests_equal": sum(p["parent"]["digest"] == p["change"]["digest"] for p in pairs),
                "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
                "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
                "pairs": pairs,
            }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
