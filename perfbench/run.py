"""exomdp benchmark: whole trials of one workload, timed end to end or per layer.

Usage, from the root of an exomdp checkout:

    python3 perfbench/run.py --workload grid-brute --seed 0 --seconds 20 --trace 0

Load is a closed loop with one client: trials of the workload run one
after another in this process (``workers=1``, ``EXOMDP_WORKERS`` unset),
as many as end within ``--seconds`` of the start of the set-up probes, and
at least the workload's ``quality_trials``. Every trial's output is
checked. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` installs the span recorder and reports
the per-layer metrics instead. The last line of
standard output is the result as one JSON object; the lines before it
describe the machine and each trial, and give the digest of the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
SPAN_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--tiny", action="store_true", help="tiny budgets, for the smoke test"
    )
    return parser.parse_args(argv)


def prepare_environment() -> int:
    """Size every BLAS/OpenMP pool to the CPUs this process may use,
    whatever the caller's shell says, and unset ``EXOMDP_WORKERS``;
    returns that CPU count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ.pop("EXOMDP_WORKERS", None)
    return nproc


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through ctypes."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine(nproc: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def measure_setup(args) -> list[float]:
    """Seconds from starting a fresh interpreter until a trial could start.

    Each sample starts ``setup_probe.py``, which imports exomdp, loads the
    workload's config and builds its first MDP, then prints
    ``time.monotonic()``; on Linux that clock is shared by all processes.
    """
    command = [
        sys.executable,
        str(HERE / "setup_probe.py"),
        args.workload,
        str(args.seed),
        str(int(args.tiny)),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def run(args, nproc: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import exomdp
    import exomdp.experiment
    from spans import SpanRecorder, layer_metrics
    from workloads import WORKLOADS, check_trial, make_config, result_digest

    if Path(exomdp.__file__).resolve().parent != ROOT / "src" / "exomdp":
        raise RuntimeError(f"imported exomdp from {exomdp.__file__}, not this checkout")
    print(json.dumps({"machine": machine(nproc)}), flush=True)

    workload = WORKLOADS[args.workload]
    t_start = time.perf_counter()
    setup = [] if args.trace else measure_setup(args)
    config = make_config(ROOT, workload, args.seed, args.tiny)
    recorder = SpanRecorder()
    if args.trace:
        recorder.install()

    rows, walls, failed = [], [], 0
    # Start another trial only if one of median length still ends in time.
    while len(rows) < workload.quality_trials or (
        time.perf_counter() - t_start + statistics.median(walls) <= args.seconds
    ):
        trial = len(rows)
        recorder.trial = trial
        t0 = time.perf_counter()
        row, trace_text = exomdp.experiment.run_trial(config, trial)
        walls.append(time.perf_counter() - t0)
        recorder.trial = None
        problems = check_trial(workload, config, row, trace_text)
        failed += bool(problems)
        rows.append(row)
        if len(rows) == workload.quality_trials:
            # Read now, so the peak depends on the seed and not on how many
            # more trials fit in the window.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            json.dumps(
                {
                    "trial": trial,
                    "seed": row.seed,
                    "wall_s": walls[-1],
                    "search_s": row.wall_time,
                    "mask": row.mask,
                    "mean_return": row.score.mean_return if row.score else None,
                    "problems": problems,
                }
            ),
            flush=True,
        )

    scored = rows[: workload.quality_trials]
    print(
        json.dumps(
            {
                "digest": result_digest(scored),
                "workload": args.workload,
                "seed": args.seed,
                "trials": len(scored),
            }
        ),
        flush=True,
    )
    if args.trace:
        recorder.uninstall()
        metrics = layer_metrics(recorder)
        metrics["experiment.search_s"] = statistics.median(r.wall_time for r in rows)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(span_file, t_start)
        print(json.dumps({"spans": str(span_file.relative_to(ROOT))}), flush=True)
    else:
        returns = [r.score.mean_return for r in scored if r.score is not None]
        metrics = {
            "trial_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "return_mean": statistics.fmean(returns) if returns else 0.0,
        }
    return {"attempted": len(rows), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = prepare_environment()
    outcome = run(args, nproc)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = outcome["metrics"]
    if {m["name"] for m in wanted} != set(metrics):
        raise RuntimeError(
            f"measured {sorted(metrics)} but BENCHMARK.json names "
            f"{sorted(m['name'] for m in wanted)}"
        )
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
