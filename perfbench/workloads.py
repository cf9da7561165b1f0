"""The benchmark's workloads and the check every trial's output must pass.

Each workload is a shipped preset config plus overrides that pin its
algorithm and budgets, so a later edit of a shipped config cannot silently
change what the benchmark measures. The master seed comes from the
benchmark's ``--seed``; trial ``i`` of a run is ``run_trial(config, i)``.

exomdp is imported inside the functions: ``run.py`` imports this module
before it caps the BLAS thread pools, which must happen before numpy loads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

CROWD_BUDGETS = (
    "lam=0.05",
    "n_rollouts=800",
    "fit.n_exo_rollouts=1500",
    "fit.exo_horizon=60",
    "fit.n_full_rollouts=1000",
    "fit.full_horizon=50",
)

# Small enough that one trial of every workload ends within seconds; only
# the smoke test uses it.
TINY_BUDGETS = (
    "n_rollouts=20",
    "n_contexts=20",
    "fit.n_exo_rollouts=100",
    "fit.exo_horizon=10",
    "fit.n_full_rollouts=100",
    "fit.full_horizon=10",
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    overrides: tuple[str, ...]
    # Trials every run makes whatever --seconds says; return_mean and the
    # result digest cover exactly these, so both are fixed by the seed.
    quality_trials: int
    best_in_trace: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-brute",
            config="configs/gridworld_small.yaml",
            overrides=(
                "algorithm=brute-force",
                "lam=0.3",
                "n_rollouts=500",
                "fit.n_exo_rollouts=1000",
                "fit.exo_horizon=50",
                "fit.n_full_rollouts=1000",
                "fit.full_horizon=50",
            ),
            quality_trials=2,
            best_in_trace=True,
        ),
        Workload(
            name="crowd-corr",
            config="configs/crowd_desk.yaml",
            overrides=("algorithm=correlational", *CROWD_BUDGETS),
            quality_trials=2,
        ),
        Workload(
            name="crowd-full",
            config="configs/crowd_desk.yaml",
            overrides=(
                "algorithm=fixed-mask",
                "fixed_mask=[0,1,2,3,4]",
                *CROWD_BUDGETS,
            ),
            quality_trials=4,
        ),
    )
}


def make_config(root: Path, workload: Workload, seed: int, tiny: bool = False):
    """Load the workload's shipped config and pin its algorithm and budgets."""
    from exomdp.experiment import apply_overrides, load_config

    overrides = [*workload.overrides, f"master_seed={seed}", "workers=1"]
    if tiny:
        overrides += TINY_BUDGETS
    return apply_overrides(load_config(root / workload.config), overrides)


def check_trial(workload: Workload, config, row, trace_text: str) -> list[str]:
    """Return why a trial's output is wrong; an empty list means it passed."""
    from exomdp.domains import build_preset
    from exomdp.search import SearchTrace

    if row.error is not None:
        return [f"raised {row.error}"]
    score = row.score
    problems = []
    mdp = build_preset(config.domain, config.domain_overrides, row.seed)
    limit = mdp.r_max / (1.0 - mdp.discount)
    if not (math.isfinite(score.mean_return) and abs(score.mean_return) <= limit):
        problems.append(f"mean_return {score.mean_return!r} outside +-{limit!r}")
    if score.objective != score.mean_return - score.lam * score.cost:
        problems.append("objective != mean_return - lam * cost")
    if score.lam != config.lam or score.mask.included != row.mask:
        problems.append("score was computed for another lam or mask")
    if workload.best_in_trace:
        scored = [e.score for e in SearchTrace.from_jsonl(trace_text).entries if e.score]
        best = max((s.objective for s in scored), default=None)
        chosen = [s.objective for s in scored if s.mask.included == row.mask]
        if best is None or chosen != [best]:
            problems.append("returned mask does not have the best objective in its trace")
    return problems


def result_digest(rows) -> str:
    """SHA-256 of the masks and scores of ``rows``, timing excluded."""
    payload = json.dumps([row.to_dict() for row in rows], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
