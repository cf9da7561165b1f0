"""Machine-checkable verification suite.

Runs the exactness guarantee and the library's core statistical
properties end to end: on randomly generated block MDPs whose designated
mask satisfies the exactness conditions by construction, the reduced-model
optimal policy must match the full-MDP optimum at every state; perturbing
one condition at a time must flip exactly that condition's flag; and the
estimators must behave on analytically solvable inputs. Exposed through
the CLI ``verify`` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Mask, exo_trajectory, truncation_horizon
from .domains import (
    build_chain_mdp,
    build_copy_chain_mdp,
    build_gridworld,
    build_random_mdp,
    perturb_endo_on_excluded,
    perturb_excluded_reward,
    perturb_exo_coupling,
    random_block_mdp,
)
from .estimation import (
    ExoRolloutDataset,
    collect_exo_rollouts,
    collect_full_rollouts,
    fit_reduced_mdp,
    transition_mutual_information,
)
from .planner import (
    exact_policy_evaluation,
    hoeffding_confidence,
    hoeffding_deviation,
    monte_carlo_value,
    value_iteration,
)
from .search import check_reduction_conditions, exact_reduced_model
from .search import verify_reduction_value_equality


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_value_equality_suite(
    n_mdps: int = 20, tol: float = 1e-6, seed: int = 0
) -> CheckResult:
    """Exact value equality on conditions-satisfying random block MDPs."""
    failures = []
    for k in range(n_mdps):
        mdp, mask = random_block_mdp(seed + k)
        if not verify_reduction_value_equality(mdp, mask, tol=tol):
            failures.append(k)
    return CheckResult(
        "value-equality",
        not failures,
        f"{n_mdps - len(failures)}/{n_mdps} block MDPs exact at tol={tol}"
        + (f"; failed: {failures}" if failures else ""),
    )


def check_condition_flip_suite(
    n_mdps: int = 20, tol: float = 1e-9, seed: int = 0
) -> CheckResult:
    """Each perturbation must flip exactly its own condition flag; block
    MDP ``k`` is built from seed ``seed + k`` and perturbed with seed ``k``."""
    perturbations = (
        ("reward_clean", perturb_excluded_reward),
        ("endo_invariant", perturb_endo_on_excluded),
        ("exo_factorized", perturb_exo_coupling),
    )
    bad = []
    for k in range(n_mdps):
        mdp, mask = random_block_mdp(seed + k)
        base = check_reduction_conditions(mdp, mask, tol=tol)
        if not base.all_hold():
            bad.append((k, "baseline", base))
            continue
        for flag, perturb in perturbations:
            report = check_reduction_conditions(
                perturb(mdp, mask, seed=k), mask, tol=tol
            )
            flags = {
                "reward_clean": report.reward_clean,
                "endo_invariant": report.endo_invariant,
                "exo_factorized": report.exo_factorized,
            }
            expected = {name: name != flag for name in flags}
            if flags != expected:
                bad.append((k, flag, flags))
    return CheckResult(
        "condition-flips",
        not bad,
        f"{n_mdps} MDPs x 3 perturbations at tol={tol}"
        + (f"; mismatches: {bad[:3]}" if bad else ""),
    )


def check_mi_independent_chains(
    n_samples: int = 100_000, threshold: float = 0.01, seed: int = 0
) -> CheckResult:
    """Plug-in transition MI of independent chains stays near zero."""
    mdp = build_chain_mdp((2, 2), (0.3, 0.4))
    horizon = 50
    data = collect_exo_rollouts(mdp, n_samples // horizon, horizon, seed=seed)
    mi = transition_mutual_information(data, Mask((0,)), 1)
    return CheckResult(
        "mi-independent-chains",
        mi < threshold,
        f"MI={mi:.5f} nats over {len(data)} samples (threshold {threshold})",
    )


def check_mi_deterministic_copy(
    n_samples: int = 50_000, rel_tol: float = 0.05, seed: int = 0
) -> CheckResult:
    """MI of a delayed copy equals the copied pair's entropy (about ln c)."""
    card = 4
    mdp = build_copy_chain_mdp(card)
    horizon = 50
    data = collect_exo_rollouts(mdp, n_samples // horizon, horizon, seed=seed)
    mi = transition_mutual_information(data, Mask((0,)), 1)
    analytic = math.log(card)
    ok = abs(mi - analytic) <= rel_tol * analytic
    return CheckResult(
        "mi-deterministic-copy",
        ok,
        f"MI={mi:.5f} nats, analytic pair entropy {analytic:.5f}",
    )


def check_hoeffding_coverage(
    n_reps: int = 50,
    n_rollouts: int = 500,
    confidence: float = 0.9,
    seed: int = 0,
) -> CheckResult:
    """Empirical MC deviation frequency meets the stated confidence.

    Rep ``r`` scores the optimal mask-(0,) policy from seed ``seed + r``
    over the horizon that truncates a tail below 1e-3."""
    mdp = build_random_mdp(
        seed=7,
        endo_cardinality=5,
        cards=(5, 2),
        n_actions=2,
        discount=0.85,
        reward_low=0.0,
        reward_high=0.5,
    )
    plan = value_iteration(exact_reduced_model(mdp, Mask((0,))), epsilon=1e-9)
    exact = exact_policy_evaluation(mdp, plan.policy, tol=1e-12)
    init = np.kron(mdp.init_endo, mdp.init_exo)
    true_value = float(init @ exact.values)
    deviation = hoeffding_deviation(n_rollouts, confidence, mdp.discount, mdp.r_max)
    bound = hoeffding_confidence(n_rollouts, deviation, mdp.discount, mdp.r_max)
    horizon = truncation_horizon(mdp.discount, mdp.r_max, 1e-3)
    hits = 0
    for rep in range(n_reps):
        mean, _ = monte_carlo_value(
            mdp, plan.policy, n_rollouts, horizon, seed=seed + rep
        )
        if abs(mean - true_value) <= deviation:
            hits += 1
    freq = hits / n_reps
    return CheckResult(
        "hoeffding-coverage",
        freq >= bound,
        f"coverage {freq:.3f} over {n_reps} reps, bound {bound:.3f} "
        f"(deviation {deviation:.4f})",
    )


def check_data_policy_invariance(
    n_samples: int = 100_000, tv_tol: float = 0.02, seed: int = 0
) -> CheckResult:
    """Exo tables from policy-free and policy-driven rollouts agree: the
    policy-driven pairs are counted on the exo chain that the full data's
    rollouts walk under the behaviour policy."""
    mdp = build_gridworld()
    mask = Mask((0, 2))
    horizon = 50
    n_rollouts = n_samples // horizon
    exo_data = collect_exo_rollouts(mdp, n_rollouts, horizon, seed=seed)
    full_data = collect_full_rollouts(mdp, None, n_rollouts, horizon, seed=seed + 1)
    chain = exo_trajectory(mdp, n_rollouts, horizon, seed + 1, behave=True).exo
    driven = ExoRolloutDataset.from_chain(chain, mdp.exo_cardinalities, seed + 1)
    a = fit_reduced_mdp(mdp, mask, exo_data, full_data)
    b = fit_reduced_mdp(mdp, mask, driven, full_data)
    gap = a.exo_table.to_dense() - b.exo_table.to_dense()
    tv = 0.5 * np.abs(gap).sum(axis=1)
    worst = float(tv.max())
    return CheckResult(
        "data-policy-invariance",
        worst <= tv_tol,
        f"max row TV {worst:.4f} between policy-free and policy-driven fits",
    )


def run_verification_suite(
    quick: bool = False, seed: int = 0, emit: Callable[[str], None] = print
) -> list[CheckResult]:
    """Run every check, printing one PASS/FAIL line per check."""
    n_mdps = 5 if quick else 20
    samples = 20_000 if quick else 100_000
    reps = 20 if quick else 50
    checks = [
        lambda: check_value_equality_suite(n_mdps=n_mdps, seed=seed),
        lambda: check_condition_flip_suite(n_mdps=n_mdps, seed=seed),
        lambda: check_mi_independent_chains(
            n_samples=samples, threshold=0.01 if not quick else 0.05, seed=seed
        ),
        lambda: check_mi_deterministic_copy(
            n_samples=max(10_000, samples // 2), seed=seed
        ),
        lambda: check_hoeffding_coverage(n_reps=reps, seed=seed),
        lambda: check_data_policy_invariance(
            n_samples=samples, tv_tol=0.02 if not quick else 0.05, seed=seed
        ),
    ]
    results = []
    for check in checks:
        result = check()
        results.append(result)
        emit(f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
    return results
