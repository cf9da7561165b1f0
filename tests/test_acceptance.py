"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured quantities at its stated tolerance.

Budgets are sized so the full module runs in about 35 seconds on two
cores; individual criteria stay well inside their stated runtime caps.
"""

import json
import shutil
import time
from collections import Counter

import pytest

from exomdp.checks import (
    check_condition_flip_suite,
    check_data_policy_invariance,
    check_hoeffding_coverage,
    check_mi_deterministic_copy,
    check_mi_independent_chains,
    check_value_equality_suite,
)
from exomdp.cli import main as cli_main
from exomdp.domains import build_factory, build_gridworld, random_block_mdp
from exomdp.estimation import estimate_reward_variables, fit_reduced_mdp
from exomdp.experiment import ExperimentConfig, modal_mask, save_config
from exomdp.planner import count_positive_reward_steps, value_iteration
from exomdp.search import (
    FitBudget,
    SearchParams,
    collect_search_datasets,
    mask_brute_force,
    mask_correlational,
    mask_greedy,
)

N_BLOCK_MDPS = 20
BLOCK_SEED = 100


def _report(criterion: str, detail: str) -> None:
    print(f"PASS  {criterion}: {detail}")


def test_criterion_1_value_equality_suite():
    """Reduced-model optimum equals the full-MDP optimum statewise."""
    t0 = time.perf_counter()
    result = check_value_equality_suite(n_mdps=N_BLOCK_MDPS, tol=1e-6, seed=BLOCK_SEED)
    elapsed = time.perf_counter() - t0
    assert result.passed, result.detail
    assert elapsed < 60.0
    worst_states = max(
        mdp.endo_cardinality * mdp.n_exo_states
        for mdp, _ in map(random_block_mdp, range(BLOCK_SEED, BLOCK_SEED + N_BLOCK_MDPS))
    )
    assert worst_states <= 200
    _report(
        "criterion-1 value-equality",
        f"{result.detail} (max {worst_states} states) in {elapsed:.1f}s",
    )


def test_criterion_2_condition_flips():
    """Each injected violation flips exactly its own condition flag."""
    result = check_condition_flip_suite(N_BLOCK_MDPS, 1e-9, seed=BLOCK_SEED)
    assert result.passed, result.detail
    _report("criterion-2 condition-flips", result.detail)


def test_criterion_3_hoeffding_coverage():
    """Monte Carlo deviations respect the concentration bound."""
    t0 = time.perf_counter()
    result = check_hoeffding_coverage(n_reps=200, seed=0)
    elapsed = time.perf_counter() - t0
    assert result.passed, result.detail
    assert elapsed < 120.0
    _report("criterion-3 hoeffding-coverage", f"{result.detail} in {elapsed:.1f}s")


def test_criterion_4_mutual_information_sanity():
    """MI vanishes for independent chains and recovers a copied pair's
    entropy."""
    indep = check_mi_independent_chains(100_000, 0.01, seed=0)
    copy = check_mi_deterministic_copy(100_000, 0.05, seed=1)
    assert indep.passed, indep.detail
    assert copy.passed, copy.detail
    _report("criterion-4 mi-sanity", f"{indep.detail}; {copy.detail}")


def test_criterion_5_gridworld_optimality_gap():
    """Correlational tracks brute force at large lam; the gap never shrinks
    as lam decreases."""
    t0 = time.perf_counter()
    mdp = build_gridworld()
    params = SearchParams(n_rollouts=500)
    seed = 2026
    lams = (1.0, 0.3, 0.02)  # largest first
    scores = {}
    for lam in lams:
        _, bf_trace = mask_brute_force(mdp, lam, params, seed)
        c_mask, c_trace = mask_correlational(mdp, 0.01, 0.0, lam, params, seed)
        scores[lam] = (bf_trace.best_score(), c_trace.best_score())
    elapsed = time.perf_counter() - t0

    bf_large, corr_large = scores[lams[0]]
    assert bf_large.objective > 0
    assert corr_large.objective >= 0.9 * bf_large.objective

    gaps = [scores[lam][0].objective - scores[lam][1].objective for lam in lams]
    assert all(g >= 0 for g in gaps)  # shared seeds: brute force dominates
    assert gaps[2] >= gaps[1] >= gaps[0]  # non-improving as lam decreases
    # at the smallest lam the jointly-informative driver pair is only
    # discoverable exhaustively, so a real gap opens
    assert gaps[2] > 0
    assert elapsed < 15 * 60
    _report(
        "criterion-5 gridworld-gap",
        f"ratio {corr_large.objective / bf_large.objective:.3f} at lam={lams[0]}; "
        f"gaps {[round(g, 4) for g in gaps]} for lams {list(lams)} "
        f"in {elapsed:.0f}s",
    )


def test_criterion_6_factory_greedy_failure():
    """Greedy never succeeds at the jointly-rewarded task; the variance
    screen's mask does."""
    mdp = build_factory()
    lam = 0.1
    params = SearchParams(
        n_rollouts=300,
        fit=FitBudget(
            n_exo_rollouts=500, exo_horizon=40, n_full_rollouts=500, full_horizon=40
        ),
    )
    seed = 5
    greedy_mask, greedy_trace = mask_greedy(mdp, lam, params, seed)
    phase1_mask = estimate_reward_variables(mdp, 0.0)
    assert set(phase1_mask.included) == {0, 1, 2}

    datasets = collect_search_datasets(mdp, params, seed)
    horizon = 40
    policies = {}
    for name, mask in (("greedy", greedy_mask), ("phase1", phase1_mask)):
        model = fit_reduced_mdp(mdp, mask, datasets.exo, datasets.full)
        policies[name] = value_iteration(model, params.vi_epsilon, 60.0).policy
    greedy_hits = count_positive_reward_steps(
        mdp, policies["greedy"], 500, horizon, seed=77
    )
    phase1_hits = count_positive_reward_steps(
        mdp, policies["phase1"], 500, horizon, seed=77
    )
    assert greedy_hits == 0
    assert phase1_hits > 0
    _report(
        "criterion-6 factory-greedy-failure",
        f"greedy mask {greedy_mask.included} successes {greedy_hits}/500 rollouts; "
        f"variance-screen mask {phase1_mask.included} successes {phase1_hits}",
    )


@pytest.mark.slow
def test_criterion_7_crowd_goal_dependent_masks():
    """The learned mask tracks the goal: agent variables enter only when
    they move the goal object."""
    t0 = time.perf_counter()
    n_trials = 50
    params = SearchParams(
        n_rollouts=800,
        fit=FitBudget(
            n_exo_rollouts=1500, exo_horizon=60, n_full_rollouts=1000, full_horizon=50
        ),
    )
    outcomes = {}
    for label, overrides in (
        ("manipulable", {}),
        ("static", {"goal_object": 1}),
    ):
        from exomdp.domains import build_preset

        mdp = build_preset("crowd-desk", overrides, seed=0)
        agent_vars = set(mdp.agent_variable_ids())
        masks = []
        for trial in range(n_trials):
            mask, _ = mask_correlational(mdp, 0.02, 0.0, 0.05, params, seed=trial)
            masks.append(mask.included)
        modal = tuple(modal_mask(masks))
        outcomes[label] = (modal, Counter(masks), agent_vars)
    elapsed = time.perf_counter() - t0

    manip_modal, manip_counts, agent_vars = outcomes["manipulable"]
    static_modal, static_counts, _ = outcomes["static"]
    assert set(manip_modal) & agent_vars, (
        f"manipulable-goal modal mask {manip_modal} contains no agent variable "
        f"({dict(manip_counts)})"
    )
    assert not set(static_modal) & agent_vars, (
        f"static-goal modal mask {static_modal} contains an agent variable "
        f"({dict(static_counts)})"
    )
    assert elapsed < 30 * 60
    _report(
        "criterion-7 crowd-goal-masks",
        f"manipulable modal {manip_modal} (x{manip_counts[manip_modal]}/{n_trials}), "
        f"static modal {static_modal} (x{static_counts[static_modal]}/{n_trials}) "
        f"in {elapsed:.0f}s",
    )


def test_criterion_8_data_policy_invariance():
    """Exo tables from policy-free and policy-driven data agree rowwise."""
    result = check_data_policy_invariance(n_samples=100_000, tv_tol=0.02, seed=0)
    assert result.passed, result.detail
    _report("criterion-8 data-policy-invariance", f"{result.detail} at 1e5 samples")


def test_criterion_9_cli_determinism(tmp_path):
    """Re-running an experiment with the same master seed is byte-identical."""
    cfg = ExperimentConfig(
        domain="gridworld-small",
        algorithm="correlational",
        lam=0.2,
        n_rollouts=60,
        mc_horizon=40,
        fit=FitBudget(
            n_exo_rollouts=150, exo_horizon=25, n_full_rollouts=150, full_horizon=25
        ),
        n_trials=2,
        master_seed=11,
        out_dir=str(tmp_path / "out"),
    )
    cfg_path = tmp_path / "exp.yaml"
    save_config(cfg, cfg_path)

    assert cli_main(["run", str(cfg_path)]) == 0
    first_dir = tmp_path / "first"
    shutil.copytree(tmp_path / "out", first_dir)
    assert cli_main(["run", str(cfg_path)]) == 0

    first = (first_dir / "results.json").read_bytes()
    second = (tmp_path / "out" / "results.json").read_bytes()
    assert first == second
    trace_names = sorted(p.name for p in (first_dir / "traces").glob("*.jsonl"))
    assert trace_names
    for name in trace_names:
        assert (first_dir / "traces" / name).read_bytes() == (
            tmp_path / "out" / "traces" / name
        ).read_bytes()
    body = json.loads(first)
    assert body["config"]["master_seed"] == 11
    _report(
        "criterion-9 cli-determinism",
        f"results.json and {len(trace_names)} traces byte-identical across reruns",
    )
