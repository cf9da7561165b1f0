import dataclasses
import hashlib

import numpy as np
import pytest

from exomdp import search
from exomdp.core import (
    ExomdpError,
    Mask,
    StateSpaceTooLargeError,
    TabularFullMdp,
    UnsupportedMdpError,
    VariableSpec,
)
from exomdp.domains import (
    build_chain_mdp,
    build_crowd,
    build_gridworld,
    perturb_endo_on_excluded,
    perturb_excluded_reward,
    perturb_exo_coupling,
    random_block_mdp,
)
from exomdp.planner import ValueTable, monte_carlo_value, value_iteration
from exomdp.search import (
    FitBudget,
    SearchParams,
    SearchTrace,
    WarmStart,
    check_reduction_conditions,
    collect_search_datasets,
    estimate_objective,
    mask_brute_force,
    mask_correlational,
    mask_greedy,
    verify_reduction_value_equality,
)

from conftest import random_policy

QUICK = SearchParams(
    n_rollouts=120,
    fit=FitBudget(
        n_exo_rollouts=300, exo_horizon=30, n_full_rollouts=300, full_horizon=30
    ),
)


def _sticky(card, p):
    rows = np.full((card, card), p / max(1, card - 1))
    np.fill_diagonal(rows, 1 - p)
    return rows


def chase_mdp(m_extra=1, driver=True, discount=0.9, bonus=1.0):
    """Two-cell chase: reward for standing where variable 0 points.

    With ``driver``, variable 1 deterministically becomes variable 0's next
    value (so masks containing it predict the goal perfectly); extra
    variables are independent sticky chains.
    """
    cards = [2] + ([2] if driver else []) + [2] * m_extra
    m = len(cards)
    specs = tuple(VariableSpec(i, 2, f"v{i}") for i in range(m))
    from exomdp.core import ReducedSpace

    space = ReducedSpace(1, Mask.full(m), cards)
    x = space.n_exo
    exo_kernel = np.empty((x, x))
    for code in range(x):
        digits = space.decode_exo(code)
        rows = []
        if driver:
            goal_next = np.zeros(2)
            goal_next[digits[1]] = 1.0  # copy the driver
            rows.append(goal_next)
            rows.append(np.array([0.5, 0.5]))
            start = 2
        else:
            rows.append(_sticky(2, 0.2)[digits[0]])
            start = 1
        for i in range(start, m):
            rows.append(_sticky(2, 0.3)[digits[i]])
        row = rows[0]
        for nxt in rows[1:]:
            row = np.kron(row, nxt)
        exo_kernel[code] = row
    endo_kernel = np.zeros((2, 2, x, 2))
    endo_kernel[:, 0, :, 0] = 1.0  # action 0 goes to cell 0
    endo_kernel[:, 1, :, 1] = 1.0
    tables = [np.zeros((2, 2, 2)) for _ in range(m)]
    for n in range(2):
        tables[0][n, n, :] = bonus  # reward when standing at the pointed cell
    return TabularFullMdp(
        endo_kernel=endo_kernel,
        exo_kernel=exo_kernel,
        reward_tables=tables,
        init_endo=np.array([1.0, 0.0]),
        init_exo=np.full(x, 1.0 / x),
        discount=discount,
        variable_specs=specs,
        r_max=bonus,
        name="chase",
    )


class TestEstimateObjective:
    def test_zero_reward_mdp_scores_minus_lam_cost(self):
        mdp = build_chain_mdp((2, 2), (0.3, 0.3))
        score = estimate_objective(mdp, Mask((0, 1)), lam=0.7, params=QUICK, seed=0)
        assert score.mean_return == 0.0
        assert score.objective == -0.7 * 2

    def test_objective_identity(self):
        mdp = chase_mdp()
        score = estimate_objective(mdp, Mask((0,)), lam=0.3, params=QUICK, seed=1)
        assert score.objective == score.mean_return - 0.3 * score.cost

    def test_deterministic_given_seed(self):
        mdp = chase_mdp()
        a = estimate_objective(mdp, Mask((0,)), 0.1, QUICK, seed=5)
        b = estimate_objective(mdp, Mask((0,)), 0.1, QUICK, seed=5)
        assert (a.objective, a.mean_return) == (b.objective, b.mean_return)

    def test_full_mask_lam_zero_near_optimal(self, gridworld):
        params = SearchParams(n_rollouts=300)
        score = estimate_objective(gridworld, Mask.full(5), 0.0, params, seed=2)
        # exact optimum at the initial distribution is about 3.52
        assert score.objective == pytest.approx(3.52, abs=0.5)

    def test_informative_beats_empty_on_gridworld(self, gridworld):
        datasets = collect_search_datasets(gridworld, QUICK, seed=3)
        full = estimate_objective(gridworld, Mask.full(5), 0.0, QUICK, 3, datasets)
        empty = estimate_objective(gridworld, Mask(()), 0.0, QUICK, 3, datasets)
        assert full.objective >= empty.objective

    @pytest.mark.parametrize("builder", [build_gridworld, build_crowd])
    def test_own_datasets_step_monte_carlo_after_value_iteration(
        self, builder, monkeypatch
    ):
        """Without ``datasets``, the Monte Carlo exo chain is stepped after
        value iteration, and the score is that of the search datasets."""
        import exomdp.core as core
        import exomdp.search as search

        mdp, mask = builder(), Mask((0, 2))
        datasets = collect_search_datasets(mdp, TINY, 7)
        shared = estimate_objective(mdp, mask, 0.3, TINY, 7, datasets)
        events = []
        trajectory, solve = core.exo_trajectory, search.value_iteration

        def record_trajectory(mdp, n_rollouts, horizon, seed=None, behave=False):
            events.append("full" if behave else "mc")
            return trajectory(mdp, n_rollouts, horizon, seed, behave)

        monkeypatch.setattr(core, "exo_trajectory", record_trajectory)
        monkeypatch.setattr(
            search, "value_iteration", lambda *a: events.append("vi") or solve(*a)
        )
        alone = estimate_objective(mdp, mask, 0.3, TINY, 7)
        assert events == ["full", "vi", "mc"]
        assert alone == shared

    def test_model_and_datasets_freed_before_monte_carlo(self, monkeypatch):
        """Without ``datasets``, neither the fitted model nor its datasets
        outlive value iteration: nothing holds them once Monte Carlo runs."""
        import weakref

        import exomdp.search as search

        mdp, refs, alive = build_crowd(), [], []
        fit, roll_out = search._fit, search.monte_carlo_value

        def record_fit(mdp, mask, params, fit_data):
            model = fit(mdp, mask, params, fit_data)
            refs.extend(weakref.ref(x) for x in (model, *fit_data))
            return model

        monkeypatch.setattr(search, "_fit", record_fit)
        monkeypatch.setattr(
            search,
            "monte_carlo_value",
            lambda *a: alive.extend(r() for r in refs) or roll_out(*a),
        )
        estimate_objective(mdp, Mask((0, 4)), 0.3, TINY, 7)
        assert len(alive) == 3 and alive == [None] * 3

    def test_unconverged_plan_logs_a_warning(self, monkeypatch, caplog):
        import exomdp.search as search

        mdp = chase_mdp()
        plain = estimate_objective(mdp, Mask((0,)), 0.3, QUICK, seed=1)
        assert not caplog.records
        solve = search.value_iteration
        plans = []

        def unconverged(*args):
            plans.append(dataclasses.replace(solve(*args), converged=False))
            return plans[-1]

        monkeypatch.setattr(search, "value_iteration", unconverged)
        with caplog.at_level("WARNING", logger="exomdp.search"):
            score = estimate_objective(mdp, Mask((0,)), 0.3, QUICK, seed=1)
        assert score == plain
        [record] = caplog.records
        assert record.levelname == "WARNING"
        message = record.getMessage()
        assert "(0,)" in message and "unconverged" in message
        assert f"after {len(plans[0].residuals)} sweeps" in message
        assert f"{plans[0].residuals[-1]:.3g}" in message


TINY = SearchParams(
    n_rollouts=40,
    mc_horizon=25,
    fit=FitBudget(n_exo_rollouts=60, exo_horizon=12, n_full_rollouts=60, full_horizon=12),
)


class TestSearchDatasets:
    def test_monte_carlo_uniforms_drawn_once_per_search(self, gridworld, monkeypatch):
        """However many masks a search scores (32 in brute force, 3 in this
        greedy run), it runs stage 1 three times, once per seed, and steps
        the exo chain once per chunk of each run."""
        for search, n_masks in ((mask_brute_force, 32), (mask_greedy, 3)):
            with monkeypatch.context() as patch:
                self.assert_stage_one_once(gridworld, search, n_masks, patch)

    @staticmethod
    def assert_stage_one_once(gridworld, search, n_masks, monkeypatch):
        import exomdp.core as core
        import exomdp.estimation as estimation
        import exomdp.search as search_module

        # a budget at which each stage-1 run takes several chunks
        monkeypatch.setattr(core, "CHUNK_DRAWS", 1 << 12)
        stage_one, exo_steps = [], []
        original = core._exo_chain
        for module in (core, estimation):  # estimation imports it by name
            monkeypatch.setattr(
                module,
                "_exo_chain",
                lambda *a: stage_one.append(a[1:4]) or original(*a),
            )
        step = type(gridworld).batch_exo_step
        monkeypatch.setattr(
            type(gridworld),
            "batch_exo_step",
            lambda self, *a: exo_steps.append(len(a[0])) or step(self, *a),
        )
        _, trace = search(gridworld, 0.3, QUICK, seed=4)
        assert len(trace.entries) == n_masks

        def chunks(n, horizon, behave):
            k = gridworld.draws_per_step
            return -(-n // max(1, core.CHUNK_DRAWS // (k + horizon * (behave + k))))

        fit, mc_horizon = QUICK.fit, search_module._mc_horizon(gridworld, QUICK)
        runs = [
            (chunks(fit.n_exo_rollouts, fit.exo_horizon, 0), fit.exo_horizon),
            (chunks(fit.n_full_rollouts, fit.full_horizon, 1), fit.full_horizon),
            (chunks(QUICK.n_rollouts, mc_horizon, 0), mc_horizon),
        ]
        streams = (
            search_module._STREAM_EXO,
            search_module._STREAM_FULL,
            search_module._STREAM_MC,
        )
        seeds = [search_module.derive_seed(4, stream) for stream in streams]
        assert sorted(stage_one, key=lambda run: seeds.index(run[2])) == [
            (fit.n_exo_rollouts, fit.exo_horizon, seeds[0]),
            (fit.n_full_rollouts, fit.full_horizon, seeds[1]),
            (QUICK.n_rollouts, mc_horizon, seeds[2]),
        ]
        assert runs[2][0] > 1
        assert len(exo_steps) == sum(n * horizon for n, horizon in runs)
        rows = fit.n_exo_rollouts * fit.exo_horizon + fit.n_full_rollouts * fit.full_horizon
        assert sum(exo_steps) == rows + QUICK.n_rollouts * mc_horizon

    def test_every_mask_scores_its_own_monte_carlo_returns(self, gridworld, monkeypatch):
        """On the shared exo trajectory, each mask's per-rollout returns are
        those of a Monte Carlo call of its own from the search's seed; masks
        whose policies are equal on every endo value and distinct exo vector
        of the trajectory share one policy's rows, and the distinct policies
        step stage 2 together, one endo step of them all per step."""
        import exomdp.search as search_module

        plans, searches, endo_steps = [], [], []
        solve, collect = search_module.value_iteration, search_module.collect_search_datasets
        monkeypatch.setattr(
            search_module, "value_iteration", lambda *a: plans.append(solve(*a)) or plans[-1]
        )
        monkeypatch.setattr(
            search_module,
            "collect_search_datasets",
            lambda *a: searches.append(collect(*a)) or searches[-1],
        )
        step = type(gridworld).batch_endo_step
        monkeypatch.setattr(
            type(gridworld),
            "batch_endo_step",
            lambda self, *a: endo_steps.append(len(a[0])) or step(self, *a),
        )
        _, trace = mask_brute_force(gridworld, 0.3, TINY, seed=6)
        [datasets] = searches
        mc_seed = search_module.derive_seed(6, search_module._STREAM_MC)
        assert datasets.mc_seed == mc_seed and len(plans) == len(trace.entries) == 32

        # each policy read at every endo value and distinct exo vector of
        # the trajectory, the distinct vectors found by sorting rows
        n, horizon = gridworld.endo_cardinality, 25
        distinct = np.unique(datasets.mc.exo.reshape(-1, gridworld.m), axis=0)
        lifted = {
            plan.policy.actions.reshape(n, -1)[:, plan.policy.space.project_codes(distinct)]
            .tobytes()
            for plan in plans
        }
        assert 1 < len(lifted) < 32
        # stage 2 of the full-rollout collection, then one batched pass of
        # (distinct lifted policies x 40 rollouts) rows
        full = TINY.fit
        assert endo_steps == [full.n_full_rollouts] * full.full_horizon + [
            40 * len(lifted)
        ] * horizon
        # every mask's returns come from the search's cache, with no new step
        steps = len(endo_steps)
        policies = [p.policy for p in plans]
        kept = datasets.monte_carlo_values(gridworld, policies, 40, horizon)
        assert len(endo_steps) == steps
        for plan, entry, (mean, returns) in zip(plans, trace.entries, kept):
            alone = monte_carlo_value(gridworld, plan.policy, 40, horizon, seed=mc_seed)
            assert mean == alone[0] == entry.score.mean_return
            assert returns.dtype == alone[1].dtype and np.array_equal(returns, alone[1])

    def test_cache_keys_hold_one_byte_an_action(self, monkeypatch):
        """On the crowd (9 endo values, 5 actions) each policy is lifted onto
        the chain as one byte an entry: its cache key holds ``N * D`` bytes
        and stage 2 stacks the same tables. Every return is still, to the
        byte, a standalone ``monte_carlo_value``'s."""
        import exomdp.core as core

        mdp = build_crowd()
        datasets = collect_search_datasets(mdp, TINY, seed=2)
        masks = [(), (0, 4), (0, 2, 4), (0, 4), (1,)]
        policies = [random_policy(mdp, Mask(m), seed) for seed, m in enumerate(masks)]
        policies.append(policies[1])  # the same policy again
        lifts, stacked = [], []
        lift, stage_two = core.ExoTrajectory.lift_policy, core._stage_two
        monkeypatch.setattr(
            core.ExoTrajectory,
            "lift_policy",
            lambda self, p: lifts.append(lift(self, p)) or lifts[-1],
        )
        monkeypatch.setattr(
            core,
            "_stage_two",
            lambda *a, **k: stacked.extend(a[2]) or stage_two(*a, **k),
        )
        kept = datasets.monte_carlo_values(mdp, policies, 40, 25)
        n, d = mdp.endo_cardinality, len(datasets.mc.values)
        # each for its key, and the distinct ones again by rollout_returns
        assert len(lifts) == len(policies) + len(masks)
        assert all(t.dtype == np.uint8 and t.shape == (n, d) for t in lifts)
        assert len(datasets.returns) == len(stacked) == len(masks)
        for rollouts, horizon, key in datasets.returns:
            assert (rollouts, horizon, len(key)) == (40, 25, n * d)
        assert {t.tobytes() for t in stacked} == {key for *_, key in datasets.returns}
        for policy, (mean, returns) in zip(policies, kept):
            alone = monte_carlo_value(mdp, policy, 40, 25, seed=datasets.mc_seed)
            assert mean == alone[0]
            assert returns.dtype == alone[1].dtype
            assert returns.tobytes() == alone[1].tobytes()


class TestBruteForce:
    def test_zero_variables(self):
        mdp = TabularFullMdp(
            endo_kernel=np.ones((1, 1, 1, 1)),
            exo_kernel=np.ones((1, 1)),
            reward_tables=[],
            init_endo=np.ones(1),
            init_exo=np.ones(1),
            discount=0.9,
            variable_specs=(),
        )
        mask, trace = mask_brute_force(mdp, 0.1, QUICK, seed=0)
        assert mask.included == ()
        assert len(trace.entries) == 1

    def test_evaluates_all_subsets(self):
        mdp = build_chain_mdp((2, 2), (0.3, 0.3))
        mask, trace = mask_brute_force(mdp, 0.5, QUICK, seed=0)
        assert len(trace.entries) == 4
        assert trace.terminal_reason == "exhausted"
        # all-zero rewards: every mask returns 0, so ties go to the empty mask
        assert mask.included == ()

    def test_guard_refuses_large_m(self, monkeypatch):
        monkeypatch.setattr(search, "BRUTE_FORCE_LIMIT", 2)
        mdp = build_chain_mdp((2,) * 3, (0.3,) * 3)
        with pytest.raises(ExomdpError, match=r"limit of 2\*\*2"):
            mask_brute_force(mdp, 0.1, QUICK, seed=0)

    def test_winner_attains_maximum_on_rescoring(self, gridworld):
        mask, trace = mask_brute_force(gridworld, 0.3, QUICK, seed=4)
        best = trace.best_score()
        rescored = estimate_objective(gridworld, mask, 0.3, QUICK, seed=4)
        assert rescored.objective == best.objective
        assert all(e.score.objective <= best.objective for e in trace.entries)


    def test_masks_over_the_state_budget_are_skipped(self, gridworld):
        """At a budget of 200 reduced states (20 endo cells times 2**k), the
        six masks of 4 and 5 variables are skipped, with no score and not
        accepted; every other mask scores as without a budget, and the
        search returns the best of them."""
        _, free = mask_brute_force(gridworld, 0.3, QUICK, seed=4)
        tight = dataclasses.replace(QUICK, state_budget=200)
        mask, trace = mask_brute_force(gridworld, 0.3, tight, seed=4)
        assert [e.mask for e in trace.entries] == [e.mask for e in free.entries]
        skipped = [e for e in trace.entries if e.score is None]
        assert [e.mask for e in skipped] == [
            e.mask for e in trace.entries if len(e.mask) >= 4
        ]
        assert len(skipped) == 6 and not any(e.accepted for e in skipped)
        for entry, unbounded in zip(trace.entries, free.entries):
            if entry.score is not None:
                assert entry.score == unbounded.score
        scores = [e.score for e in trace.entries if e.score is not None]
        best = min(scores, key=lambda s: (-s.objective, len(s.mask), s.mask.included))
        assert mask == best.mask
        below_endo = dataclasses.replace(QUICK, state_budget=19)
        with pytest.raises(StateSpaceTooLargeError, match="no mask fits"):
            mask_brute_force(gridworld, 0.3, below_endo)

    def test_each_mask_starts_from_its_parent(self, gridworld, monkeypatch):
        """On gridworld-small's fitted models, value iteration on each mask
        starts from its parent's values (the mask without its highest
        variable), reaches the cold start's policy with values as close to
        it as both stops allow, in 233 sweeps over the 32 masks against 407
        cold (463 and 1,368 under the former max-norm stop)."""
        runs = []

        def recording_vi(model, epsilon, timeout, initial=None):
            plan = value_iteration(model, epsilon, timeout, initial)
            runs.append((model, initial, plan))
            return plan

        monkeypatch.setattr(search, "value_iteration", recording_vi)
        params = SearchParams(n_rollouts=40, mc_horizon=25)  # the shipped fit budgets
        _, trace = mask_brute_force(gridworld, 0.3, params, seed=31)
        assert [model.mask for model, _, _ in runs] == [e.mask for e in trace.entries]
        eps, warm_sweeps, cold_sweeps = params.vi_epsilon, 0, 0
        for b, (model, initial, warm) in enumerate(runs):
            if b:
                parent = runs[b ^ (1 << (b.bit_length() - 1))][2].values
                assert len(parent.space.mask) == len(model.mask) - 1
                assert np.array_equal(initial, parent.lift(model.space))
            else:
                assert initial is None
            cold = value_iteration(model, eps, params.vi_timeout)
            assert warm.converged and cold.converged
            assert np.array_equal(warm.policy.actions, cold.policy.actions)
            gap = np.abs(warm.values.values - cold.values.values).max()
            assert gap <= 2 * model.discount * eps / (1 - model.discount)
            warm_sweeps += len(warm.residuals)
            cold_sweeps += len(cold.residuals)
        assert (warm_sweeps, cold_sweeps) == (233, 407)


class TestGreedy:
    def test_irrelevant_variables_keep_empty_mask(self):
        mdp = build_chain_mdp((2, 2, 2), (0.3, 0.3, 0.3))
        mask, trace = mask_greedy(mdp, lam=0.2, params=QUICK, seed=0)
        assert mask.included == ()
        assert trace.terminal_reason == "objective-decreased"
        assert len(trace.entries) == 2  # empty baseline + one rejected try

    def test_single_necessary_variable_selected(self):
        mdp = chase_mdp(m_extra=0, driver=False)
        mask, trace = mask_greedy(mdp, lam=0.05, params=QUICK, seed=0)
        assert mask.included == (0,)

    def test_deterministic_across_runs(self, gridworld):
        a_mask, a_trace = mask_greedy(gridworld, 0.2, QUICK, seed=9)
        b_mask, b_trace = mask_greedy(gridworld, 0.2, QUICK, seed=9)
        assert a_mask.included == b_mask.included
        assert [e.mask.included for e in a_trace.entries] == [
            e.mask.included for e in b_trace.entries
        ]


class TestCorrelational:
    def test_independent_chains_stop_on_mi_threshold(self):
        mdp = chase_mdp(m_extra=2, driver=False)
        mask, trace = mask_correlational(
            mdp, mi_threshold=0.01, variance_threshold=0.0, lam=0.05, params=QUICK,
            seed=0,
        )
        assert mask.included == (0,)
        assert trace.terminal_reason == "mi-below-threshold"

    def test_dynamics_driver_added(self):
        mdp = chase_mdp(m_extra=1, driver=True)
        mask, trace = mask_correlational(
            mdp, mi_threshold=0.01, variance_threshold=0.0, lam=0.05, params=QUICK,
            seed=0,
        )
        assert mask.included == (0, 1)
        # the driver's mutual information dominated the distractor's
        mi = trace.entries[1].mi_scores
        assert mi[1] > mi[2]

    def test_infinite_threshold_returns_phase_one_mask(self, gridworld):
        mask, trace = mask_correlational(
            gridworld, mi_threshold=float("inf"), variance_threshold=0.0, lam=0.1,
            params=QUICK, seed=0,
        )
        assert mask.included == (0, 2)
        assert trace.terminal_reason == "mi-below-threshold"

    def test_accepted_iterations_grow_mask(self):
        mdp = chase_mdp(m_extra=2, driver=True)
        mask, trace = mask_correlational(mdp, 0.01, 0.0, 0.05, QUICK, seed=1)
        sizes = [len(e.mask) for e in trace.entries if e.accepted]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
        for entry in trace.entries:
            if entry.mi_scores is not None:
                overlap = set(entry.mi_scores) & set(entry.mask.included)
                if not entry.accepted:
                    assert not overlap
                else:  # candidate mask includes exactly the added variable
                    assert len(overlap) == 1


class TestDominance:
    def test_brute_force_dominates_other_searches(self, gridworld):
        seed = 13
        bf_mask, bf_trace = mask_brute_force(gridworld, 0.3, QUICK, seed)
        g_mask, g_trace = mask_greedy(gridworld, 0.3, QUICK, seed)
        c_mask, c_trace = mask_correlational(gridworld, 0.01, 0.0, 0.3, QUICK, seed)
        best_bf = bf_trace.best_score().objective
        assert best_bf >= g_trace.best_score().objective
        assert best_bf >= c_trace.best_score().objective


class TestConditionChecker:
    def test_full_mask_vacuous(self, hand_toy):
        report = check_reduction_conditions(hand_toy, Mask.full(hand_toy.m))
        assert report.all_hold()

    def test_block_mdp_designated_mask(self):
        mdp, mask = random_block_mdp(3)
        report = check_reduction_conditions(mdp, mask)
        assert report.all_hold()
        assert report.max_excluded_reward < 1e-12

    def test_complement_mask_breaks_reward_condition(self):
        mdp, mask = random_block_mdp(4)
        report = check_reduction_conditions(mdp, mask.complement(mdp.m))
        assert not report.reward_clean
        assert not report.all_hold()

    def test_black_box_rejected(self):
        from exomdp.domains import build_factory

        with pytest.raises(UnsupportedMdpError):
            check_reduction_conditions(build_factory(), Mask((0,)))

    @pytest.mark.parametrize(
        "perturb,flag",
        [
            (perturb_excluded_reward, "reward_clean"),
            (perturb_endo_on_excluded, "endo_invariant"),
            (perturb_exo_coupling, "exo_factorized"),
        ],
    )
    def test_perturbations_flip_exactly_one_flag(self, perturb, flag):
        mdp, mask = random_block_mdp(7)
        report = check_reduction_conditions(perturb(mdp, mask, seed=1), mask)
        flags = {
            "reward_clean": report.reward_clean,
            "endo_invariant": report.endo_invariant,
            "exo_factorized": report.exo_factorized,
        }
        assert flags == {name: name != flag for name in flags}


class TestValueEquality:
    def test_holds_on_block_mdp(self):
        mdp, mask = random_block_mdp(12)
        assert verify_reduction_value_equality(mdp, mask, tol=1e-6)

    def test_precondition_gate(self):
        mdp, mask = random_block_mdp(12)
        broken = perturb_exo_coupling(mdp, mask, seed=0)
        report = check_reduction_conditions(broken, mask)
        assert not report.exo_factorized
        with pytest.raises(ExomdpError):
            verify_reduction_value_equality(broken, mask)

    def test_near_myopic_case(self):
        # tiny discount: equality reduces to matching one-step rewards
        mdp, mask = random_block_mdp(5)
        myopic = TabularFullMdp(
            endo_kernel=mdp.endo_kernel,
            exo_kernel=mdp.exo_kernel,
            reward_tables=mdp.reward_tables,
            init_endo=mdp.init_endo,
            init_exo=mdp.init_exo,
            discount=1e-9,
            variable_specs=mdp.variable_specs,
        )
        assert verify_reduction_value_equality(myopic, mask, tol=1e-6)


def _chase(driver):
    return lambda: chase_mdp(m_extra=0, driver=driver)


# case: (MDP builder, search, SHA-256 of the search's ``to_jsonl``), as
# greedy and correlational search wrote them with a loop each; the two crowd
# brute-force and correlational digests as they read once greedy ties went to
# the lowest action within a relative 1e-9 (four and one mean returns moved,
# no chosen mask). The cases end
# on every terminal reason, the MI-below-threshold entry included, accept up
# to three additions and reject a tie, so a moved byte anywhere fails one.
PINNED_TRACES = {
    "gridworld-brute": (
        build_gridworld,
        lambda mdp: mask_brute_force(mdp, 0.1, QUICK, 3),
        "7100d9edecdcb8bfca149fb787655c3f100698add902a054b88159998855f95f",
    ),
    "gridworld-greedy": (
        build_gridworld,
        lambda mdp: mask_greedy(mdp, 0.0, QUICK, 2),
        "e4fa3b1319f69ff12c3a9afc553302ffec648147cc9041c1ec60a982be31808b",
    ),
    "gridworld-correlational": (
        build_gridworld,
        lambda mdp: mask_correlational(mdp, 0.0, 0.0, 0.0, QUICK, 3),
        "6dcef864e3c5d8c07d3e17ca3694bfbcf316fd88730414e89194967432da5d85",
    ),
    "gridworld-correlational-mi-stop": (
        build_gridworld,
        lambda mdp: mask_correlational(mdp, 0.01, 0.0, 0.0, QUICK, 3),
        "55da86cfe1efc66544bc72c82ce7b28701c15547918b40386917a5582a088d29",
    ),
    "crowd-brute": (
        build_crowd,
        lambda mdp: mask_brute_force(mdp, 0.1, TINY, 3),
        "07d341b65bd61b2776056362c561a32eadfa1503846b887190fee5fa36acab5e",
    ),
    "crowd-greedy": (
        build_crowd,
        lambda mdp: mask_greedy(mdp, 0.0, TINY, 3),
        "c90eff69ab780d3c9ec06cf19cc9a3b5797cdf327da4457901d3954194f53eed",
    ),
    "crowd-correlational": (
        build_crowd,
        lambda mdp: mask_correlational(mdp, 0.0, 0.0, 0.0, TINY, 3),
        "3178f2ff2a5bfe774c4e33155c04173b8da60589d3f5bf4b21dc64ed532f108b",
    ),
    # zero rewards at no mask cost: every objective ties, and a tie is rejected
    "chain-greedy-tie": (
        lambda: build_chain_mdp((2, 2), (0.3, 0.3)),
        lambda mdp: mask_greedy(mdp, 0.0, QUICK, 0),
        "a152a7e81edb6769fb35ebe3f54f4bd0e182e54688d990670fc497764d4fe1df",
    ),
    "chain-correlational-tie": (
        lambda: build_chain_mdp((2, 2), (0.3, 0.3)),
        lambda mdp: mask_correlational(mdp, 0.0, 0.0, 0.0, QUICK, 0),
        "f3df6d3d825eab10f6b23f7bab96e41da0bf3b68789abd04c82c277e2cb3a7bf",
    ),
    "chase-greedy-exhausted": (
        _chase(False),
        lambda mdp: mask_greedy(mdp, 0.05, QUICK, 0),
        "eb605b72e39716d7d75b83e8280e57640f728fe4bdee37726a19f849d54fb4c2",
    ),
    "chase-correlational-exhausted": (
        _chase(True),
        lambda mdp: mask_correlational(mdp, 0.0, 0.0, 0.0, QUICK, 0),
        "310742da027f62c72d4dd56e486cc97723cca42b021c9dc8f0016ba15830f47d",
    ),
}


class TestSearchTrace:
    @pytest.mark.parametrize("case", sorted(PINNED_TRACES))
    def test_trace_bytes_are_pinned(self, case):
        build, run, digest = PINNED_TRACES[case]
        _, trace = run(build())
        assert hashlib.sha256(trace.to_jsonl().encode()).hexdigest() == digest

    def test_jsonl_round_trip(self, gridworld):
        _, trace = mask_correlational(gridworld, 0.01, 0.0, 0.2, QUICK, seed=2)
        text = trace.to_jsonl()
        loaded = SearchTrace.from_jsonl(text)
        assert loaded.terminal_reason == trace.terminal_reason
        assert len(loaded.entries) == len(trace.entries)
        for a, b in zip(loaded.entries, trace.entries):
            assert a.mask.included == b.mask.included
            assert a.accepted == b.accepted
            if b.score is not None:
                assert a.score.objective == b.score.objective


class TestPhaseOneSoundness:
    def test_reward_relevant_variables_always_found(self):
        from exomdp.domains import build_factory
        from exomdp.estimation import estimate_reward_variables

        mdp = build_factory()
        assert set(estimate_reward_variables(mdp, 0.0).included) == {0, 1, 2}


class TestWarmStartedSearch:
    CROWD = SearchParams(
        n_rollouts=300,
        fit=FitBudget(
            n_exo_rollouts=1500, exo_horizon=60, n_full_rollouts=1000, full_horizon=50
        ),
    )

    @pytest.mark.parametrize("algorithm", ["greedy", "correlational"])
    def test_scores_equal_cold_starts(self, monkeypatch, algorithm):
        mdp = build_crowd()

        def run():
            if algorithm == "greedy":
                return mask_greedy(mdp, 0.05, self.CROWD, seed=2)
            return mask_correlational(mdp, 0.02, 0.0, 0.05, self.CROWD, seed=2)

        starts = []

        def recording_vi(model, epsilon, timeout, initial=None):
            starts.append((model.mask, initial))
            return value_iteration(model, epsilon, timeout, initial)

        monkeypatch.setattr(search, "value_iteration", recording_vi)
        mask, trace = run()
        scored = [e.mask for e in trace.entries if e.score is not None]
        assert len(scored) >= 2 and [m for m, _ in starts] == scored
        assert starts[0][1] is None
        assert all(initial is not None for _, initial in starts[1:])

        monkeypatch.setattr(ValueTable, "lift", lambda self, space: None)
        cold_mask, cold_trace = run()
        assert cold_mask == mask
        assert cold_trace.to_jsonl() == trace.to_jsonl()

    def test_start_outside_the_mask_refused(self, gridworld):
        model = search.exact_reduced_model(gridworld, Mask((0, 3)))
        warm = WarmStart(value_iteration(model, 1e-4).values)
        with pytest.raises(ValueError, match="do not lift"):
            estimate_objective(gridworld, Mask((0, 2)), 0.0, QUICK, 0, None, warm)
