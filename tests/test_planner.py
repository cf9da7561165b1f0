import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exomdp.core import (
    Mask,
    PlannerTimeoutError,
    ReducedSpace,
    exo_trajectory,
    rollout_returns,
    rollouts,
    truncation_horizon,
)
from exomdp.domains import build_crowd, build_gridworld, build_random_mdp
from exomdp.estimation import (
    collect_exo_rollouts,
    collect_full_rollouts,
    exact_reduced_model,
    fit_reduced_mdp,
)
import exomdp.planner as planner
from exomdp.planner import (
    ANDERSON_MEMORY,
    ANDERSON_RESTARTS,
    TIE_RTOL,
    Policy,
    ValueTable,
    _greedy_policy,
    count_positive_reward_steps,
    exact_policy_evaluation,
    hoeffding_confidence,
    hoeffding_deviation,
    monte_carlo_value,
    value_iteration,
)

from conftest import (
    chain_reduced,
    make_reduced,
    policy_eval_oracle,
    random_policy,
    random_tabular_cases,
    reference_rollouts,
)


def q_values(model, v):
    """Q values of ``v``, written out from the model's two expectation products."""
    return model.reward_table + model.discount * model.endo_expectation(
        model.exo_expectation(v)
    )


def bellman_updates(model, v):
    """``(T v, T v - v)`` of each sweep of value iteration from ``v``."""
    while True:
        tv = q_values(model, v).max(axis=1)
        yield tv, tv - v
        v = tv


def accelerated_updates(model, v):
    """``(T v, T v - v)`` of each sweep of ``value_iteration``'s accelerated
    loop from ``v``, written out with ``np.linalg.lstsq`` for the weights: on
    a model of at least ``ANDERSON_MIN_STATES`` states, a sweep that cuts the
    best span by the discount joins the history; any other clears it; once
    full, the history's Anderson combination, its constant that of ``T v``,
    is the next iterate."""
    best, failures, ds, ts = math.inf, 0, [], []
    while True:
        tv = q_values(model, v).max(axis=1)
        d = tv - v
        yield tv, d
        v = tv
        if d.max() - d.min() <= model.discount * best and (
            d.size >= planner.ANDERSON_MIN_STATES
        ):
            best = d.max() - d.min()
            ds = [*ds[1 - ANDERSON_MEMORY:], d - d.mean()]
            ts = [*ts[1 - ANDERSON_MEMORY:], tv]
        else:
            failures, ds, ts = failures + bool(ds), [], []
        if len(ds) == ANDERSON_MEMORY and failures <= ANDERSON_RESTARTS:
            # min |d_M + sum_i c_i (d_i - d_M)|: weights c and 1 - sum c
            dm = np.stack([x.ravel() for x in ds], axis=1)
            c = np.linalg.lstsq(dm[:, :-1] - dm[:, -1:], -dm[:, -1], rcond=None)[0]
            weights = np.append(c, 1 - c.sum())
            v = (np.stack([x.ravel() for x in ts], axis=1) @ weights).reshape(tv.shape)
            v += tv.mean() - v.mean()
            ds, ts = ds[1:], ts[1:]


def first_sweep(model, stop, v=None, updates=bellman_updates):
    """``(sweeps, T v)`` at the first sweep whose update ``d`` passes ``stop(d)``."""
    v = np.zeros((model.endo_cardinality, model.n_exo_states)) if v is None else v
    for sweep, (tv, d) in enumerate(updates(model, v), 1):
        if stop(d):
            return sweep, tv


class TestValueIteration:
    def test_geometric_series(self):
        model = chain_reduced([1.0], gamma=0.5)
        values = value_iteration(model, epsilon=1e-6).values
        assert values.values[0] == pytest.approx(2.0, abs=1e-5)

    def test_zero_reward(self):
        model = chain_reduced([0.0, 0.0], gamma=0.9, transitions=[[0, 1], [1, 0]])
        plan = value_iteration(model, epsilon=1e-8)
        assert np.allclose(plan.values.values, 0.0)
        assert plan.converged

    def test_two_state_chain(self):
        # state 0 moves to absorbing state 1; rewards (0, 1), gamma 0.9
        model = chain_reduced([0.0, 1.0], gamma=0.9, transitions=[[0, 1], [0, 1]])
        plan = value_iteration(model, epsilon=1e-7)
        oracle = policy_eval_oracle([[0, 1], [0, 1]], [0.0, 1.0], 0.9)
        assert np.allclose(oracle, [9.0, 10.0])
        assert np.allclose(plan.values.values, oracle, atol=1e-5)

    def test_discount_one_returns_the_last_update(self):
        # undiscounted shortest path: -1 to leave state 0 for absorbing state
        # 1; no midpoint (its factor g / (1 - g) is infinite) is added
        model = chain_reduced([-1.0, 0.0], gamma=1.0, transitions=[[0, 1], [0, 1]])
        plan = value_iteration(model, epsilon=1e-8)
        assert plan.converged and plan.residuals == (1.0, 0.0)
        assert plan.values.values.tolist() == [-1.0, 0.0]

    def test_residuals_non_increasing(self):
        model = make_reduced(
            np.random.default_rng(0).dirichlet(np.ones(3), (3, 2, 4)),
            np.random.default_rng(1).dirichlet(np.ones(4), 4),
            np.random.default_rng(2).normal(size=(3, 2, 4)),
            discount=0.9,
        )
        plan = value_iteration(model, epsilon=1e-9)
        diffs = np.diff(plan.residuals)
        assert np.all(diffs <= 1e-12)

    def test_constant_reward_shift_leaves_policy_unchanged(self):
        rng = np.random.default_rng(3)
        endo = rng.dirichlet(np.ones(4), (4, 3, 2))
        exo = rng.dirichlet(np.ones(2), 2)
        reward = rng.normal(size=(4, 3, 2))
        base = make_reduced(endo, exo, reward, 0.8)
        shifted = make_reduced(endo, exo, reward + 5.0, 0.8)
        plan_a = value_iteration(base, epsilon=1e-10)
        plan_b = value_iteration(shifted, epsilon=1e-10)
        assert np.array_equal(plan_a.policy.actions, plan_b.policy.actions)
        assert np.allclose(
            plan_b.values.values - plan_a.values.values, 5.0 / (1 - 0.8), atol=1e-6
        )

    def test_tie_break_lowest_action(self):
        # two identical actions: greedy must pick action 0 everywhere
        endo = np.zeros((2, 2, 1, 2))
        endo[:, :, 0, :] = 0.5
        model = make_reduced(endo, np.ones((1, 1)), np.ones((2, 2, 1)), 0.5)
        plan = value_iteration(model, epsilon=1e-8)
        assert np.all(plan.policy.actions == 0)

    @given(case=random_tabular_cases(), epsilon=st.sampled_from([1e-1, 1e-3, 1e-6]))
    @settings(max_examples=40, deadline=None)
    def test_span_stop_keeps_the_max_norm_guarantees(self, case, epsilon):
        """The span stop is never later than a max-norm loop; its values are
        within ``g eps / (1 - g)`` of the fixed point and its greedy policy
        is ``2 g eps / (1 - g)``-optimal, the max-norm test's bounds."""
        mdp, mask = case
        model = exact_reduced_model(mdp, mask)
        g = model.discount
        plan = value_iteration(model, epsilon)
        max_norm, _ = first_sweep(model, lambda d: np.abs(d).max() < epsilon)
        assert plan.converged and len(plan.residuals) <= max_norm
        _, optimal = first_sweep(model, lambda d: np.abs(d).max() < 1e-12)
        optimal = optimal.reshape(-1)
        # the reference's own distance from the fixed point, float noise and
        # an action within TIE_RTOL of the best Q
        slack = 1e-9 + TIE_RTOL * np.abs(optimal).max() / (1 - g)
        gap = np.abs(plan.values.values - optimal).max()
        assert gap <= g * epsilon / (1 - g) + slack
        achieved = exact_policy_evaluation(model, plan.policy, tol=1e-12).values
        assert (optimal - achieved).max() <= 2 * g * epsilon / (1 - g) + slack

    @given(
        case=random_tabular_cases(discounts=st.floats(0.5, 0.99)),
        epsilon=st.sampled_from([1e-1, 1e-3, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_accelerated_stop_keeps_the_guarantees_from_any_start(
        self, case, epsilon, seed, scale
    ):
        """From random finite values and at discounts up to 0.99, the
        accelerated loop (on every model size here) stops within ``g eps /
        (1 - g)`` of the fixed point, with a ``2 g eps / (1 - g)``-optimal
        greedy policy. (Its sweeps are not bounded by a plain loop's from
        every start: an extrapolation that fails costs sweeps, and on some
        small models from a random start it stopped up to 5 sweeps after a
        plain max-norm loop.)"""
        mdp, mask = case
        model = exact_reduced_model(mdp, mask)
        g = model.discount
        shape = (model.endo_cardinality, model.n_exo_states)
        initial = scale * np.random.default_rng(seed).standard_normal(shape)
        with mock.patch.object(planner, "ANDERSON_MIN_STATES", 0):
            plan = value_iteration(model, epsilon, initial=initial)
        assert plan.converged
        _, optimal = first_sweep(model, lambda d: np.abs(d).max() < 1e-12)
        optimal = optimal.reshape(-1)
        # the reference's own distance from the fixed point, float noise and
        # an action within the tie tolerance of the best Q
        slack = 1e-9 + TIE_RTOL * (np.abs(optimal).max() + model.r_max) / (1 - g)
        gap = np.abs(plan.values.values - optimal).max()
        assert gap <= g * epsilon / (1 - g) + slack
        achieved = exact_policy_evaluation(model, plan.policy, tol=1e-12).values
        assert (optimal - achieved).max() <= 2 * g * epsilon / (1 - g) + slack

    def test_a_failed_extrapolation_restarts_from_plain_sweeps(self, monkeypatch):
        """Weights that throw the iterate off raise the next span; each such
        failure clears the history, so the next Anderson step combines only
        updates made after it, and after ``ANDERSON_RESTARTS`` failures only
        plain sweeps run (on a model of any size). The plan still meets the
        span stop's guarantees."""
        rng = np.random.default_rng(7)
        model = make_reduced(
            rng.dirichlet(np.ones(4), (4, 3, 5)),
            rng.dirichlet(np.ones(5), 5),
            rng.normal(size=(4, 3, 5)),
            discount=0.95,
        )
        calls = []

        def wild_weights(ds):
            calls.append(ds)
            return [3.0, *[0.0] * (len(ds) - 2), -2.0]

        iterates, q_of = [], planner._q_values

        def recording_q_values(model, v):
            iterates.append(v.copy())
            return q_of(model, v)

        monkeypatch.setattr(planner, "ANDERSON_MIN_STATES", 0)
        monkeypatch.setattr(planner, "_anderson_weights", wild_weights)
        monkeypatch.setattr(planner, "_q_values", recording_q_values)
        eps, g = 1e-9, model.discount
        plan = value_iteration(model, eps)
        assert plan.converged and len(calls) == ANDERSON_RESTARTS + 1
        for before, after in zip(calls, calls[1:]):
            assert not any(d is old for d in after for old in before)
        # the span rises at each extrapolated iterate and nowhere else
        spans = [np.ptp(q_values(model, v).max(axis=1) - v) for v in iterates[:-1]]
        assert sum(b > a for a, b in zip(spans, spans[1:])) == len(calls)
        _, optimal = first_sweep(model, lambda d: np.abs(d).max() < 1e-12)
        gap = np.abs(plan.values.values - optimal.reshape(-1)).max()
        assert gap <= g * eps / (1 - g) + 1e-9
        achieved = exact_policy_evaluation(model, plan.policy, tol=1e-12).values
        assert (optimal.reshape(-1) - achieved).max() <= 2 * g * eps / (1 - g) + 1e-9

    @pytest.fixture(scope="class")
    def gridworld_fits(self):
        mdp = build_gridworld()
        exo = collect_exo_rollouts(mdp, 1000, 50, seed=0)
        full = collect_full_rollouts(mdp, None, 1000, 50, seed=100)
        return [fit_reduced_mdp(mdp, Mask(m), exo, full) for m in [(2, 3), (2, 4)]]

    @pytest.mark.parametrize("shift", [0.1, 3.7, 37.25, -5.5])
    def test_constant_shift_leaves_the_greedy_policy(self, gridworld_fits, shift):
        """On gridworld's fitted (2,3) and (2,4) models over 40 of the 80
        cells have tied best actions at the planned values, their Q values
        apart by float noise alone (at most about 1e-19, while any real gap
        is over 1e-4). Adding a constant to the values moves that noise (an
        argmax then changed 22-49 cells); the greedy policy stays, each tie
        going to its lowest action."""
        for model in gridworld_fits:
            v = value_iteration(model, 1e-4).values.values.reshape(
                model.endo_cardinality, -1
            )
            q = q_values(model, v)
            gaps = q.max(axis=1, keepdims=True) - q
            tied = gaps < 1e-12
            assert gaps[~tied].min() > 1e-4
            assert (tied.sum(axis=1) > 1).sum() >= 40
            lowest = tied.argmax(axis=1).reshape(-1)
            assert np.array_equal(_greedy_policy(model, v).actions, lowest)
            assert np.array_equal(_greedy_policy(model, v + shift).actions, lowest)

    def test_ties_near_zero_go_to_the_lowest_action(self):
        """Where every Q is about 0 a relative tolerance is about 0 too: on a
        zero-reward model with values of float noise (about 1e-17, as a warm
        start leaves on gridworld masks without the goal's variable) every
        action ties, within the floor set by the reward scale ``r_max``."""
        rng = np.random.default_rng(5)
        endo = rng.dirichlet(np.ones(4), (4, 3, 5))
        exo = rng.dirichlet(np.ones(5), 5)
        model = make_reduced(endo, exo, np.zeros((4, 3, 5)), 0.95, r_max=1.0)
        noise = rng.normal(scale=1e-17, size=(4, 5))
        assert np.all(_greedy_policy(model, noise).actions == 0)
        plan = value_iteration(model, 1e-4, initial=noise)
        assert len(plan.residuals) == 1 and np.all(plan.policy.actions == 0)

    def test_timeout_before_first_sweep(self):
        model = chain_reduced([1.0, 2.0], gamma=0.9)
        with pytest.raises(PlannerTimeoutError) as exc_info:
            value_iteration(model, epsilon=1e-8, timeout=0.0)
        assert isinstance(exc_info.value.policy, Policy)

    def test_epsilon_validation(self):
        # NaN would never be reached and run every sweep to the timeout
        for epsilon in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                value_iteration(chain_reduced([1.0], 0.5), epsilon=epsilon)


class TestWarmStart:
    @pytest.fixture(scope="class")
    def crowd_chain(self):
        """Models of the crowd's correlational chain, fitted from one dataset."""
        mdp = build_crowd()
        exo = collect_exo_rollouts(mdp, 1500, 60, seed=0)
        full = collect_full_rollouts(mdp, None, 1000, 50, seed=100)
        masks = [(0, 4), (0, 2, 4), (0, 2, 3, 4)]
        return [fit_reduced_mdp(mdp, Mask(m), exo, full) for m in masks]

    def test_lifted_start_reaches_the_cold_policy_by_the_span_test(self, crowd_chain):
        """Warm and cold starts each stop at the first sweep of the
        accelerated loop whose update has a span below ``2 eps``, with the
        same greedy policy. Cold then warm, (0,2,4), under
        ``ANDERSON_MIN_STATES`` states, takes 62 and 58 plain sweeps, and
        (0,2,3,4) 25 and 23 accelerated ones (60 and 61 in plain sweeps)."""
        eps = 1e-4
        start = value_iteration(crowd_chain[0], eps).values
        sweeps = []
        for model in crowd_chain[1:]:
            cold = value_iteration(model, eps)
            initial = start.lift(model.space)
            warm = value_iteration(model, eps, initial=initial)
            for plan, v in [(cold, None), (warm, initial)]:
                stop, _ = first_sweep(
                    model, lambda d: d.max() - d.min() < 2 * eps, v, accelerated_updates
                )
                assert plan.converged and len(plan.residuals) == stop
                sweeps.append(stop)
            assert np.array_equal(warm.policy.actions, cold.policy.actions)
            # both stop within gamma eps / (1 - gamma) of the fixed point
            gap = np.abs(warm.values.values - cold.values.values).max()
            assert gap <= 2 * model.discount * eps / (1 - model.discount)
            start = warm.values
        assert sweeps == [62, 58, 25, 23]

    @pytest.mark.parametrize("sub", [(), (1,), (0, 2), (2, 0, 1)])
    def test_lift_reads_each_state_at_its_projection(self, sub):
        cards = (2, 3, 4)
        own = ReducedSpace(2, Mask.of(sub), cards)
        onto = ReducedSpace(2, Mask((0, 1, 2)), cards)
        values = np.random.default_rng(0).random(own.n_states)
        lifted = ValueTable(own, values).lift(onto)
        assert lifted.shape == (2, onto.n_exo)
        for code in range(onto.n_exo):
            digits = onto.decode_exo(code)
            own_code = own.encode_exo([digits[i] for i in own.mask])
            for n in range(2):
                assert lifted[n, code] == values[n * own.n_exo + own_code]

    def test_lift_from_outside_the_mask_refused(self):
        values = ValueTable(ReducedSpace(2, Mask((0, 3)), (2,) * 4), np.zeros(8))
        for mask in [(0, 2), (3,), ()]:
            with pytest.raises(ValueError, match="do not lift"):
                values.lift(ReducedSpace(2, Mask(mask), (2,) * 4))

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((4, 5)),
            np.zeros((3, 3)),
            np.zeros((3, 4)),
            np.zeros(12),
            np.full((4, 3), np.nan),
            np.full((4, 3), np.inf),
            np.where(np.eye(4, 3) > 0, -np.inf, 0.0),
        ],
        ids=["wide", "short", "transposed", "flat", "nan", "inf", "-inf"],
    )
    def test_bad_start_refused_naming_the_shape(self, bad):
        model = make_reduced(
            np.full((4, 2, 3, 4), 0.25), np.full((3, 3), 1 / 3), np.ones((4, 2, 3)), 0.9
        )
        with pytest.raises(ValueError, match=re.escape("of shape (4, 3)")):
            value_iteration(model, 1e-4, timeout=1.0, initial=bad)


class TestExactPolicyEvaluation:
    def test_zero_reward_policy_value(self):
        model = chain_reduced([0.0, 0.0], gamma=0.9, transitions=[[0.5, 0.5]] * 2)
        policy = Policy(space=model.space, actions=np.zeros(2, dtype=int), action_count=1)
        table = exact_policy_evaluation(model, policy)
        assert np.allclose(table.values, 0.0)

    def test_myopic_limit(self):
        # tiny discount: value collapses to the immediate reward
        model = chain_reduced([2.0, -1.0], gamma=1e-6, transitions=[[0, 1], [1, 0]])
        policy = Policy(space=model.space, actions=np.zeros(2, dtype=int), action_count=1)
        table = exact_policy_evaluation(model, policy)
        assert np.allclose(table.values, [2.0, -1.0], atol=1e-5)

    def test_three_state_toy_matches_linear_solve(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(3), 3)
        r = rng.normal(size=3)
        model = make_reduced(
            p.reshape(3, 1, 1, 3), np.ones((1, 1)), r.reshape(3, 1, 1), 0.9
        )
        policy = Policy(space=model.space, actions=np.zeros(3, dtype=int), action_count=1)
        table = exact_policy_evaluation(model, policy, tol=1e-12)
        oracle = policy_eval_oracle(p, r, 0.9)
        assert np.allclose(table.values, oracle, atol=1e-8)

    def test_vi_policy_evaluation_consistent_with_vi_values(self):
        mdp = build_random_mdp(5, endo_cardinality=3, cards=(3, 2), n_actions=3)
        model = exact_reduced_model(mdp, Mask.full(2))
        eps = 1e-6
        plan = value_iteration(model, epsilon=eps)
        exact = exact_policy_evaluation(model, plan.policy, tol=1e-12)
        bound = eps / (1 - mdp.discount)
        assert float(np.abs(exact.values - plan.values.values).max()) <= bound

    def test_full_mdp_evaluation_matches_reduced_on_full_mask(self, hand_toy):
        model = exact_reduced_model(hand_toy, Mask.full(hand_toy.m))
        plan = value_iteration(model, epsilon=1e-9)
        on_reduced = exact_policy_evaluation(model, plan.policy, tol=1e-12)
        on_full = exact_policy_evaluation(hand_toy, plan.policy, tol=1e-12)
        assert np.allclose(on_reduced.values, on_full.values, atol=1e-9)

    def test_zero_exo_variable_mdp(self):
        # degenerate case: no exogenous variables at all
        from exomdp.core import TabularFullMdp

        mdp = TabularFullMdp(
            endo_kernel=np.array([[0, 1], [0, 1]], dtype=float).reshape(2, 1, 1, 2),
            exo_kernel=np.ones((1, 1)),
            reward_tables=[],
            init_endo=np.array([1.0, 0.0]),
            init_exo=np.ones(1),
            discount=0.9,
            variable_specs=(),
        )
        model = exact_reduced_model(mdp, Mask(()))
        plan = value_iteration(model, 1e-9)
        table = exact_policy_evaluation(mdp, plan.policy, tol=1e-12)
        assert np.allclose(table.values, plan.values.values, atol=1e-7)
        lifted = mdp.lift(plan.values.space, plan.values.values)
        assert np.allclose(lifted.reshape(-1), table.values, atol=1e-7)

    def test_value_magnitude_bound(self, hand_toy):
        model = exact_reduced_model(hand_toy, Mask((0,)))
        plan = value_iteration(model, epsilon=1e-8)
        bound = hand_toy.r_max / (1 - hand_toy.discount)
        assert np.abs(plan.values.values).max() <= bound

    def test_requires_tabular_model(self):
        from exomdp.core import ExomdpError
        from exomdp.domains import build_factory

        mdp = build_factory()
        space_policy = Policy(
            space=exact_reduced_model(
                build_random_mdp(0, endo_cardinality=1, cards=(2,)), Mask(())
            ).space,
            actions=np.zeros(1, dtype=int),
            action_count=1,
        )
        with pytest.raises(ExomdpError):
            exact_policy_evaluation(mdp, space_policy)

    def test_policy_and_values_of_another_mdp_refused(self):
        # the same 24 states, other cardinalities
        planned_on = build_random_mdp(1, cards=(3, 2))
        plan = value_iteration(exact_reduced_model(planned_on, Mask((0, 1))), 1e-6)
        other = build_random_mdp(2, cards=(2, 3))
        with pytest.raises(ValueError, match=r"\(4, \(3, 2\)\).*\(4, \(2, 3\)\)"):
            exact_policy_evaluation(other, plan.policy)
        with pytest.raises(ValueError, match=r"\(3, 2\).*\(2, 3\)"):
            other.lift(plan.values.space, plan.values.values)
        smaller = build_random_mdp(1, endo_cardinality=3, cards=(3, 2))
        with pytest.raises(ValueError, match="endo cardinality"):
            exact_policy_evaluation(smaller, plan.policy)
        assert exact_policy_evaluation(planned_on, plan.policy).values.shape == (24,)

    def test_policy_over_other_action_count_refused(self, gridworld):
        model = exact_reduced_model(gridworld, Mask((0,)))
        actions = np.full(model.space.n_states, 6)
        policy = Policy(space=model.space, actions=actions, action_count=7)
        message = "policy over 7 actions does not fit the MDP's 5"
        for mdp in (gridworld, model):  # the full and the reduced branch
            with pytest.raises(ValueError, match=message):
                exact_policy_evaluation(mdp, policy)
        with pytest.raises(ValueError, match=message):
            rollouts(gridworld, policy, 2, 2, seed=0)


class TestMonteCarlo:
    def test_constant_reward_geometric(self):
        from conftest import constant_reward_mdp

        mdp = constant_reward_mdp([1.5], discount=0.5, n_endo=1, n_actions=1)
        space_model = exact_reduced_model(
            build_random_mdp(0, endo_cardinality=1, cards=(2,), n_actions=1), Mask(())
        )
        policy = Policy(space=space_model.space, actions=np.zeros(1, dtype=int), action_count=1)
        mean, per = monte_carlo_value(mdp, policy, 20, horizon=40, seed=0)
        expected = 1.5 * (1 - 0.5**40) / 0.5
        assert mean == pytest.approx(expected, abs=1e-9)
        assert np.allclose(per, expected)

    def test_deterministic_rollouts_identical(self):
        model = chain_reduced([1.0, 2.0], gamma=0.9, transitions=[[0, 1], [0, 1]])
        # wrap the chain as a full MDP with no exo variables
        from exomdp.core import TabularFullMdp

        mdp = TabularFullMdp(
            endo_kernel=np.array([[0, 1], [0, 1]], dtype=float).reshape(2, 1, 1, 2),
            exo_kernel=np.ones((1, 1)),
            reward_tables=[],
            init_endo=np.array([1.0, 0.0]),
            init_exo=np.ones(1),
            discount=0.9,
            variable_specs=(),
        )
        policy = Policy(space=model.space, actions=np.zeros(2, dtype=int), action_count=1)
        mean, per = monte_carlo_value(mdp, policy, 10, 30, seed=5)
        assert np.allclose(per, per[0])

    def test_bitwise_reproducibility(self, gridworld):
        model = exact_reduced_model(gridworld, Mask((0, 2)))
        plan = value_iteration(model, 1e-5)
        a = monte_carlo_value(gridworld, plan.policy, 50, 60, seed=11)
        b = monte_carlo_value(gridworld, plan.policy, 50, 60, seed=11)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_agrees_with_exact_value_within_bound(self, gridworld):
        mask = Mask((0, 2))
        plan = value_iteration(exact_reduced_model(gridworld, mask), 1e-7)
        exact = exact_policy_evaluation(gridworld, plan.policy, tol=1e-12)
        init = np.kron(gridworld.init_endo, gridworld.init_exo)
        true_value = float(init @ exact.values)
        n = 400
        # deviation at 99% confidence; reward range shifted to [0, 2 r_max]
        dev = hoeffding_deviation(n, 0.99, gridworld.discount, 2 * gridworld.r_max)
        horizon = truncation_horizon(gridworld.discount, gridworld.r_max, 1e-3)
        mean, _ = monte_carlo_value(gridworld, plan.policy, n, horizon, seed=21)
        assert abs(mean - true_value) <= dev + 1e-3

    def test_count_positive_reward_steps(self, gridworld):
        mask = Mask((0, 2))
        plan = value_iteration(exact_reduced_model(gridworld, mask), 1e-5)
        hits = count_positive_reward_steps(gridworld, plan.policy, 20, 50, seed=0)
        assert hits > 0


class TestBatchedRollouts:
    """Tabular MDPs roll out in batch; results equal the one-rollout-at-a-time
    reference."""

    @staticmethod
    def assert_matches_loop(mdp, policy, n_rollouts, horizon, seed):
        mean, per = monte_carlo_value(mdp, policy, n_rollouts, horizon, seed)
        rewards = reference_rollouts(mdp, policy, n_rollouts, horizon, seed).reward
        ref_per, disc = np.zeros(n_rollouts), 1.0
        for t in range(horizon):  # each rollout's return, summed in step order
            ref_per += disc * rewards[:, t]
            disc *= mdp.discount
        assert np.array_equal(per, ref_per)
        assert mean == float(ref_per.mean())
        hits = count_positive_reward_steps(mdp, policy, n_rollouts, horizon, seed)
        assert hits == int((rewards > 0.0).sum())

    @pytest.mark.parametrize("n_rollouts, horizon", [(1, 1), (1, 60), (40, 1), (50, 60)])
    def test_gridworld_matches_loop(self, gridworld, n_rollouts, horizon):
        plan = value_iteration(exact_reduced_model(gridworld, Mask((0, 2))), 1e-5)
        self.assert_matches_loop(gridworld, plan.policy, n_rollouts, horizon, seed=11)

    def test_gridworld_value_pinned(self, gridworld):
        # recorded from seed 11's one stream, equal to conftest.reference_rollouts
        plan = value_iteration(exact_reduced_model(gridworld, Mask((0, 1))), 1e-6)
        mean, _ = monte_carlo_value(gridworld, plan.policy, 50, 60, seed=11)
        assert repr(mean) == "1.9885889789265467"
        assert count_positive_reward_steps(gridworld, plan.policy, 50, 60, seed=11) == 1631

    def test_predrawn_uniforms_give_the_same_value(self, gridworld):
        """An exo trajectory stepped earlier for seed 11 (it holds the endo
        uniforms) gives, through ``rollout_returns``, the value of seed 11."""
        plan = value_iteration(exact_reduced_model(gridworld, Mask((0, 1))), 1e-6)
        trajectory = exo_trajectory(gridworld, 50, 60, 11)
        assert not trajectory.draws.flags.writeable
        [per] = rollout_returns(gridworld, [plan.policy], 50, 60, trajectory=trajectory)
        assert repr(float(per.mean())) == "1.9885889789265467"
        assert np.array_equal(per, monte_carlo_value(gridworld, plan.policy, 50, 60, 11)[1])
        with pytest.raises(ValueError, match="do not fit"):
            rollout_returns(gridworld, [plan.policy], 50, 59, trajectory=trajectory)
        with pytest.raises(ValueError, match="not both"):
            rollout_returns(gridworld, [plan.policy], 50, 60, 0, trajectory)
        behave = exo_trajectory(gridworld, 50, 60, 11, behave=True)
        with pytest.raises(ValueError, match="do not fit"):
            rollout_returns(gridworld, [plan.policy], 50, 60, trajectory=behave)

    @given(
        case=random_tabular_cases(),
        n_rollouts=st.integers(1, 12),
        horizon=st.integers(1, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_mdps_match_loop(self, case, n_rollouts, horizon, seed):
        mdp, mask = case
        policy = random_policy(mdp, mask, seed)
        self.assert_matches_loop(mdp, policy, n_rollouts, horizon, seed)


class TestHoeffding:
    def test_reference_value(self):
        # exponent -2 exactly: 1 - 2 e^-2
        val = hoeffding_confidence(1, 1.0 / (1 - 0.5), 0.5, 1.0)
        assert val == pytest.approx(1.0 - 2.0 * math.exp(-2.0), abs=1e-12)
        assert val == pytest.approx(0.7293294335, abs=1e-9)

    def test_limit_in_n(self):
        assert hoeffding_confidence(10**9, 0.1, 0.9, 1.0) > 1 - 1e-12

    def test_vacuous_bound_clipped_at_zero(self):
        assert hoeffding_confidence(1, 1e-6, 0.9, 10.0) == 0.0

    def test_gamma_one_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_confidence(10, 0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            hoeffding_deviation(10, 0.9, 1.0, 1.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            hoeffding_confidence(0, 0.1, 0.9, 1.0)
        with pytest.raises(ValueError):
            hoeffding_confidence(1, -0.1, 0.9, 1.0)
        with pytest.raises(ValueError):
            hoeffding_confidence(1, 0.1, 0.9, 0.0)

    @pytest.mark.parametrize("n, r_max", [(0, 1.0), (-3, 1.0), (10, 0.0), (10, -1.0)])
    def test_deviation_refuses_what_confidence_refuses(self, n, r_max):
        with pytest.raises(ValueError, match="n must be|r_max must be"):
            hoeffding_deviation(n, 0.9, 0.9, r_max)
        with pytest.raises(ValueError, match="n must be|r_max must be"):
            hoeffding_confidence(n, 0.1, 0.9, r_max)

    @pytest.mark.parametrize(
        "n, deviation, gamma, r_max, message",
        [
            (100, math.nan, 0.9, 1.0, "deviation must be"),
            (100, 0.5, 0.9, math.nan, "r_max must be"),
            (100, 0.5, 0.9, math.inf, "r_max must be"),
            (100, 0.5, math.nan, 1.0, "gamma"),
            (math.nan, 0.5, 0.9, 1.0, "n must be"),
        ],
    )
    def test_confidence_refuses_nan_and_infinite_inputs(
        self, n, deviation, gamma, r_max, message
    ):
        with pytest.raises(ValueError, match=message):
            hoeffding_confidence(n, deviation, gamma, r_max)

    @pytest.mark.parametrize(
        "n, confidence, gamma, r_max, message",
        [
            (100, 0.9, 0.9, math.nan, "r_max must be"),
            (100, 0.9, 0.9, math.inf, "r_max must be"),
            (100, math.nan, 0.9, 1.0, "confidence must be"),
            (100, 0.9, math.nan, 1.0, "gamma"),
            (math.nan, 0.9, 0.9, 1.0, "n must be"),
        ],
    )
    def test_deviation_refuses_nan_and_infinite_inputs(
        self, n, confidence, gamma, r_max, message
    ):
        with pytest.raises(ValueError, match=message):
            hoeffding_deviation(n, confidence, gamma, r_max)

    def test_deviation_inverts_confidence(self):
        dev = hoeffding_deviation(500, 0.9, 0.85, 2.0)
        assert hoeffding_confidence(500, dev, 0.85, 2.0) == pytest.approx(0.9, abs=1e-12)


def test_lift_matches_reduction(gridworld):
    mask = Mask((0, 2))
    model = exact_reduced_model(gridworld, mask)
    plan = value_iteration(model, 1e-6)
    space = plan.values.space
    lifted = gridworld.lift(space, plan.values.values).reshape(-1)
    # states sharing a reduced image share the lifted value
    rng = np.random.default_rng(0)
    full = ReducedSpace(
        gridworld.endo_cardinality, Mask.full(gridworld.m), gridworld.exo_cardinalities
    )
    for _ in range(50):
        endo = int(rng.integers(full.endo_cardinality))
        exo = tuple(int(rng.integers(2)) for _ in range(gridworld.m))
        idx = endo * full.n_exo + full.encode_exo(exo)
        reduced = endo * space.n_exo + space.encode_exo([exo[i] for i in mask])
        assert lifted[idx] == plan.values.values[reduced]
