import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exomdp.core import Mask, PlannerTimeoutError, truncation_horizon
from exomdp.domains import build_random_mdp
from exomdp.estimation import exact_reduced_model
from exomdp.planner import (
    Policy,
    count_positive_reward_steps,
    exact_policy_evaluation,
    hoeffding_confidence,
    hoeffding_deviation,
    lift_reduced_values,
    monte_carlo_value,
    value_iteration,
)

from conftest import (
    BlackBox,
    chain_reduced,
    make_reduced,
    policy_eval_oracle,
    random_policy,
    random_tabular_cases,
)


class TestValueIteration:
    def test_geometric_series(self):
        model = chain_reduced([1.0], gamma=0.5)
        policy, values = value_iteration(model, epsilon=1e-6)
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

    def test_timeout_before_first_sweep(self):
        model = chain_reduced([1.0, 2.0], gamma=0.9)
        with pytest.raises(PlannerTimeoutError) as exc_info:
            value_iteration(model, epsilon=1e-8, timeout=0.0)
        assert isinstance(exc_info.value.policy, Policy)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            value_iteration(chain_reduced([1.0], 0.5), epsilon=0.0)


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
        assert np.allclose(lift_reduced_values(plan.values, mdp), table.values,
                           atol=1e-7)

    def test_value_magnitude_bound(self, hand_toy):
        model = exact_reduced_model(hand_toy, Mask((0,)))
        plan = value_iteration(model, epsilon=1e-8)
        bound = hand_toy.r_max / (1 - hand_toy.discount)
        assert plan.values.max_abs() <= bound

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
    """Tabular MDPs roll out in batch; results equal the per-rollout loop."""

    @staticmethod
    def assert_matches_loop(mdp, policy, n_rollouts, horizon, seed):
        mean, per = monte_carlo_value(mdp, policy, n_rollouts, horizon, seed)
        ref_mean, ref_per = monte_carlo_value(
            BlackBox(mdp), policy, n_rollouts, horizon, seed
        )
        assert np.array_equal(per, ref_per)
        assert mean == ref_mean
        hits = count_positive_reward_steps(mdp, policy, n_rollouts, horizon, seed)
        assert hits == count_positive_reward_steps(
            BlackBox(mdp), policy, n_rollouts, horizon, seed
        )

    @pytest.mark.parametrize("n_rollouts, horizon", [(1, 1), (1, 60), (40, 1), (50, 60)])
    def test_gridworld_matches_loop(self, gridworld, n_rollouts, horizon):
        plan = value_iteration(exact_reduced_model(gridworld, Mask((0, 2))), 1e-5)
        self.assert_matches_loop(gridworld, plan.policy, n_rollouts, horizon, seed=11)

    def test_gridworld_value_pinned(self, gridworld):
        # recorded with the per-rollout loop, before the batched engine
        plan = value_iteration(exact_reduced_model(gridworld, Mask((0, 1))), 1e-6)
        mean, _ = monte_carlo_value(gridworld, plan.policy, 50, 60, seed=11)
        assert repr(mean) == "1.8321196698656061"
        assert count_positive_reward_steps(gridworld, plan.policy, 50, 60, seed=11) == 1620

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

    def test_deviation_inverts_confidence(self):
        dev = hoeffding_deviation(500, 0.9, 0.85, 2.0)
        assert hoeffding_confidence(500, dev, 0.85, 2.0) == pytest.approx(0.9, abs=1e-12)


def test_lift_reduced_values_matches_reduction(gridworld):
    mask = Mask((0, 2))
    model = exact_reduced_model(gridworld, mask)
    plan = value_iteration(model, 1e-6)
    lifted = lift_reduced_values(plan.values, gridworld)
    # states sharing a reduced image share the lifted value
    from exomdp.core import FactoredState, reduce_state

    rng = np.random.default_rng(0)
    full_space_n = gridworld.endo_cardinality
    for _ in range(50):
        endo = int(rng.integers(full_space_n))
        exo = tuple(int(rng.integers(2)) for _ in range(gridworld.m))
        state = FactoredState(endo, exo)
        idx = endo * gridworld.n_exo_states + gridworld.encode_exo(exo)
        assert lifted[idx] == plan.values.value_of_reduced(
            reduce_state(state, mask)
        )
