import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exomdp.core import InsufficientDataError, Mask, StateSpaceTooLargeError
from exomdp.domains import (
    build_chain_mdp,
    build_copy_chain_mdp,
    build_gridworld,
    build_random_mdp,
)
from exomdp.estimation import (
    ExoRolloutDataset,
    collect_exo_rollouts,
    collect_full_rollouts,
    estimate_reward_variables,
    exact_reduced_model,
    exo_pairs_from_full,
    fit_reduced_mdp,
    load_exo_dataset,
    load_full_dataset,
    save_exo_dataset,
    save_full_dataset,
    transition_mutual_information,
    transition_mutual_information_with_endo,
)
from exomdp.planner import value_iteration

from conftest import BlackBox, constant_reward_mdp, random_tabular_cases


class TestCollectExo:
    def test_transition_count(self):
        mdp = build_chain_mdp((2, 2), (0.3, 0.3))
        ds = collect_exo_rollouts(mdp, n_rollouts=2, horizon=3, seed=0)
        assert len(ds) == 6
        assert ds.exo.shape == (6, 2)

    def test_fixed_point_chain(self):
        mdp = build_chain_mdp((3,), (0.0,))
        ds = collect_exo_rollouts(mdp, 5, 10, seed=1)
        assert np.array_equal(ds.exo, ds.next_exo)

    def test_symmetric_flip_frequency(self):
        mdp = build_chain_mdp((2,), (0.5,))
        ds = collect_exo_rollouts(mdp, 200, 50, seed=2)
        flip_rate = float((ds.exo[:, 0] != ds.next_exo[:, 0]).mean())
        assert abs(flip_rate - 0.5) < 0.02

    def test_deterministic_given_seed(self):
        mdp = build_chain_mdp((2, 3), (0.2, 0.4))
        a = collect_exo_rollouts(mdp, 10, 10, seed=7)
        b = collect_exo_rollouts(mdp, 10, 10, seed=7)
        assert np.array_equal(a.exo, b.exo) and np.array_equal(a.next_exo, b.next_exo)

    @staticmethod
    def assert_matches_loop(mdp, n_rollouts, horizon, seed):
        ds = collect_exo_rollouts(mdp, n_rollouts, horizon, seed)
        ref = collect_exo_rollouts(BlackBox(mdp), n_rollouts, horizon, seed)
        for got, want in ((ds.exo, ref.exo), (ds.next_exo, ref.next_exo)):
            assert got.dtype == want.dtype == np.int16
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_rollouts, horizon", [(1, 1), (1, 50), (30, 1), (200, 50)])
    def test_gridworld_batch_matches_loop(self, gridworld, n_rollouts, horizon):
        self.assert_matches_loop(gridworld, n_rollouts, horizon, seed=3)

    @given(
        case=random_tabular_cases(),
        n_rollouts=st.integers(1, 12),
        horizon=st.integers(1, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_mdp_batch_matches_loop(self, case, n_rollouts, horizon, seed):
        self.assert_matches_loop(case[0], n_rollouts, horizon, seed)

    def test_validation(self):
        mdp = build_chain_mdp((2,), (0.5,))
        with pytest.raises(ValueError):
            collect_exo_rollouts(mdp, 0, 5)


class TestCollectFull:
    def test_horizon_one_counts(self):
        mdp = constant_reward_mdp([1.0])
        ds = collect_full_rollouts(mdp, None, n_rollouts=7, horizon=1, seed=0)
        assert len(ds) == 7

    def test_constant_reward_recorded(self):
        mdp = constant_reward_mdp([2.0, 3.0])
        ds = collect_full_rollouts(mdp, None, 5, 4, seed=0)
        assert np.allclose(ds.reward, 5.0)

    def test_uniform_action_frequency(self):
        mdp = constant_reward_mdp([0.0], n_actions=2)
        ds = collect_full_rollouts(mdp, None, 200, 50, seed=3)
        assert abs(float((ds.action == 0).mean()) - 0.5) < 0.02
        assert ds.policy_tag == "uniform-random"

    def test_callable_policy(self):
        mdp = constant_reward_mdp([0.0], n_actions=3)
        ds = collect_full_rollouts(mdp, lambda s, rng: 2, 5, 5, seed=0)
        assert np.all(ds.action == 2)


class TestFit:
    def test_deterministic_chain_one_hot(self):
        mdp = build_chain_mdp((3,), (0.0,))
        exo = collect_exo_rollouts(mdp, 30, 10, seed=0)
        full = collect_full_rollouts(mdp, None, 5, 5, seed=0)
        model = fit_reduced_mdp(mdp, Mask((0,)), exo, full, smoothing=0.0)
        observed = np.unique(exo.exo[:, 0])
        for v in observed:
            row = model.exo_table[v]
            assert row[v] == 1.0 and row.sum() == 1.0

    def test_recovers_hand_toy_tables(self, hand_toy):
        mask = Mask.full(hand_toy.m)
        exo = collect_exo_rollouts(hand_toy, 2000, 50, seed=1)
        full = collect_full_rollouts(hand_toy, None, 2000, 50, seed=2)
        fitted = fit_reduced_mdp(hand_toy, mask, exo, full)
        fitted.assert_valid()
        truth = exact_reduced_model(hand_toy, mask)
        exo_tv = 0.5 * np.abs(fitted.exo_table - truth.exo_table).sum(axis=-1)
        endo_tv = 0.5 * np.abs(fitted.endo_table - truth.endo_table).sum(axis=-1)
        assert float(exo_tv.max()) < 0.02
        assert float(endo_tv.max()) < 0.02
        assert np.allclose(fitted.reward_table, truth.reward_table)

    def test_unobserved_row_uniform_fallback(self):
        mdp = build_chain_mdp((4,), (0.0,))
        # value 3 never appears: rollouts started away from it stay away
        exo = ExoRolloutDataset(
            exo=np.array([[0], [1]], dtype=np.int16),
            next_exo=np.array([[0], [1]], dtype=np.int16),
            cardinalities=(4,),
            horizon=1,
            n_rollouts=2,
            seed=0,
        )
        full = collect_full_rollouts(mdp, None, 2, 2, seed=0)
        model = fit_reduced_mdp(mdp, Mask((0,)), exo, full, smoothing=0.0)
        assert np.allclose(model.exo_table[3], 0.25)

    def test_empty_dataset_rejected(self, hand_toy):
        empty = ExoRolloutDataset(
            exo=np.empty((0, 2), dtype=np.int16),
            next_exo=np.empty((0, 2), dtype=np.int16),
            cardinalities=(2, 2),
            horizon=1,
            n_rollouts=1,
            seed=0,
        )
        full = collect_full_rollouts(hand_toy, None, 1, 1, seed=0)
        with pytest.raises(InsufficientDataError):
            fit_reduced_mdp(hand_toy, Mask((0,)), empty, full)

    def test_state_budget_enforced(self, hand_toy):
        exo = collect_exo_rollouts(hand_toy, 5, 5, seed=0)
        full = collect_full_rollouts(hand_toy, None, 5, 5, seed=0)
        with pytest.raises(StateSpaceTooLargeError):
            fit_reduced_mdp(hand_toy, Mask.full(2), exo, full, state_budget=3)

    def test_full_mask_fit_plans_like_analytic_model(self):
        # 4 endo x 25 exo = 100 states; exhaustive data
        mdp = build_random_mdp(11, endo_cardinality=4, cards=(5, 5), n_actions=2)
        mask = Mask.full(2)
        exo = collect_exo_rollouts(mdp, 2000, 50, seed=0)
        full = collect_full_rollouts(mdp, None, 2000, 50, seed=1)
        fitted = fit_reduced_mdp(mdp, mask, exo, full)
        plan_fit = value_iteration(fitted, 1e-6, 120.0)
        plan_true = value_iteration(exact_reduced_model(mdp, mask), 1e-6, 120.0)
        agreement = float(
            (plan_fit.policy.actions == plan_true.policy.actions).mean()
        )
        assert agreement >= 0.95


class TestExactReducedModel:
    def test_full_mask_reproduces_kernels(self, hand_toy):
        model = exact_reduced_model(hand_toy, Mask.full(hand_toy.m))
        assert np.allclose(model.exo_table, hand_toy.exo_kernel)
        assert np.allclose(model.endo_table, hand_toy.endo_kernel)
        assert np.allclose(model.reward_table, hand_toy.full_reward)

    def test_rows_normalized_for_any_mask(self, hand_toy):
        for mask in (Mask(()), Mask((0,)), Mask((1,))):
            model = exact_reduced_model(hand_toy, mask)
            model.assert_valid()


class TestMutualInformation:
    def test_independent_chains_near_zero(self):
        mdp = build_chain_mdp((2, 2), (0.3, 0.4))
        ds = collect_exo_rollouts(mdp, 2000, 50, seed=0)
        assert transition_mutual_information(ds, Mask((0,)), 1) < 0.01

    def test_deterministic_copy_equals_pair_entropy(self):
        card = 4
        mdp = build_copy_chain_mdp(card)
        ds = collect_exo_rollouts(mdp, 1000, 50, seed=0)
        mi = transition_mutual_information(ds, Mask((0,)), 1)
        # direct entropy of the copied variable's empirical transition pair
        codes = ds.exo[:, 1].astype(np.int64) * card + ds.next_exo[:, 1]
        _, counts = np.unique(codes, return_counts=True)
        p = counts / counts.sum()
        entropy = float(-(p * np.log(p)).sum())
        assert mi == pytest.approx(entropy, abs=1e-9)
        assert abs(mi - math.log(card)) <= 0.05 * math.log(card)

    def test_single_transition_gives_zero(self):
        ds = ExoRolloutDataset(
            exo=np.array([[0, 1]], dtype=np.int16),
            next_exo=np.array([[1, 0]], dtype=np.int16),
            cardinalities=(2, 2),
            horizon=1,
            n_rollouts=1,
            seed=0,
        )
        assert transition_mutual_information(ds, Mask((0,)), 1) == 0.0

    def test_empty_mask_convention(self):
        mdp = build_chain_mdp((2, 2), (0.3, 0.3))
        ds = collect_exo_rollouts(mdp, 10, 5, seed=0)
        assert transition_mutual_information(ds, Mask(()), 1) == 0.0

    def test_masked_variable_rejected(self):
        mdp = build_chain_mdp((2, 2), (0.3, 0.3))
        ds = collect_exo_rollouts(mdp, 10, 5, seed=0)
        with pytest.raises(ValueError):
            transition_mutual_information(ds, Mask((0,)), 0)

    def test_empty_dataset_rejected(self):
        ds = ExoRolloutDataset(
            exo=np.empty((0, 2), dtype=np.int16),
            next_exo=np.empty((0, 2), dtype=np.int16),
            cardinalities=(2, 2),
            horizon=1,
            n_rollouts=1,
            seed=0,
        )
        with pytest.raises(InsufficientDataError):
            transition_mutual_information(ds, Mask((0,)), 1)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_symmetric(self, data):
        n = data.draw(st.integers(2, 60))
        rows = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, 2)] * 4), min_size=n, max_size=n
            )
        )
        arr = np.array(rows, dtype=np.int16)
        ds = ExoRolloutDataset(
            exo=arr[:, :2],
            next_exo=arr[:, 2:],
            cardinalities=(3, 3),
            horizon=1,
            n_rollouts=n,
            seed=0,
        )
        forward = transition_mutual_information(ds, Mask((0,)), 1)
        swapped = ExoRolloutDataset(
            exo=arr[:, [1, 0]],
            next_exo=arr[:, [3, 2]],
            cardinalities=(3, 3),
            horizon=1,
            n_rollouts=n,
            seed=0,
        )
        backward = transition_mutual_information(swapped, Mask((1,)), 0)
        assert forward >= 0.0
        assert forward == pytest.approx(backward, abs=1e-9)

    def test_endo_aware_variant(self, hand_toy):
        full = collect_full_rollouts(hand_toy, None, 500, 20, seed=0)
        mi = transition_mutual_information_with_endo(full, Mask((0,)), 1)
        assert mi >= 0.0


class TestEstimateRewardVariables:
    def test_reward_independent_of_exo_gives_empty_mask(self):
        mdp = constant_reward_mdp([4.0, -1.0])
        mask = estimate_reward_variables(mdp, 0.0, 50, 5, seed=0)
        assert mask.included == ()

    def test_value_dependent_component_detected(self):
        mdp = build_gridworld()
        mask = estimate_reward_variables(mdp, 0.0, 250, 5, seed=0)
        assert mask.included == (0, 2)  # goal-position and trap variables

    def test_component_equal_to_own_value(self):
        # first component pays its variable's value; the other is constant
        from exomdp.core import TabularFullMdp, VariableSpec

        tables = [np.zeros((1, 2, 1)), np.full((1, 2, 1), 3.0)]
        tables[0][0, 1, 0] = 1.0  # reward equals the binary value
        mdp = TabularFullMdp(
            endo_kernel=np.ones((1, 1, 4, 1)),
            exo_kernel=np.full((4, 4), 0.25),
            reward_tables=tables,
            init_endo=np.ones(1),
            init_exo=np.full(4, 0.25),
            discount=0.9,
            variable_specs=(VariableSpec(0, 2), VariableSpec(1, 2)),
        )
        mask = estimate_reward_variables(mdp, 0.0, 100, 5, seed=0)
        assert mask.included == (0,)

    def test_infinite_threshold_gives_empty_mask(self):
        mdp = build_gridworld()
        mask = estimate_reward_variables(mdp, float("inf"), 50, 5, seed=0)
        assert mask.included == ()

    def test_n_settings_validation(self):
        mdp = constant_reward_mdp([1.0])
        with pytest.raises(ValueError):
            estimate_reward_variables(mdp, 0.0, 10, 1, seed=0)

    def test_context_sampler_hook(self):
        mdp = build_gridworld()
        spec_cells = (1, 3)

        def biased(rng):
            return int(spec_cells[int(rng.integers(2))]), int(rng.integers(5))

        mask = estimate_reward_variables(
            mdp, 0.0, 40, 5, seed=0, context_sampler=biased
        )
        assert 0 in mask  # goal variable always varies at goal cells


class TestDataPolicyInvariance:
    @pytest.mark.parametrize("policy", [None, lambda s, rng: 0])
    def test_exo_tables_agree_across_policies(self, policy):
        mdp = build_gridworld()
        mask = Mask((0, 2))
        exo = collect_exo_rollouts(mdp, 2000, 50, seed=0)
        full = collect_full_rollouts(mdp, policy, 2000, 50, seed=1)
        from_free = fit_reduced_mdp(mdp, mask, exo, full)
        from_policy = fit_reduced_mdp(mdp, mask, exo_pairs_from_full(full), full)
        tv = 0.5 * np.abs(from_free.exo_table - from_policy.exo_table).sum(axis=-1)
        assert float(tv.max()) < 0.02


class TestSerialization:
    def test_exo_round_trip(self, tmp_path):
        mdp = build_chain_mdp((2, 3), (0.2, 0.4))
        ds = collect_exo_rollouts(mdp, 10, 5, seed=3)
        path = tmp_path / "exo.csv"
        save_exo_dataset(ds, path)
        loaded = load_exo_dataset(path)
        assert np.array_equal(loaded.exo, ds.exo)
        assert np.array_equal(loaded.next_exo, ds.next_exo)
        assert loaded.cardinalities == ds.cardinalities
        assert (loaded.horizon, loaded.n_rollouts, loaded.seed) == (5, 10, 3)

    def test_full_round_trip(self, tmp_path, hand_toy):
        ds = collect_full_rollouts(hand_toy, None, 8, 4, seed=9)
        path = tmp_path / "full.csv"
        save_full_dataset(ds, path)
        loaded = load_full_dataset(path)
        assert np.array_equal(loaded.endo, ds.endo)
        assert np.array_equal(loaded.action, ds.action)
        assert np.array_equal(loaded.reward, ds.reward)
        assert np.array_equal(loaded.next_exo, ds.next_exo)
        assert loaded.policy_tag == ds.policy_tag

    def test_planned_policy_round_trip(self, tmp_path, hand_toy):
        # the policy tag contains a space: "reduced-policy:(0, 1)"
        plan = value_iteration(exact_reduced_model(hand_toy, Mask((0, 1))), 1e-6)
        ds = collect_full_rollouts(hand_toy, plan.policy, 8, 4, seed=9)
        path = tmp_path / "full.csv"
        save_full_dataset(ds, path)
        loaded = load_full_dataset(path)
        assert loaded.policy_tag == ds.policy_tag == "reduced-policy:(0, 1)"
        for name in ("endo", "action", "reward", "next_endo", "exo", "next_exo"):
            assert np.array_equal(getattr(loaded, name), getattr(ds, name))
        assert (loaded.endo_cardinality, loaded.action_count) == (2, 2)
        assert (loaded.horizon, loaded.n_rollouts, loaded.seed) == (4, 8, 9)
