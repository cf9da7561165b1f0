import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exomdp.core import (
    FactoredState,
    InvalidMaskError,
    Mask,
    ReducedState,
    StateSpaceTooLargeError,
    TabularFullMdp,
    VariableSpec,
    action_independence_pvalues,
    enumerate_reduced_states,
    reduce_state,
    reduced_reward,
    rollout_uniforms,
    truncation_horizon,
)
from exomdp.domains import build_crowd, build_factory, build_gridworld

from conftest import constant_reward_mdp


class TestVariableSpec:
    def test_valid(self):
        spec = VariableSpec(0, 3, "traffic")
        assert spec.cardinality == 3

    def test_zero_cardinality_rejected(self):
        with pytest.raises(ValueError):
            VariableSpec(0, 0)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            VariableSpec(-1, 2)


class TestMask:
    def test_strictly_increasing_required(self):
        with pytest.raises(InvalidMaskError):
            Mask((2, 1))
        with pytest.raises(InvalidMaskError):
            Mask((1, 1))
        with pytest.raises(InvalidMaskError):
            Mask((-1, 0))

    def test_of_sorts_and_dedups(self):
        assert Mask.of([3, 1, 3, 0]).included == (0, 1, 3)

    def test_empty_and_full_are_legal(self):
        assert len(Mask(())) == 0
        assert Mask.full(4).included == (0, 1, 2, 3)

    def test_complement(self):
        assert Mask((0, 2)).complement(4).included == (1, 3)
        assert Mask(()).complement(2).included == (0, 1)

    def test_with_variable(self):
        assert Mask((1,)).with_variable(0).included == (0, 1)
        with pytest.raises(InvalidMaskError):
            Mask((1,)).with_variable(1)

    def test_relative_to(self):
        assert Mask((2,)).relative_to(Mask((0, 2, 4))).included == (1,)
        with pytest.raises(InvalidMaskError):
            Mask((3,)).relative_to(Mask((0, 2)))


class TestReduceState:
    def test_projection(self):
        state = FactoredState(3, (1, 0, 2))
        assert reduce_state(state, Mask((0, 2))) == ReducedState(3, (1, 2))

    def test_full_mask_identity(self):
        state = FactoredState(1, (4, 5, 6))
        assert reduce_state(state, Mask.full(3)) == ReducedState(1, (4, 5, 6))

    def test_empty_mask(self):
        assert reduce_state(FactoredState(7, (1, 2)), Mask(())) == ReducedState(7, ())

    def test_out_of_range_mask(self):
        with pytest.raises(InvalidMaskError):
            reduce_state(FactoredState(0, (1,)), Mask((1,)))

    @given(
        data=st.data(),
        exo=st.lists(st.integers(0, 5), min_size=1, max_size=7),
    )
    @settings(max_examples=200, deadline=None)
    def test_composition(self, data, exo):
        m = len(exo)
        parent_set = data.draw(st.sets(st.integers(0, m - 1)))
        parent = Mask.of(parent_set)
        child = Mask.of(data.draw(st.sets(st.sampled_from(sorted(parent_set))))
                        if parent_set else set())
        state = FactoredState(0, tuple(exo))
        via_parent = reduce_state(state, parent)
        lifted = FactoredState(via_parent.endo, via_parent.exo_masked)
        composed = reduce_state(lifted, child.relative_to(parent))
        direct = reduce_state(state, child)
        assert composed == direct


class TestReducedReward:
    def test_constant_components(self):
        mdp = constant_reward_mdp([5.0, 3.0])
        rstate = ReducedState(0, (1,))
        assert reduced_reward(mdp, rstate, 0, Mask((1,))) == 3.0

    def test_full_mask_matches_reward(self, hand_toy):
        rng = np.random.default_rng(0)
        full = Mask.full(hand_toy.m)
        for _ in range(50):
            state = hand_toy.sample_initial(rng)
            action = int(rng.integers(hand_toy.action_count))
            rstate = reduce_state(state, full)
            assert reduced_reward(hand_toy, rstate, action, full) == pytest.approx(
                hand_toy.reward(state, action), abs=1e-12
            )

    def test_empty_mask_is_zero(self, hand_toy):
        assert reduced_reward(hand_toy, ReducedState(0, ()), 0, Mask(())) == 0.0

    def test_bad_action(self, hand_toy):
        with pytest.raises(ValueError):
            reduced_reward(hand_toy, ReducedState(0, ()), 9, Mask(()))


class TestEnumerate:
    def test_single_variable(self):
        mdp = constant_reward_mdp([0.0, 0.0, 0.0], n_endo=2)
        # one masked binary variable: 2 endo x 2 values
        states = enumerate_reduced_states(mdp, Mask((1,)))
        assert len(states) == 4

    def test_empty_mask(self):
        mdp = constant_reward_mdp([0.0], n_endo=5)
        assert len(enumerate_reduced_states(mdp, Mask(()))) == 5

    def test_lexicographic_order(self):
        specs = (VariableSpec(0, 2, ""), VariableSpec(1, 3, ""))
        x = 6
        mdp = TabularFullMdp(
            endo_kernel=np.full((2, 1, x, 2), 0.5),
            exo_kernel=np.full((x, x), 1 / x),
            reward_tables=[np.zeros((2, 2, 1)), np.zeros((2, 3, 1))],
            init_endo=np.array([1.0, 0.0]),
            init_exo=np.full(x, 1 / x),
            discount=0.9,
            variable_specs=specs,
        )
        states = enumerate_reduced_states(mdp, Mask((0, 1)))
        assert len(states) == 12
        assert states[0] == ReducedState(0, (0, 0))
        assert states[1] == ReducedState(0, (0, 1))
        assert states[5] == ReducedState(0, (1, 2))
        assert states[6] == ReducedState(1, (0, 0))
        assert states == sorted(states)

    def test_budget_exceeded_names_product(self):
        mdp = constant_reward_mdp([0.0] * 4, n_endo=10)
        with pytest.raises(StateSpaceTooLargeError, match="160"):
            enumerate_reduced_states(mdp, Mask.full(4), state_budget=100)


class TestGenerativeContract:
    @pytest.mark.parametrize(
        "builder", [build_gridworld, build_factory, build_crowd]
    )
    def test_reward_additivity(self, builder):
        mdp = builder()
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            state = mdp.sample_initial(rng)
            state = mdp.sample_transition(state, 0, rng)
            action = int(rng.integers(mdp.action_count))
            total = sum(
                mdp.reward_component(i, state.endo, v, action)
                for i, v in enumerate(state.exo)
            )
            worst = max(worst, abs(mdp.reward(state, action) - total))
        assert worst < 1e-9

    @pytest.mark.parametrize("builder", [build_gridworld, build_factory, build_crowd])
    def test_transition_determinism_given_seed(self, builder):
        mdp = builder()
        state = mdp.sample_initial(np.random.default_rng(5))
        a = mdp.sample_transition(state, 0, np.random.default_rng(42))
        b = mdp.sample_transition(state, 0, np.random.default_rng(42))
        assert a == b

    @pytest.mark.parametrize("builder", [build_gridworld, build_crowd])
    def test_exo_transitions_ignore_action(self, builder):
        mdp = builder()
        state = mdp.sample_initial(np.random.default_rng(3))
        pvals = action_independence_pvalues(
            mdp, state, 0, mdp.action_count - 1, n_samples=10_000, seed=0
        )
        # Bonferroni-adjusted: no per-variable rejection at the 1% level
        assert pvals.min() > 0.01 / mdp.m

    def test_initial_states_valid(self):
        for builder in (build_gridworld, build_factory, build_crowd):
            mdp = builder()
            rng = np.random.default_rng(0)
            for _ in range(20):
                mdp.validate_state(mdp.sample_initial(rng))


class TestTabularFullMdp:
    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError):
            TabularFullMdp(
                endo_kernel=np.full((1, 1, 2, 1), 0.9),
                exo_kernel=np.eye(2),
                reward_tables=[np.zeros((1, 2, 1))],
                init_endo=np.ones(1),
                init_exo=np.array([0.5, 0.5]),
                discount=0.9,
                variable_specs=(VariableSpec(0, 2),),
            )

    def test_rejects_bad_discount(self):
        with pytest.raises(ValueError):
            constant_reward_mdp([1.0], discount=0.0)
        with pytest.raises(ValueError):
            constant_reward_mdp([1.0], discount=1.5)

    def test_reward_equals_component_sum(self, hand_toy):
        rng = np.random.default_rng(2)
        for _ in range(100):
            state = hand_toy.sample_initial(rng)
            for action in range(hand_toy.action_count):
                total = sum(
                    hand_toy.reward_component(i, state.endo, v, action)
                    for i, v in enumerate(state.exo)
                )
                assert hand_toy.reward(state, action) == pytest.approx(
                    total, abs=1e-12
                )


def test_rollout_uniforms_are_the_per_rollout_streams():
    u = rollout_uniforms(5, 3, 6)
    for r in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(r,)))
        assert np.array_equal(u[r], np.concatenate([rng.random(2) for _ in range(3)]))


def test_truncation_horizon():
    h = truncation_horizon(0.9, 1.0, 1e-3)
    assert 0.9**h * 1.0 / 0.1 < 1e-3
    assert 0.9 ** (h - 1) * 1.0 / 0.1 >= 1e-3
    with pytest.raises(ValueError):
        truncation_horizon(1.0, 1.0)
