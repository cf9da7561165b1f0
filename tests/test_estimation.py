import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exomdp.core import (
    GenerativeMdp,
    InsufficientDataError,
    Mask,
    StateSpaceTooLargeError,
    VariableSpec,
    exo_ranks,
    exo_trajectory,
    reduced_space_for,
    uniform_random_policy,
)
from exomdp.domains import (
    build_chain_mdp,
    build_copy_chain_mdp,
    build_crowd,
    build_factory,
    build_gridworld,
    build_random_mdp,
)
import exomdp.core as core
import exomdp.estimation as estimation
import exomdp.planner as planner
from exomdp.estimation import (
    ExoRolloutDataset,
    FullRolloutDataset,
    SparseTable,
    TabularReducedMdp,
    collect_exo_rollouts,
    collect_full_rollouts,
    estimate_reward_variables,
    exact_reduced_model,
    fit_reduced_mdp,
    transition_mutual_information,
)
from exomdp.planner import Policy, exact_policy_evaluation, value_iteration

from conftest import (
    REWARD_CASES,
    Rows,
    assert_index_equals_oracle,
    constant_reward_mdp,
    count_over_total,
    dataset_of_rows,
    exo_rows,
    full_rows,
    make_reduced,
    mutual_information_oracle,
    per_row_fit_oracle,
    random_policy,
    random_tabular_cases,
    reference_rollouts,
    reward_case,
    reward_screen_oracle,
)


class TestCollectExo:
    def test_transition_count(self):
        mdp = build_chain_mdp((2, 2), (0.3, 0.3))
        ds = collect_exo_rollouts(mdp, n_rollouts=2, horizon=3, seed=0)
        assert len(ds) == 6 == ds.pair_counts.sum()
        assert ds.values.shape[1] == 2 and ds.pairs.shape[0] == 2

    def test_fixed_point_chain(self):
        mdp = build_chain_mdp((3,), (0.0,))
        ds = collect_exo_rollouts(mdp, 5, 10, seed=1)
        assert np.array_equal(ds.pairs[0], ds.pairs[1])

    def test_symmetric_flip_frequency(self):
        mdp = build_chain_mdp((2,), (0.5,))
        ds = collect_exo_rollouts(mdp, 200, 50, seed=2)
        flipped = ds.values[ds.pairs[0], 0] != ds.values[ds.pairs[1], 0]
        flip_rate = float(ds.pair_counts[flipped].sum() / len(ds))
        assert abs(flip_rate - 0.5) < 0.02

    def test_deterministic_given_seed(self):
        mdp = build_chain_mdp((2, 3), (0.2, 0.4))
        a = collect_exo_rollouts(mdp, 10, 10, seed=7)
        b = collect_exo_rollouts(mdp, 10, 10, seed=7)
        for name in ("values", "pairs", "pair_counts"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @staticmethod
    def assert_matches_loop(mdp, n_rollouts, horizon, seed):
        ds = collect_exo_rollouts(mdp, n_rollouts, horizon, seed)
        # a planned policy draws no action: its chain is the policy-free one
        planned = random_policy(mdp, Mask(()), 0)
        ref = reference_rollouts(mdp, planned, n_rollouts, horizon, seed).exo
        assert ds.values.dtype == ref.dtype == np.int16
        assert_index_equals_oracle(ds, Rows.of_chain(mdp, ref))

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


class TopValueMdp(GenerativeMdp):
    """One exogenous variable of the given cardinality, always at its top
    value; counts the rollouts started on it."""

    action_count = 1
    endo_cardinality = 1
    discount = 0.9
    r_max = 0.0
    draws_per_step = 1
    exo_columns = (0,)

    def __init__(self, cardinality):
        self.cardinality = cardinality
        self.started = 0

    @property
    def variable_specs(self):
        return (VariableSpec(0, self.cardinality),)

    def batch_initial(self, u):
        self.started += len(u)
        top = np.full((len(u), 1), self.cardinality - 1)
        return np.zeros(len(u), dtype=np.int64), top

    def batch_exo_step(self, exo, u):
        return exo

    def batch_endo_step(self, endo, exo, action, u):
        return endo

    def reward_component_table(self, i):
        return np.zeros((self.endo_cardinality, self.cardinality, self.action_count))


@pytest.mark.parametrize(
    "collect",
    [
        lambda mdp: collect_exo_rollouts(mdp, 2, 3, seed=0),
        lambda mdp: collect_full_rollouts(mdp, None, 2, 3, seed=0),
    ],
    ids=["exo", "full"],
)
def test_cardinality_beyond_int16_rejected_before_rollouts(collect):
    widest = TopValueMdp(32768)
    ds = collect(widest)
    assert ds.values.tolist() == [[32767]] and len(ds) == 6
    too_wide = TopValueMdp(32769)
    with pytest.raises(ValueError, match="32769"):
        collect(too_wide)
    assert too_wide.started == 0


class TestCollectFull:
    def test_horizon_one_counts(self):
        mdp = constant_reward_mdp([1.0])
        ds = collect_full_rollouts(mdp, None, n_rollouts=7, horizon=1, seed=0)
        assert len(ds) == 7

    def test_rewards_never_computed(self, monkeypatch):
        mdp = constant_reward_mdp([2.0, 3.0])

        def refuse(*args):
            raise AssertionError("reward computed")

        monkeypatch.setattr(core, "_rewards", refuse)
        monkeypatch.setattr(type(mdp), "reward_component_table", refuse)
        ds = collect_full_rollouts(mdp, None, 5, 4, seed=0)
        assert len(ds) == ds.step_counts.sum() == 20

    def test_uniform_action_frequency(self):
        mdp = constant_reward_mdp([0.0], n_actions=2)
        ds = collect_full_rollouts(mdp, None, 200, 50, seed=3)
        first = ds.steps[0] % mdp.action_count == 0
        assert abs(float(ds.step_counts[first].sum() / len(ds)) - 0.5) < 0.02

    def test_callable_policy(self):
        mdp = constant_reward_mdp([0.0], n_actions=3)
        with pytest.raises(ValueError, match="a planner.Policy or the Uniform"):
            collect_full_rollouts(mdp, lambda s, rng: 2, 5, 5, seed=0)

    @pytest.mark.parametrize("n_rollouts, horizon", [(1, 1), (1, 50), (30, 1), (300, 20)])
    def test_behaviour_policy_batch_matches_loop(self, gridworld, n_rollouts, horizon):
        self.assert_planned_matches_loop(gridworld, None, n_rollouts, horizon, 4)

    @given(
        case=random_tabular_cases(),
        n_rollouts=st.integers(1, 12),
        horizon=st.integers(1, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_behaviour_policy_random_mdps_match_loop(self, case, n_rollouts, horizon, seed):
        self.assert_planned_matches_loop(case[0], None, n_rollouts, horizon, seed)

    @staticmethod
    def assert_planned_matches_loop(mdp, policy, n_rollouts, horizon, seed):
        ds = collect_full_rollouts(mdp, policy, n_rollouts, horizon, seed)
        behaviour = uniform_random_policy(mdp) if policy is None else policy
        ref = reference_rollouts(mdp, behaviour, n_rollouts, horizon, seed)
        rows = Rows.of_chain(mdp, ref.exo, ref.endo, ref.action)
        assert_index_equals_oracle(ds, rows)
        assert (ds.horizon, ds.n_rollouts, ds.seed) == (horizon, n_rollouts, seed)

    @pytest.mark.parametrize("n_rollouts, horizon", [(1, 1), (1, 50), (30, 1), (60, 50)])
    def test_planned_policy_batch_matches_loop(self, gridworld, n_rollouts, horizon):
        plan = value_iteration(exact_reduced_model(gridworld, Mask((0, 2))), 1e-5)
        self.assert_planned_matches_loop(gridworld, plan.policy, n_rollouts, horizon, 4)

    @given(
        case=random_tabular_cases(),
        n_rollouts=st.integers(1, 12),
        horizon=st.integers(1, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_planned_policy_random_mdps_match_loop(self, case, n_rollouts, horizon, seed):
        mdp, mask = case
        policy = random_policy(mdp, mask, seed)
        self.assert_planned_matches_loop(mdp, policy, n_rollouts, horizon, seed)


class TestFit:
    def test_deterministic_chain_one_hot(self):
        mdp = build_chain_mdp((3,), (0.0,))
        exo = collect_exo_rollouts(mdp, 30, 10, seed=0)
        full = collect_full_rollouts(mdp, None, 5, 5, seed=0)
        model = fit_reduced_mdp(mdp, Mask((0,)), exo, full, smoothing=0.0)
        observed = exo.values[exo.pairs[0], 0]
        for v in observed:
            row = model.exo_table.to_dense()[v]
            assert row[v] == 1.0 and row.sum() == 1.0

    def test_recovers_hand_toy_tables(self, hand_toy):
        mask = Mask.full(hand_toy.m)
        exo = collect_exo_rollouts(hand_toy, 2000, 50, seed=1)
        full = collect_full_rollouts(hand_toy, None, 2000, 50, seed=2)
        fitted = fit_reduced_mdp(hand_toy, mask, exo, full)
        fitted.assert_valid()
        truth = exact_reduced_model(hand_toy, mask)
        exo_gap = fitted.exo_table.to_dense() - truth.exo_table.to_dense()
        exo_tv = 0.5 * np.abs(exo_gap).sum(axis=-1)
        endo_gap = fitted.endo_table.to_dense() - truth.endo_table.to_dense()
        endo_tv = 0.5 * np.abs(endo_gap).sum(axis=-1)
        assert float(exo_tv.max()) < 0.02
        assert float(endo_tv.max()) < 0.02
        assert np.allclose(fitted.reward_table, truth.reward_table)

    def test_unobserved_row_uniform_fallback(self):
        mdp = build_chain_mdp((4,), (0.0,))
        # value 3 never appears: rollouts started away from it stay away
        seen = np.array([[0], [1]], dtype=np.int16)
        exo = dataset_of_rows(Rows((4,), seen, seen))
        full = collect_full_rollouts(mdp, None, 2, 2, seed=0)
        model = fit_reduced_mdp(mdp, Mask((0,)), exo, full, smoothing=0.0)
        assert np.allclose(model.exo_table.to_dense()[3], 0.25)

    def test_empty_dataset_rejected(self, hand_toy):
        none = np.empty((0, 2), dtype=np.int16)
        empty = dataset_of_rows(Rows((2, 2), none, none))
        full = collect_full_rollouts(hand_toy, None, 1, 1, seed=0)
        with pytest.raises(InsufficientDataError):
            fit_reduced_mdp(hand_toy, Mask((0,)), empty, full)

    def test_datasets_of_another_mdp_rejected(self, gridworld, hand_toy):
        chain = build_chain_mdp((3, 3, 3), (0.3, 0.3, 0.3))
        exo = collect_exo_rollouts(chain, 5, 5, seed=0)
        full = collect_full_rollouts(chain, None, 5, 5, seed=0)
        own_exo = collect_exo_rollouts(gridworld, 5, 5, seed=0)
        own_full = collect_full_rollouts(gridworld, None, 5, 5, seed=0)
        for exo_data, full_data in ((exo, full), (exo, own_full), (own_exo, full)):
            with pytest.raises(ValueError, match="do not match") as info:
                fit_reduced_mdp(gridworld, Mask((0,)), exo_data, full_data)
            assert "(2, 2, 2, 2, 2)" in str(info.value)
            assert "(3, 3, 3)" in str(info.value)
        # same exogenous variables, other endogenous or action count
        toy_exo = collect_exo_rollouts(hand_toy, 5, 5, seed=0)
        for other in (
            constant_reward_mdp([0.0, 0.0], n_endo=3),
            constant_reward_mdp([0.0, 0.0], n_actions=3),
        ):
            other_full = collect_full_rollouts(other, None, 5, 5, seed=0)
            with pytest.raises(ValueError, match=r"\(\(2, 2\), 2, 2\)"):
                fit_reduced_mdp(hand_toy, Mask((0,)), toy_exo, other_full)

    def test_full_dataset_refused_as_exo_data(self, hand_toy):
        """A full dataset holds no exo pairs: passed where the policy-free
        exo dataset goes, it is refused with a ValueError naming its type."""
        full = collect_full_rollouts(hand_toy, None, 5, 5, seed=0)
        with pytest.raises(ValueError, match="ExoRolloutDataset .*got FullRolloutDataset"):
            fit_reduced_mdp(hand_toy, Mask((0,)), full, full)

    def test_state_budget_enforced(self, hand_toy):
        exo = collect_exo_rollouts(hand_toy, 5, 5, seed=0)
        full = collect_full_rollouts(hand_toy, None, 5, 5, seed=0)
        with pytest.raises(StateSpaceTooLargeError):
            fit_reduced_mdp(hand_toy, Mask.full(2), exo, full, state_budget=3)

    def test_fit_beyond_the_old_endo_guard_builds(self):
        # 1000 * 1 * 201 * 1000 = 2.01e8 endo cells, over the 2e8 the dense
        # 4-d table was once limited to; 201,000 states fit the state budget
        class WideMdp(TopValueMdp):
            endo_cardinality = 1000

        n, card = WideMdp.endo_cardinality, 201
        rng = np.random.default_rng(0)
        codes = rng.integers(card, size=(500, 1)).astype(np.int16)
        endo = rng.integers(n, size=500)
        exo = dataset_of_rows(Rows((card,), codes[:-1], codes[1:]))
        full = dataset_of_rows(
            Rows(
                (card,), codes[:-1], codes[1:],
                endo[:-1], np.zeros(499, dtype=np.int64), endo[1:], n, 1,
            )
        )
        model = fit_reduced_mdp(WideMdp(card), Mask((0,)), exo, full)
        model.assert_valid()
        table = model.endo_table
        assert table.dense is None and (table.n_rows, table.n_cols) == (n * card, n)
        # one fallback weight per row, at most five stored words per transition
        assert table.nbytes == stored_bytes(table)
        assert table.nbytes <= 8 * (n * card + 5 * len(full))
        # the first condition's row, read from its stored entries
        conditions = endo[:-1] * card + codes[:-1, 0]
        seen = conditions == conditions[0]
        stored = table.rows == conditions[0]
        row = np.full(n, table.spread[conditions[0]])
        row[table.cols[stored]] += table.probs[stored]
        assert np.array_equal(row, np.bincount(endo[1:][seen], minlength=n) / seen.sum())

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


    @pytest.mark.parametrize("case", REWARD_CASES)
    def test_reward_component_table_is_the_scalar_rule(self, case):
        mdp, rule = reward_case(case)
        n, a = mdp.endo_cardinality, mdp.action_count
        for i, spec in enumerate(mdp.variable_specs):
            table = mdp.reward_component_table(i)
            want = np.empty((n, spec.cardinality, a))
            for endo, v, act in np.ndindex(want.shape):
                want[endo, v, act] = rule(i, endo, v, act)
            assert table.dtype == want.dtype and table.tobytes() == want.tobytes()
            assert not table.flags.writeable


class TestExactReducedModel:
    def test_full_mask_reproduces_kernels(self, hand_toy):
        model = exact_reduced_model(hand_toy, Mask.full(hand_toy.m))
        assert np.allclose(model.exo_table.to_dense(), hand_toy.exo_kernel)
        n = hand_toy.endo_cardinality
        assert np.allclose(
            model.endo_table.to_dense(), hand_toy.endo_kernel.reshape(-1, n)
        )
        assert np.allclose(model.reward_table, hand_toy.full_reward)

    def test_rows_normalized_for_any_mask(self, hand_toy):
        for mask in (Mask(()), Mask((0,)), Mask((1,))):
            model = exact_reduced_model(hand_toy, mask)
            model.assert_valid()


def stored_bytes(table):
    return sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))


def endo_conditions(model, full):
    """Each of the full ``Rows``' endo-table row ``(endo * A + action) * X + x``."""
    a, x = model.action_count, model.n_exo_states
    codes = model.space.project_codes(full.exo)
    return (full.endo.astype(np.int64) * a + full.action) * x + codes


@st.composite
def exo_pair_cases(draw):
    """``(x, pairs)``: observed pairs whose source rows cover only part of
    the table, so some rows keep the uniform fallback."""
    x = draw(st.integers(1, 12))
    seen = draw(st.lists(st.integers(0, x - 1), min_size=1, max_size=x, unique=True))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(seen), st.integers(0, x - 1)),
            min_size=1,
            max_size=60,
        )
    )
    return x, pairs


@st.composite
def fit_cases(draw):
    """``(mdp, mask, exo_rows, full_rows)``: a random analytic MDP and mask
    with a few hand-drawn ``Rows`` of transitions, so most endo rows stay
    unseen."""
    mdp, mask = draw(random_tabular_cases())
    n, a, cards = mdp.endo_cardinality, mdp.action_count, mdp.exo_cardinalities
    value = st.tuples(*(st.integers(0, c - 1) for c in cards))
    exo_rows = draw(st.lists(st.tuples(value, value), min_size=1, max_size=30))
    full_rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, a - 1), value,
                st.integers(0, n - 1), value,
            ),
            min_size=1,
            max_size=30,
        )
    )

    def exo_array(values):
        return np.array(values, dtype=np.int16).reshape(len(values), len(cards))

    exo = Rows(
        cards, exo_array([e for e, _ in exo_rows]), exo_array([e for _, e in exo_rows])
    )
    endo, action, x, next_endo, next_x = zip(*full_rows)
    full = Rows(
        cards, exo_array(x), exo_array(next_x), np.array(endo), np.array(action),
        np.array(next_endo), n, a,
    )
    return mdp, mask, exo, full


def assert_fit_equals_oracle(mdp, mask, exo, full, rows, smoothing, limit=None):
    """``fit_reduced_mdp``'s two tables from the datasets ``exo`` and
    ``full`` equal ``per_row_fit_oracle``'s from the ``(exo, full)`` raw
    ``rows``, array for array, to the byte, under ``DENSE_MAX_ENTRIES =
    limit`` (None: the shipped limit)."""
    with pytest.MonkeyPatch.context() as patch:
        if limit is not None:
            patch.setattr(estimation, "DENSE_MAX_ENTRIES", limit)
        model = fit_reduced_mdp(mdp, mask, exo, full, smoothing)
        oracle = per_row_fit_oracle(mdp, mask, *rows, smoothing)
    for got, want in zip((model.endo_table, model.exo_table), oracle):
        assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
        for name in ("rows", "cols", "probs", "spread", "dense"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), name
            if b is not None:
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name


class TestFitFromJointCounts:
    """The tables fitted from each dataset's joint counts are those of
    counting every row of the engine's chains of the same seeds on its own,
    to the byte."""

    @pytest.mark.parametrize("limit", [0, 10**12], ids=["sparse", "dense"])
    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    @given(
        case=random_tabular_cases(),
        n_rollouts=st.integers(1, 20),
        horizon=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_mdp_rollouts(self, case, n_rollouts, horizon, seed, smoothing, limit):
        mdp, mask = case
        exo = collect_exo_rollouts(mdp, n_rollouts, horizon, seed)
        full = collect_full_rollouts(mdp, None, n_rollouts, horizon, seed + 1)
        rows = (
            exo_rows(mdp, n_rollouts, horizon, seed),
            full_rows(mdp, None, n_rollouts, horizon, seed + 1),
        )
        assert_index_equals_oracle(exo, rows[0])
        assert_index_equals_oracle(full, rows[1])
        for m in (mask, Mask(()), Mask.full(mdp.m)):
            assert_fit_equals_oracle(mdp, m, exo, full, rows, smoothing, limit)

    @pytest.mark.parametrize("limit", [0, None, 10**12], ids=["sparse", "shipped", "dense"])
    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    @pytest.mark.parametrize(
        "builder, masks",
        [
            (build_crowd, [(), (0, 4), (0, 2, 4), (0, 1, 2, 3, 4)]),
            (build_factory, [(), (0, 3), (0, 1, 2, 3, 4, 5)]),
        ],
        ids=["crowd", "factory"],
    )
    def test_crowd_and_factory(self, builder, masks, smoothing, limit):
        mdp = builder()
        exo = collect_exo_rollouts(mdp, 150, 30, seed=3)
        full = collect_full_rollouts(mdp, None, 100, 30, seed=4)
        rows = exo_rows(mdp, 150, 30, 3), full_rows(mdp, None, 100, 30, 4)
        assert_index_equals_oracle(exo, rows[0])
        assert_index_equals_oracle(full, rows[1])
        for mask in map(Mask, masks):
            x = reduced_space_for(mdp, mask).n_exo
            if limit == 10**12 and x * x > 10**6:
                continue  # the crowd's full mask: a dense 4050 x 4050 exo table is 131 MB
            assert_fit_equals_oracle(mdp, mask, exo, full, rows, smoothing, limit)


class WideMdp(GenerativeMdp):
    """Five exogenous variables of 32,768 values each, 2**75 joint vectors:
    each steps by -1, 0 or +1 (mod its cardinality) on its own uniform.
    Only the last variable's parity pays."""

    action_count = 1
    endo_cardinality = 1
    discount = 0.9
    r_max = 1.0
    draws_per_step = 5
    exo_columns = (0, 1, 2, 3, 4)
    variable_specs = tuple(VariableSpec(i, 2**15) for i in range(5))

    def batch_initial(self, u):
        return np.zeros(len(u), dtype=np.int64), (2**15 * u).astype(np.int64)

    def batch_exo_step(self, exo, u):
        return (exo + (3 * u).astype(np.int64) - 1) % 2**15

    def batch_endo_step(self, endo, exo, action, u):
        return endo

    def reward_component_table(self, i):
        paid = np.arange(2**15) % 2 if i == 4 else np.zeros(2**15)
        return paid.astype(float).reshape(1, 2**15, 1)


class TestJointIndexBeyondInt64:
    """Where the product of the cardinalities (here 2**75) overflows int64,
    the index ranks the vectors it sees, exactly as sorting them does."""

    def test_ranks_equal_sorting_the_rows(self, monkeypatch):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2**15, size=(40, 5)).astype(np.int16)
        first = rows[rng.integers(40, size=300)]
        second = rows[rng.integers(40, size=(7, 11))]
        counted = []
        atoms = core._atoms
        monkeypatch.setattr(
            core, "_atoms", lambda *a, **k: counted.append(a[1]) or atoms(*a, **k)
        )
        (rank_a, rank_b), values = exo_ranks([first, second], WideMdp().exo_cardinalities)
        # the codes of four variables (2**60) are ranked before the fifth
        assert len(counted) == 2 and counted[0] == 2**60
        both = np.concatenate([first, second.reshape(-1, 5)])
        want, inverse = np.unique(both, axis=0, return_inverse=True)
        assert values.dtype == np.int16 and np.array_equal(values, want)
        assert rank_a.dtype == rank_b.dtype == np.uint8
        assert rank_a.shape == (300,) and rank_b.shape == (7, 11)
        assert np.array_equal(np.concatenate([rank_a, rank_b.reshape(-1)]), inverse.reshape(-1))

    @pytest.mark.parametrize(
        "exo, message",
        [
            ([[0, 2]], "variable 1 takes values outside 0..1"),
            ([[3, 0]], "variable 0 takes values outside 0..2"),
            ([[0, -1]], "non-negative"),
            ([[0, 0, 0]], "3 variables do not fit"),
        ],
    )
    def test_vectors_outside_the_cardinalities_are_refused(self, exo, message):
        exo = np.array(exo, dtype=np.int16)
        with pytest.raises(ValueError, match=message):
            dataset_of_rows(Rows((3, 2), exo, np.zeros_like(exo)))
        with pytest.raises(ValueError, match=message):
            zero = np.zeros(1, dtype=np.int64)
            dataset_of_rows(Rows((3, 2), exo, exo, zero, zero, zero, 1, 1))

    def test_datasets_and_trajectory_count_and_fit(self):
        mdp = WideMdp()
        exo = collect_exo_rollouts(mdp, 30, 8, seed=0)
        full = collect_full_rollouts(mdp, None, 20, 6, seed=1)
        rows = exo_rows(mdp, 30, 8, 0), full_rows(mdp, None, 20, 6, 1)
        assert_index_equals_oracle(exo, rows[0])
        assert_index_equals_oracle(full, rows[1])
        # the pairs, counted by sorting the rows of both vectors side by side
        side_by_side = np.concatenate([rows[0].exo, rows[0].next_exo], axis=1)
        pairs, counts = np.unique(side_by_side, axis=0, return_counts=True)
        got = np.concatenate([exo.values[exo.pairs[0]], exo.values[exo.pairs[1]]], axis=1)
        assert np.array_equal(got, pairs) and np.array_equal(exo.pair_counts, counts)
        trajectory = exo_trajectory(mdp, 12, 9, seed=2)
        assert np.array_equal(trajectory.values[trajectory.ranks], trajectory.exo)
        distinct = np.unique(trajectory.exo.reshape(-1, 5), axis=0)
        assert np.array_equal(trajectory.values, distinct)
        for mask in (Mask(()), Mask((0,)), Mask((4,))):
            assert_fit_equals_oracle(mdp, mask, exo, full, rows, 0.0)


class TestSparseExoTable:
    """The row-sparse ``SparseTable`` behind both transition tables."""

    @pytest.mark.parametrize("limit", [0, 10**12], ids=["sparse", "dense"])
    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    @given(case=exo_pair_cases(), seed=st.integers(0, 2**32 - 1))
    @example(case=(1, [(0, 0)]), seed=0)  # the empty mask: one code
    @example(case=(3, [(0, 1), (0, 1), (0, 2)]), seed=1)  # rows 1, 2 unseen
    @settings(max_examples=40, deadline=None)
    def test_product_matches_dense_reference(self, case, seed, smoothing, limit):
        x, pairs = case
        reference = count_over_total(pairs, x, x, smoothing)
        codes = np.array([a * x + b for a, b in pairs], dtype=np.int64)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimation, "DENSE_MAX_ENTRIES", limit)
            table = estimation._fit_table(codes, x, x, smoothing)
        assert (table.dense is None) == (limit == 0)
        v = np.random.default_rng(seed).normal(size=(3, x))
        assert np.allclose(table.expect(v), v @ reference.T, rtol=0, atol=1e-12)
        assert np.allclose(table.row_sums(), 1.0, rtol=0, atol=1e-12)
        dense = table.to_dense()
        if smoothing == 0.0:
            assert np.array_equal(dense, reference)
        else:
            assert np.allclose(dense, reference, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("limit", [0, 10**12], ids=["sparse", "dense"])
    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    @given(case=fit_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_fitted_tables_match_the_count_oracle(self, case, seed, smoothing, limit):
        mdp, mask, *rows = case
        exo, full = map(dataset_of_rows, rows)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimation, "DENSE_MAX_ENTRIES", limit)
            model = fit_reduced_mdp(mdp, mask, exo, full, smoothing)
        n, a, x = model.endo_cardinality, model.action_count, model.n_exo_states
        project = model.space.project_codes
        exo_ref = count_over_total(
            zip(project(rows[0].exo), project(rows[0].next_exo)), x, x, smoothing
        )
        endo_ref = count_over_total(
            zip(endo_conditions(model, rows[1]), rows[1].next_endo),
            n * a * x, n, smoothing,
        )
        for table, reference in ((model.endo_table, endo_ref), (model.exo_table, exo_ref)):
            assert (table.dense is None) == (limit == 0)
            dense = table.to_dense()
            assert np.all(dense >= 0)
            assert np.allclose(dense.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.allclose(table.row_sums(), 1.0, rtol=0, atol=1e-12)
            if smoothing == 0.0:
                assert np.array_equal(dense, reference)
            else:
                assert np.allclose(dense, reference, rtol=0, atol=1e-15)
        w = np.random.default_rng(seed).normal(size=(n, x))
        expected = np.einsum("naxm,mx->nax", endo_ref.reshape(n, a, x, n), w)
        assert np.allclose(model.endo_expectation(w), expected, rtol=0, atol=1e-12)
        assert np.allclose(model.exo_expectation(w), w @ exo_ref.T, rtol=0, atol=1e-12)
        for m in (mask, Mask(()), Mask.full(mdp.m)):
            assert_fit_equals_oracle(mdp, m, exo, full, rows, smoothing, limit)

    def test_dense_kernel_is_the_normalized_counts_bit_for_bit(self, gridworld):
        exo = collect_exo_rollouts(gridworld, 50, 20, seed=5)
        full = collect_full_rollouts(gridworld, None, 5, 5, seed=6)
        exo_ref = exo_rows(gridworld, 50, 20, 5)
        full_ref = full_rows(gridworld, None, 5, 5, 6)
        n, a = gridworld.endo_cardinality, gridworld.action_count
        for mask in (Mask(()), Mask((0,)), Mask((0, 2)), Mask.full(gridworld.m)):
            model = fit_reduced_mdp(gridworld, mask, exo, full)
            x, project = model.n_exo_states, model.space.project_codes
            pairs = zip(project(exo_ref.exo), project(exo_ref.next_exo))
            reference = count_over_total(pairs, x, x)
            assert model.exo_table.dense is not None
            assert np.array_equal(model.exo_table.dense, reference)
            v = np.random.default_rng(x).normal(size=(n, x))
            assert np.array_equal(model.exo_expectation(v), v @ reference.T)
            # every gridworld endo table (at most 20 * 5 * 32 * 20 cells) is dense
            pairs = zip(endo_conditions(model, full_ref), full_ref.next_endo)
            reference = count_over_total(pairs, n * a * x, n)
            assert model.endo_table.dense is not None
            assert np.array_equal(model.endo_table.dense, reference)
            expected = np.einsum("naxm,mx->nax", reference.reshape(n, a, x, n), v)
            assert np.array_equal(model.endo_expectation(v), expected)

    def test_large_table_stays_sparse_and_plans_like_dense(self, monkeypatch):
        # 300 * 300 cells exceed the dense limit; the planner agrees with the
        # dense kernel on the same data
        mdp = build_chain_mdp((300,), (0.3,))
        exo = collect_exo_rollouts(mdp, 40, 30, seed=0)
        full = collect_full_rollouts(mdp, None, 5, 5, seed=1)
        sparse = fit_reduced_mdp(mdp, Mask((0,)), exo, full)
        assert sparse.exo_table.dense is None
        assert sparse.exo_table.nbytes == stored_bytes(sparse.exo_table)
        assert sparse.exo_table.nbytes < 300 * 300 * 8 / 10
        monkeypatch.setattr(estimation, "DENSE_MAX_ENTRIES", 10**12)
        dense = fit_reduced_mdp(mdp, Mask((0,)), exo, full)
        assert dense.exo_table.dense is not None
        assert np.array_equal(sparse.exo_table.to_dense(), dense.exo_table.dense)
        plan_sparse = value_iteration(sparse, 1e-8)
        plan_dense = value_iteration(dense, 1e-8)
        assert plan_sparse.residuals == pytest.approx(plan_dense.residuals, abs=1e-12)
        assert np.allclose(
            plan_sparse.values.values, plan_dense.values.values, rtol=0, atol=1e-12
        )

    def test_sparse_endo_kernel_plans_like_dense(self, monkeypatch):
        # 3 * 2 * 9 * 3 = 162 endo cells over the limit of 81, 9 * 9 exo cells
        # at it; short data leaves endo rows unseen
        mdp = build_random_mdp(3, endo_cardinality=3, cards=(3, 3), n_actions=2)
        mask = Mask.full(2)
        exo = collect_exo_rollouts(mdp, 30, 10, seed=0)
        full = collect_full_rollouts(mdp, None, 4, 10, seed=1)
        monkeypatch.setattr(estimation, "DENSE_MAX_ENTRIES", 81)
        sparse = fit_reduced_mdp(mdp, mask, exo, full)
        monkeypatch.setattr(estimation, "DENSE_MAX_ENTRIES", 10**12)
        dense = fit_reduced_mdp(mdp, mask, exo, full)
        assert sparse.endo_table.dense is None and sparse.exo_table.dense is not None
        assert 0 < len(sparse.endo_table._segment_rows) < sparse.endo_table.n_rows
        # plain sweeps at this size, and Anderson steps with the floor lifted
        for floor in (planner.ANDERSON_MIN_STATES, 0):
            monkeypatch.setattr(planner, "ANDERSON_MIN_STATES", floor)
            plan_sparse = value_iteration(sparse, 1e-10)
            plan_dense = value_iteration(dense, 1e-10)
            assert plan_sparse.residuals == pytest.approx(
                plan_dense.residuals, abs=1e-12
            )
            assert np.array_equal(plan_sparse.policy.actions, plan_dense.policy.actions)
        for model in (sparse, dense):
            values = exact_policy_evaluation(model, plan_dense.policy, tol=1e-12)
            assert np.allclose(
                values.values, plan_dense.values.values, rtol=0, atol=1e-8
            )

    @pytest.mark.parametrize("limit", [0, 10**12], ids=["sparse", "dense"])
    def test_nbytes_is_the_stored_arrays(self, monkeypatch, limit):
        monkeypatch.setattr(estimation, "DENSE_MAX_ENTRIES", limit)
        table = SparseTable(3, 3, [0, 0, 2], [1, 2, 2], [0.5, 0.5, 1.0], [0, 1 / 3, 0])
        assert table.nbytes == stored_bytes(table)
        # four arrays of 3 (triplets, spread), two of 2 (segments), the 3x3 table
        assert table.nbytes == 4 * 3 * 8 + 2 * 2 * 8 + (3 * 3 * 8 if limit else 0)

    @pytest.mark.parametrize(
        "probs, message",
        [
            ([1.2, -0.2, 1.0, 1.0], "negative"),
            ([0.5, 0.5 + 1e-6, 1.0, 1.0], "rows off by 1e-06"),
        ],
        ids=["negative", "sum-1+1e-6"],
    )
    def test_assert_valid_reads_sparse_rows(self, probs, message):
        table = SparseTable(3, 3, [0, 0, 1, 2], [0, 1, 1, 2], probs, np.zeros(3))
        model = TabularReducedMdp(
            mask=Mask((0,)),
            space=reduced_space_for(build_chain_mdp((3,), (0.0,)), Mask((0,))),
            endo_table=SparseTable.from_dense(np.ones((3, 1))),
            exo_table=table,
            reward_table=np.zeros((1, 1, 3)),
            discount=0.9,
            r_max=0.0,
        )
        with pytest.raises(ValueError, match=f"exo_table.*{message}"):
            model.assert_valid()

    @pytest.mark.parametrize("table", ["endo", "exo", "reward"])
    def test_nan_refused_before_planning(self, table):
        # with a NaN entry, value iteration once ran to its timeout and
        # returned NaN values
        tables = {
            "endo": np.full((2, 1, 2, 2), 0.5),
            "exo": np.full((2, 2), 0.5),
            "reward": np.zeros((2, 1, 2)),
        }
        tables[table].flat[0] = np.nan
        model = make_reduced(
            tables["endo"], tables["exo"], tables["reward"], 0.9, r_max=1.0
        )
        with pytest.raises(ValueError, match=f"{table}_table"):
            model.assert_valid()
        with pytest.raises(ValueError, match=f"{table}_table"):
            value_iteration(model, timeout=2.0)

    def test_table_shapes_must_fit_the_space(self):
        model = make_reduced(
            np.full((2, 1, 2, 2), 0.5), np.full((2, 2), 0.5), np.zeros((2, 1, 2)), 0.9
        )
        fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
        for name, table in (
            ("endo_table", SparseTable.from_dense(np.full((4, 1), 1.0))),
            ("exo_table", SparseTable.from_dense(np.full((1, 1), 1.0))),
            ("reward_table", np.zeros((2, 2, 2))),
        ):
            with pytest.raises(ValueError, match="do not fit 2 endo values"):
                TabularReducedMdp(**{**fields, name: table})

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([1, 0], [0, 0]),
            ([0, 0], [1, 1]),
            ([0, 3], [0, 0]),
            ([0, 0], [0, -1]),
            ([0, 1], [0, 2]),
        ],
        ids=[
            "unsorted", "repeated", "row-out-of-range", "col-out-of-range",
            "col-beyond-width",
        ],
    )
    def test_malformed_triplets_refused(self, rows, cols):
        with pytest.raises(ValueError, match="sorted by"):
            SparseTable(3, 2, rows, cols, [0.5, 0.5], np.zeros(3))

    def test_from_dense_round_trips(self, hand_toy):
        n = hand_toy.endo_cardinality
        for kernel in (hand_toy.exo_kernel, hand_toy.endo_kernel.reshape(-1, n)):
            table = SparseTable.from_dense(kernel)
            assert (table.n_rows, table.n_cols) == kernel.shape
            assert np.array_equal(table.to_dense(), kernel)
            assert not table.spread.any()
            assert len(table.probs) == np.count_nonzero(kernel)


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
        rows = exo_rows(mdp, 1000, 50, 0)
        codes = rows.exo[:, 1].astype(np.int64) * card + rows.next_exo[:, 1]
        _, counts = np.unique(codes, return_counts=True)
        p = counts / counts.sum()
        entropy = float(-(p * np.log(p)).sum())
        assert mi == pytest.approx(entropy, abs=1e-9)
        assert abs(mi - math.log(card)) <= 0.05 * math.log(card)

    def test_single_transition_gives_zero(self):
        exo, next_exo = np.array([[[0, 1]], [[1, 0]]], dtype=np.int16)
        ds = dataset_of_rows(Rows((2, 2), exo, next_exo))
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
        none = np.empty((0, 2), dtype=np.int16)
        ds = dataset_of_rows(Rows((2, 2), none, none))
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
        ds = dataset_of_rows(Rows((3, 3), arr[:, :2], arr[:, 2:]))
        forward = transition_mutual_information(ds, Mask((0,)), 1)
        swapped = dataset_of_rows(Rows((3, 3), arr[:, [1, 0]], arr[:, [3, 2]]))
        backward = transition_mutual_information(swapped, Mask((1,)), 0)
        assert forward >= 0.0
        assert forward == pytest.approx(backward, abs=1e-9)


@st.composite
def exo_mi_cases(draw):
    """``(rows, mask, j)``: random ``Rows`` of transitions over 2-4
    variables, a nonempty mask and a variable outside it."""
    cards = draw(st.lists(st.integers(1, 7), min_size=2, max_size=4))
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # few distinct rows, so that atoms repeat
    rows = rng.integers(0, cards, size=(draw(st.integers(1, 40)), 2, len(cards)))
    arr = rows[rng.integers(len(rows), size=n)].astype(np.int16)
    rows = Rows(tuple(cards), arr[:, 0], arr[:, 1])
    j = draw(st.integers(0, len(cards) - 1))
    others = [i for i in range(len(cards)) if i != j]
    mask = Mask.of(draw(st.lists(st.sampled_from(others), min_size=1, unique=True)))
    return rows, mask, j


class TestMutualInformationCounting:
    @given(exo_mi_cases())
    @settings(max_examples=80, deadline=None)
    def test_both_counting_paths_equal_the_sort_oracle(self, case):
        rows, mask, j = case
        ds = dataset_of_rows(rows)
        expected = mutual_information_oracle(rows, mask, j)
        for limit in (0, 10**9):  # np.unique for every count, then bincount
            with mock.patch.object(core, "BINCOUNT_CELLS_PER_CODE", limit):
                assert transition_mutual_information(ds, mask, j) == expected

    @pytest.mark.parametrize(
        "mask, j, sorts",
        [((0, 4), 2, False), ((0, 2, 4), 3, False), ((0, 2, 3, 4), 1, True)],
    )
    def test_crowd_counts_on_either_side_of_the_limit(self, monkeypatch, mask, j, sorts):
        # crowd-corr's data: 90,000 transitions; the last mask's 656,100
        # codes lie above the limit, the others' below it
        ds = collect_exo_rollouts(build_crowd(), 1500, 60, seed=11)
        rows = exo_rows(build_crowd(), 1500, 60, 11)
        expected = mutual_information_oracle(rows, Mask(mask), j)
        unique, calls = np.unique, []

        def counting_unique(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        assert transition_mutual_information(ds, Mask(mask), j) == expected
        assert bool(calls) == sorts


class TestEstimateRewardVariables:
    @pytest.mark.parametrize("n_settings", [5, 11])
    @pytest.mark.parametrize("case", REWARD_CASES)
    def test_screen_equals_the_scalar_oracle(self, case, n_settings):
        mdp, rule = reward_case(case)
        for seed in range(3):
            means = reward_screen_oracle(mdp, rule, 120, n_settings, seed)

            def kept(threshold):
                return estimate_reward_variables(mdp, threshold, 120, n_settings, seed)

            assert kept(0.0).included == tuple(i for i, q in enumerate(means) if q > 0)
            # each mean is the oracle's to the bit: kept below it, dropped at it
            for i, q in enumerate(means):
                assert i in kept(np.nextafter(q, -np.inf))
                assert i not in kept(q)

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


class TestDataPolicyInvariance:
    # None: the behaviour policy; the lambda: a planned policy always taking action 0
    @pytest.mark.parametrize(
        "policy",
        [None, lambda mdp: Policy(reduced_space_for(mdp, Mask(())), np.zeros(20), 5)],
    )
    def test_exo_tables_agree_across_policies(self, policy):
        mdp = build_gridworld()
        mask = Mask((0, 2))
        exo = collect_exo_rollouts(mdp, 2000, 50, seed=0)
        if policy is not None:
            policy = policy(mdp)
        full = collect_full_rollouts(mdp, policy, 2000, 50, seed=1)
        # the pairs of the exo chain the full data walked: the behaviour
        # policy's stream holds its action draws, a planned policy's none
        chain = exo_trajectory(mdp, 2000, 50, seed=1, behave=policy is None).exo
        driven = ExoRolloutDataset.from_chain(chain, mdp.exo_cardinalities, 1)
        from_free = fit_reduced_mdp(mdp, mask, exo, full)
        from_policy = fit_reduced_mdp(mdp, mask, driven, full)
        gap = from_free.exo_table.to_dense() - from_policy.exo_table.to_dense()
        tv = 0.5 * np.abs(gap).sum(axis=-1)
        assert float(tv.max()) < 0.02


class TestDatasetsHoldCounts:
    """A dataset keeps its joint exo index, its counts and its provenance,
    and no array over its transitions."""

    def test_no_field_has_one_entry_per_transition(self):
        mdp = build_random_mdp(5, endo_cardinality=3, cards=(2, 2), n_actions=2)
        r, h = 100, 20  # 2,000 transitions; at most 16 pairs and 72 steps
        exo = collect_exo_rollouts(mdp, r, h, seed=0)
        full = collect_full_rollouts(mdp, None, r, h, seed=1)
        provenance = {"values", "cardinalities", "horizon", "n_rollouts", "seed"}
        pairs = {"pairs", "pair_counts"}
        steps = {"steps", "step_counts", "endo_cardinality", "action_count"}
        assert not isinstance(full, ExoRolloutDataset)
        for ds, names in ((exo, pairs | provenance), (full, steps | provenance)):
            assert {f.name for f in dataclasses.fields(ds)} == names
            for name in names:
                value = getattr(ds, name)
                if isinstance(value, np.ndarray):
                    assert r * h not in value.shape, name
            assert len(ds) == r * h
        assert exo.pair_counts.sum() == full.step_counts.sum() == r * h
        assert type(full) is FullRolloutDataset
        assert (full.horizon, full.n_rollouts) == (h, r)

    @pytest.mark.parametrize(
        "builder",
        [build_gridworld, build_crowd, build_factory, lambda: build_random_mdp(0)],
        ids=["gridworld", "crowd", "factory", "random-0"],
    )
    def test_full_collection_ranks_its_chain_once(self, builder, monkeypatch):
        """A full collection counts its steps on the ranks its stage 1 made:
        one ``exo_ranks`` call, one count (its steps; no exo pair is
        counted), and the steps of counting the raw rows."""
        mdp = builder()
        ranked, counted = [], []

        def rank(*args):
            ranked.append(args)
            return exo_ranks(*args)

        def count(*args, **kwargs):
            counted.append(args[1])
            return core._atoms(*args, **kwargs)

        monkeypatch.setattr(core, "exo_ranks", rank)
        monkeypatch.setattr(estimation, "exo_ranks", rank)
        monkeypatch.setattr(estimation, "_atoms", count)
        full = collect_full_rollouts(mdp, None, 30, 12, seed=5)
        monkeypatch.undo()
        n, a, d = mdp.endo_cardinality, mdp.action_count, len(full.values)
        assert len(ranked) == 1 and counted == [n * a * d * n]
        assert not hasattr(full, "pairs") and not hasattr(full, "pair_counts")
        assert_index_equals_oracle(full, full_rows(mdp, None, 30, 12, 5))
