import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exomdp.core as core
from exomdp.core import (
    GenerativeMdp,
    InvalidMaskError,
    Mask,
    ReducedSpace,
    StateSpaceTooLargeError,
    TabularFullMdp,
    VariableSpec,
    exo_trajectory,
    reduced_space_for,
    rollout_returns,
    rollouts,
    truncation_horizon,
    uniform_random_policy,
)
from exomdp.domains import (
    CrowdMdp,
    CrowdSpec,
    build_crowd,
    build_factory,
    build_gridworld,
    build_random_mdp,
)
from exomdp.estimation import (
    collect_exo_rollouts,
    collect_full_rollouts,
    estimate_reward_variables,
    exact_reduced_model,
    fit_reduced_mdp,
)
from exomdp.planner import (
    Policy,
    count_positive_reward_steps,
    monte_carlo_value,
    value_iteration,
)

from conftest import (
    REWARD_CASES,
    Rows,
    assert_index_equals_oracle,
    constant_reward_mdp,
    initial_state,
    next_state,
    random_policy,
    reference_rollouts,
    reward_case,
    state_reward,
)


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


class TestReduceState:
    """Projecting full exo vectors onto a mask: ``project_codes`` and the
    masked values, in mask order, that its codes stand for."""

    @staticmethod
    def project(exo, mask, cards):
        space = ReducedSpace(1, mask, cards)
        code = int(space.project_codes(np.array(exo, dtype=np.int64)))
        return tuple(space.digit_matrix()[:, code].tolist())

    def test_projection(self):
        assert self.project((1, 0, 2), Mask((0, 2)), (2, 2, 3)) == (1, 2)

    def test_full_mask_identity(self):
        assert self.project((4, 5, 6), Mask.full(3), (5, 6, 7)) == (4, 5, 6)

    def test_empty_mask(self):
        assert self.project((1, 2), Mask(()), (2, 3)) == ()

    def test_out_of_range_mask(self):
        with pytest.raises(InvalidMaskError):
            ReducedSpace(1, Mask((1,)), (2,))

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
        via_parent = self.project(exo, parent, [6] * m)
        # the child's variables by their positions within the parent
        position = {v: k for k, v in enumerate(parent.included)}
        within = Mask(tuple(position[v] for v in child))
        composed = self.project(via_parent, within, [6] * len(parent))
        assert composed == self.project(exo, child, [6] * m)


class TestReducedSpace:
    @given(
        data=st.data(),
        endo_cardinality=st.integers(1, 4),
        cards=st.lists(st.integers(1, 4), max_size=5),
        n_rows=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_codes_round_trip_and_agree(
        self, data, endo_cardinality, cards, n_rows, seed
    ):
        m = len(cards)
        rng = np.random.default_rng(seed)  # values of the variables off the mask
        mask = Mask.of(data.draw(st.sets(st.integers(0, m - 1))) if m else ())
        space = ReducedSpace(endo_cardinality, mask, cards)
        assert space.n_states == endo_cardinality * math.prod(space.cards)
        digits = space.digit_matrix()
        assert digits.shape == (len(mask), space.n_exo)
        for code in range(space.n_exo):
            values = space.decode_exo(code)
            assert tuple(digits[:, code].tolist()) == values
            assert all(0 <= v < c for v, c in zip(values, space.cards))
            assert space.encode_exo(values) == code
        # the flat index endo * n_exo + code enumerates the space endo-major
        flat = [
            endo * space.n_exo + space.encode_exo(digits[:, code].tolist())
            for endo in range(endo_cardinality)
            for code in range(space.n_exo)
        ]
        assert flat == list(range(space.n_states))
        # a full state's code reads only the masked values, in mask order
        rows = (rng.random((n_rows, m)) * cards).astype(np.int16)
        codes = space.project_codes(rows)
        assert codes.shape == (n_rows,)
        assert codes.tolist() == [
            space.encode_exo([int(row[i]) for i in mask]) for row in rows
        ]


class TestReducedReward:
    """A reduced model's reward sums the masked components only."""

    def test_constant_components(self):
        mdp = constant_reward_mdp([5.0, 3.0])
        assert np.all(exact_reduced_model(mdp, Mask((1,))).reward_table == 3.0)

    def test_full_mask_matches_reward(self, hand_toy):
        model = exact_reduced_model(hand_toy, Mask.full(hand_toy.m))
        rng = np.random.default_rng(0)
        for _ in range(50):
            endo, exo = initial_state(hand_toy, rng.random((1, 2)))
            action = int(rng.integers(hand_toy.action_count))
            reward = model.reward_table[endo, action, model.space.encode_exo(exo)]
            assert reward == pytest.approx(
                state_reward(hand_toy, (endo, exo), action), abs=1e-12
            )

    def test_empty_mask_is_zero(self, hand_toy):
        assert not exact_reduced_model(hand_toy, Mask(())).reward_table.any()


class TestEnumerate:
    def test_single_variable(self):
        mdp = constant_reward_mdp([0.0, 0.0, 0.0], n_endo=2)
        # one masked binary variable: 2 endo x 2 values
        assert reduced_space_for(mdp, Mask((1,))).n_states == 4

    def test_empty_mask(self):
        mdp = constant_reward_mdp([0.0], n_endo=5)
        assert reduced_space_for(mdp, Mask(())).n_states == 5

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
        space = reduced_space_for(mdp, Mask((0, 1)))
        assert space.n_states == 12
        # code c holds the masked values digits[:, c], first variable major
        digits = space.digit_matrix().T.tolist()
        assert digits == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
        assert digits == sorted(digits)

    def test_budget_exceeded_names_product(self):
        mdp = constant_reward_mdp([0.0] * 4, n_endo=10)
        with pytest.raises(StateSpaceTooLargeError, match="160"):
            reduced_space_for(mdp, Mask.full(4), state_budget=100)


class TestGenerativeContract:
    @pytest.mark.parametrize("case", REWARD_CASES)
    def test_reward_additivity(self, case):
        mdp, rule = reward_case(case)
        rng = np.random.default_rng(1)
        worst = 0.0
        k = mdp.draws_per_step
        for _ in range(1000):
            state = initial_state(mdp, rng.random((1, k)))
            state = next_state(mdp, state, 0, rng.random((1, k)))
            endo, exo = state
            action = int(rng.integers(mdp.action_count))
            total = sum(rule(i, endo, v, action) for i, v in enumerate(exo))
            worst = max(worst, abs(state_reward(mdp, state, action) - total))
        assert worst < 1e-9

    @pytest.mark.parametrize("case", REWARD_CASES)
    def test_reward_helper_is_the_gather_sum_and_the_scalar_rule(self, case):
        """On random states, the engine's reward helper equals, byte for
        byte, every table gathered and added in variable order from zeros (no
        table skipped), and the scalar rule summed one state at a time; it
        reads exo values, also on the tabular MDP whose ``exo_index`` is
        joint codes."""
        mdp, rule = reward_case(case)
        rng = np.random.default_rng(3)
        rows = 3000
        endo = rng.integers(mdp.endo_cardinality, size=rows)
        exo = np.stack(
            [rng.integers(c, size=rows) for c in mdp.exo_cardinalities], axis=1
        ).astype(np.int16)
        action = rng.integers(mdp.action_count, size=rows)
        got = core._rewards(mdp, endo, exo, action)
        gathered = np.zeros(rows)
        for i in range(mdp.m):
            gathered += mdp.reward_component_table(i)[endo, exo[:, i], action]
        oracle = np.zeros(rows)
        states = zip(endo.tolist(), exo.tolist(), action.tolist())
        for r, (n, values, a) in enumerate(states):
            total = 0.0
            for i, v in enumerate(values):
                total += rule(i, n, v, a)
            oracle[r] = total
        assert got.dtype == np.float64 and got.shape == (rows,)
        assert got.tobytes() == gathered.tobytes() == oracle.tobytes()
        assert len(np.unique(got)) >= 3

    @pytest.mark.parametrize("builder", [build_gridworld, build_factory, build_crowd])
    def test_transition_determinism_given_seed(self, builder):
        mdp = builder()
        k = mdp.draws_per_step
        state = initial_state(mdp, np.random.default_rng(5).random((1, k)))
        a = next_state(mdp, state, 0, np.random.default_rng(42).random((1, k)))
        b = next_state(mdp, state, 0, np.random.default_rng(42).random((1, k)))
        assert a == b

    @pytest.mark.parametrize("builder", [build_gridworld, build_crowd, build_factory])
    def test_exo_transitions_ignore_action(self, builder):
        """Two planned policies that act differently walk the identical exo
        trajectory, the one stage 1 steps without any policy."""
        mdp = builder()
        mask = Mask((0,))
        policies = [random_policy(mdp, mask, s) for s in (1, 2)]
        runs = [rollouts(mdp, policy, 40, 15, seed=9) for policy in policies]
        assert not np.array_equal(runs[0].action, runs[1].action)
        assert not np.array_equal(runs[0].endo, runs[1].endo) or mdp.endo_cardinality == 1
        stage1 = exo_trajectory(mdp, 40, 15, seed=9).exo
        for run in runs:
            assert np.array_equal(run.exo, stage1)

    @pytest.mark.parametrize(
        "cls", [GenerativeMdp, TabularFullMdp, CrowdMdp, type(build_factory())]
    )
    def test_batch_exo_step_takes_no_action(self, cls):
        params = inspect.signature(cls.batch_exo_step).parameters
        assert list(params) == ["self", "exo", "u"]

    def test_initial_states_valid(self):
        for builder in (build_gridworld, build_factory, build_crowd):
            mdp = builder()
            u = np.random.default_rng(0).random((20, mdp.draws_per_step))
            endo, exo = mdp.batch_initial(u)
            assert endo.shape == (20,) and exo.shape == (20, mdp.m)
            assert np.all((0 <= endo) & (endo < mdp.endo_cardinality))
            assert np.all((0 <= exo) & (exo < np.array(mdp.exo_cardinalities)))


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

    @pytest.mark.parametrize("count", [1, 3])
    def test_reward_table_count_must_be_m(self, count):
        """A table short would leave a variable out of the reward silently,
        and one too many would fail later with a bare IndexError."""
        mdp = build_random_mdp(0)  # two variables
        tables = (mdp.reward_tables * 2)[:count]
        with pytest.raises(ValueError, match=f"{count} reward tables for 2 exogenous"):
            TabularFullMdp(
                endo_kernel=mdp.endo_kernel,
                exo_kernel=mdp.exo_kernel,
                reward_tables=tables,
                init_endo=mdp.init_endo,
                init_exo=mdp.init_exo,
                discount=mdp.discount,
                variable_specs=mdp.variable_specs,
            )

    def test_rejects_bad_discount(self):
        with pytest.raises(ValueError):
            constant_reward_mdp([1.0], discount=0.0)
        with pytest.raises(ValueError):
            constant_reward_mdp([1.0], discount=1.5)

    def test_reward_equals_component_sum(self, hand_toy):
        rng = np.random.default_rng(2)
        for _ in range(100):
            state = initial_state(hand_toy, rng.random((1, 2)))
            endo, exo = state
            for action in range(hand_toy.action_count):
                total = sum(
                    hand_toy.reward_tables[i][endo, v, action]
                    for i, v in enumerate(exo)
                )
                assert state_reward(hand_toy, state, action) == pytest.approx(
                    total, abs=1e-12
                )


def three_state_mdp(init_endo):
    """3 endo states, 1 action, one binary exo variable, zero reward."""
    return TabularFullMdp(
        endo_kernel=np.full((3, 1, 2, 3), 1.0 / 3.0),
        exo_kernel=np.full((2, 2), 0.5),
        reward_tables=[np.zeros((3, 2, 1))],
        init_endo=np.array(init_endo),
        init_exo=np.array([0.5, 0.5]),
        discount=0.9,
        variable_specs=(VariableSpec(0, 2),),
    )


@st.composite
def kernels(draw, max_n=8):
    """``(rows, n)`` rows with zero columns: dyadic (cuts of ``[0, 2**k]``,
    summing to 1 exactly) or small integers over their sum."""
    n_rows, n = draw(st.integers(1, 4)), draw(st.integers(1, max_n))
    if draw(st.booleans()):
        k = draw(st.integers(0, 6))
        size = n_rows * (n - 1)
        cuts = draw(st.lists(st.integers(0, 2**k), min_size=size, max_size=size))
        edges = np.sort(np.array(cuts, dtype=float).reshape(n_rows, n - 1), axis=1)
        full = np.full((n_rows, 1), 2.0**k)
        return np.diff(np.hstack([np.zeros((n_rows, 1)), edges, full]), axis=1) / 2.0**k
    weights = np.array(
        draw(st.lists(st.integers(0, 9), min_size=n_rows * n, max_size=n_rows * n)),
        dtype=float,
    ).reshape(n_rows, n)
    weights[weights.sum(axis=1) == 0, draw(st.integers(0, n - 1))] = 1.0
    return weights / weights.sum(axis=1, keepdims=True)


class TestInverseCdf:
    @settings(max_examples=200, deadline=None)
    @given(kernel=kernels(), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_count_of_cumulative_columns_below_u(self, kernel, seed):
        """At every cumulative value, at 0, just below 1 and at random ``u``
        the draw is ``(cum < u).sum()``, except where that is a column of
        probability zero (``u == 0`` before the first nonzero column) or
        ``N``; there it is a column of positive probability."""
        table, cum = core.InverseCdf(kernel), np.cumsum(kernel, axis=1)
        n = kernel.shape[1]
        rng = np.random.default_rng(seed)
        for row in range(len(kernel)):
            u = np.concatenate([cum.ravel(), [0.0, 1.0 - 2.0**-53], rng.random(8)])
            want = (cum[row] < u[:, None]).sum(axis=1)
            got = table.draw(np.full(len(u), row), u)
            fixed = (want == n) | ((u == 0.0) & (kernel[row, 0] == 0.0))
            assert got.dtype == np.int64
            assert np.array_equal(got[~fixed], want[~fixed])
            assert np.all((0 <= got) & (got < n)) and np.all(kernel[row, got] > 0)
            assert np.array_equal(table.draw(row, u), got)

    @settings(max_examples=200, deadline=None)
    @given(
        kernel=kernels(max_n=2 * core.InverseCdf.COUNT_WIDTH),
        below_one=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counting_draws_what_argmin_draws(self, kernel, below_one, seed):
        """Counting the sums below ``u`` and the ``argmin`` of ``cum < u``
        draw the same columns, with zero-probability columns, at ``u == 0``,
        on rows summing to just below 1, for one row (an int) and for one row
        per uniform, at widths on both sides of ``COUNT_WIDTH``."""
        if below_one:
            kernel = kernel * (1.0 - 2.0**-40)
        with mock.patch.object(core.InverseCdf, "COUNT_WIDTH", 0):
            searched = core.InverseCdf(kernel)
        with mock.patch.object(core.InverseCdf, "COUNT_WIDTH", kernel.shape[1]):
            counted = core.InverseCdf(kernel)
        assert searched.cum_t is None and counted.cum_t is not None
        shipped = core.InverseCdf(kernel)
        assert (shipped.cum_t is None) == (shipped.width > shipped.COUNT_WIDTH)
        cum = np.cumsum(kernel, axis=1).ravel()
        rng = np.random.default_rng(seed)
        u = np.concatenate([cum, np.nextafter(cum, 0), [0.0, 1.0 - 2.0**-53]])
        u = np.concatenate([u, rng.random(8)])
        rows = rng.integers(0, len(kernel), len(u))
        for row in [*range(len(kernel)), rows]:
            want = searched.draw(row, u)
            got = counted.draw(row, u)
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape == u.shape
            assert np.array_equal(got, want)
            assert np.array_equal(shipped.draw(row, u), want)

    def test_paths_agree_where_cumulative_sums_fall(self):
        # entries down to -1e-9 pass validation; here the sum at column 2
        # falls below the one at column 0, and both paths still draw the
        # first column whose sum reaches u
        kernel = np.array([[0.5, -1e-9, 1e-10, 0.5 + 9e-10]])
        u = np.array([0.5 - 5e-10, 0.25, 0.75])
        with mock.patch.object(core.InverseCdf, "COUNT_WIDTH", 0):
            assert core.InverseCdf(kernel).draw(0, u).tolist() == [0, 0, 3]
        assert core.InverseCdf(kernel).draw(0, u).tolist() == [0, 0, 3]

    def test_zero_uniform_skips_zero_probability_columns(self):
        # (cum < 0).sum() is 0, a column of probability zero
        table = core.InverseCdf(np.array([[0.0, 0.0, 0.25, 0.0, 0.75]]))
        assert table.draw(0, np.array([0.0, 0.25, 0.2500001])).tolist() == [2, 2, 4]
        endo, _ = three_state_mdp([0.0, 0.5, 0.5]).batch_initial(np.zeros((2, 2)))
        assert endo.tolist() == [1, 1]

    def test_row_sum_below_one_never_draws_n(self):
        # the cumulative row ends below 1 - 2**-53, so (cum < u).sum() is 3
        mdp = three_state_mdp([0.5, 0.5 - 1e-10, 0.0])
        u = np.array([[1.0 - 2.0**-53, 0.0], [0.9999999999, 0.0], [0.5, 0.0]])
        assert mdp.batch_initial(u)[0].tolist() == [1, 1, 0]

    def test_rows_off_by_more_than_the_tolerance_refused(self):
        # off by 1e-5: within numpy's default rtol, not within the tolerance 1e-9
        with pytest.raises(ValueError, match="init_endo rows do not sum to 1"):
            three_state_mdp([0.5, 0.49999, 0.0])
        three_state_mdp([0.5, 0.5 - 1e-10, 0.0])

    def test_gridworld_endo_rows_hold_the_cells_a_move_reaches(self, gridworld):
        # up to 4 of the 20 cells: the neighbours, or the cell itself at a wall
        table = gridworld._endo_draw
        assert table.width == 4 and table.cum.shape == (20 * 5 * 32, 4)
        assert gridworld._exo_draw.width == 32
        # the endo draw counts its 3 finite sums; the exo draw finds the first
        assert table.cum_t.shape == (3, 20 * 5 * 32)
        assert gridworld._exo_draw.cum_t is None


class TestStageOneStream:
    @pytest.mark.parametrize("builder", [build_gridworld, build_crowd, build_factory])
    @pytest.mark.parametrize("behave", [False, True])
    # seeds on both sides of the 32- and 64-bit word boundaries, and one of
    # five words: each reaches ``default_rng`` whole
    @pytest.mark.parametrize("seed", [0, 1, 13, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7])
    def test_one_generator_per_seed_read_in_rollout_order(
        self, builder, behave, seed, monkeypatch
    ):
        """Rollout r reads row r of ``default_rng(seed).random((R, width))``:
        the initial state's uniforms, then per step the behaviour policy's
        one (when it acts) and the transition's. The first R rollouts are
        those of R + 7, and a chunk of one uniform changes no byte."""
        mdp, n, horizon = builder(), 9, 5
        k, extra = mdp.draws_per_step, int(behave)
        u = np.random.default_rng(seed).random((n, k + horizon * (extra + k)))
        steps = u[:, k:].reshape(n, horizon, extra + k)
        exo_cols = [extra + c for c in mdp.exo_columns]
        kept = [c for c in range(extra + k) if c not in exo_cols]
        got = exo_trajectory(mdp, n, horizon, seed, behave)
        endo, x = mdp.batch_initial(u[:, :k])
        assert np.array_equal(got.endo, endo) and np.array_equal(got.exo[:, 0], x)
        for t in range(horizon):
            x = mdp.batch_exo_step(x, steps[:, t, exo_cols])
            assert np.array_equal(got.exo[:, t + 1], x)
        assert np.array_equal(got.draws, steps[:, :, kept])
        longer = exo_trajectory(mdp, n + 7, horizon, seed, behave)
        for field in ("endo", "exo", "draws"):
            assert np.array_equal(getattr(longer, field)[:n], getattr(got, field))
        monkeypatch.setattr(core, "CHUNK_DRAWS", 1)
        one = exo_trajectory(mdp, n, horizon, seed, behave)
        for field in ("endo", "exo", "index", "ranks", "values", "draws"):
            assert getattr(one, field).tobytes() == getattr(got, field).tobytes()

    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**200)),
        n_rollouts=st.integers(1, 12),
        horizon=st.integers(1, 4),
        budget=st.integers(1, 200),
        behave=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_byte_depends_on_the_chunk_budget(
        self, seed, n_rollouts, horizon, budget, behave
    ):
        """Any ``CHUNK_DRAWS`` (chunks of one rollout, several, or uneven
        splits of the rows) gives the bytes of one chunk of every rollout."""
        mdp = build_crowd()
        whole = exo_trajectory(mdp, n_rollouts, horizon, seed, behave)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "CHUNK_DRAWS", budget)
            chunked = exo_trajectory(mdp, n_rollouts, horizon, seed, behave)
        for field in ("endo", "exo", "index", "ranks", "values", "draws"):
            assert getattr(chunked, field).tobytes() == getattr(whole, field).tobytes()

    @pytest.mark.parametrize("seed", [-1, -(2**40), 1.0, 1.5, "3"])
    @pytest.mark.parametrize(
        "run",
        [
            lambda mdp, seed: exo_trajectory(mdp, 2, 3, seed),
            lambda mdp, seed: collect_exo_rollouts(mdp, 2, 3, seed),
        ],
        ids=["trajectory", "collect"],
    )
    def test_seed_must_be_a_non_negative_integer(self, seed, run, monkeypatch):
        def refuse(*args):
            raise AssertionError("rollout started")

        monkeypatch.setattr(CrowdMdp, "batch_initial", refuse)
        with pytest.raises(ValueError, match="seed must be"):
            run(build_crowd(), seed)

    def test_numpy_integer_and_none_seeds_accepted(self):
        mdp = build_crowd()
        seven = exo_trajectory(mdp, 2, 3, 7)
        for seed, want in ((np.uint64(7), seven), (None, exo_trajectory(mdp, 2, 3, 0))):
            assert np.array_equal(exo_trajectory(mdp, 2, 3, seed).exo, want.exo)
        got = collect_exo_rollouts(mdp, 2, 3, np.int32(7))
        want = collect_exo_rollouts(mdp, 2, 3, 7)
        for field in ("pairs", "pair_counts", "values"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_truncation_horizon():
    h = truncation_horizon(0.9, 1.0, 1e-3)
    assert 0.9**h * 1.0 / 0.1 < 1e-3
    assert 0.9 ** (h - 1) * 1.0 / 0.1 >= 1e-3
    with pytest.raises(ValueError):
        truncation_horizon(1.0, 1.0)


class TestRollouts:
    @staticmethod
    def misfit_policy():
        """A policy planned on one MDP and an MDP of the same state count
        whose cardinalities it does not fit."""
        planned_on = build_random_mdp(1, cards=(3, 2))
        plan = value_iteration(exact_reduced_model(planned_on, Mask((0, 1))), 1e-6)
        return build_random_mdp(2, cards=(2, 3)), plan.policy

    # "loop": the engine stepping one rollout per chunk (a budget of one uniform)
    @pytest.mark.parametrize("chunk", [core.CHUNK_DRAWS, 1], ids=["tabular", "loop"])
    @pytest.mark.parametrize(
        "run",
        [
            lambda mdp, policy: monte_carlo_value(mdp, policy, 20, 10, seed=0),
            lambda mdp, policy: count_positive_reward_steps(mdp, policy, 20, 10, seed=0),
            lambda mdp, policy: collect_full_rollouts(mdp, policy, 20, 10, seed=0),
        ],
        ids=["mc", "count", "full"],
    )
    def test_policy_for_another_mdp_refused(self, chunk, run, monkeypatch):
        monkeypatch.setattr(core, "CHUNK_DRAWS", chunk)
        mdp, policy = self.misfit_policy()
        with pytest.raises(ValueError, match=r"\(3, 2\).*\(2, 3\)"):
            run(mdp, policy)

    def test_policy_for_another_action_count_refused(self, gridworld):
        policy = random_policy(gridworld, Mask((0, 2)), 0)
        wide = Policy(policy.space, policy.actions, policy.action_count + 1)
        with pytest.raises(ValueError, match="does not fit"):
            rollouts(gridworld, wide, 2, 2, seed=0)

    def test_uniforms_refused_where_they_cannot_apply(self, gridworld):
        """A stage-1 trajectory (the uniforms it keeps) is refused by
        ``rollout_returns`` with a seed, when stepped with the behaviour
        policy's draws, for other rollout counts or horizons and for another
        MDP."""
        policies = [random_policy(gridworld, Mask((0, 2)), 0)]
        trajectory = exo_trajectory(gridworld, 4, 3, seed=0)
        returns = rollout_returns(gridworld, policies, 4, 3, trajectory=trajectory)
        assert returns.shape == (1, 4)
        with pytest.raises(ValueError, match="not both"):
            rollout_returns(gridworld, policies, 4, 3, seed=0, trajectory=trajectory)
        with pytest.raises(ValueError, match="do not fit"):
            behave = exo_trajectory(gridworld, 4, 3, 0, behave=True)
            rollout_returns(gridworld, policies, 4, 3, trajectory=behave)
        for n_rollouts, horizon in ((5, 3), (4, 2)):
            with pytest.raises(ValueError, match="do not fit"):
                rollout_returns(
                    gridworld, policies, n_rollouts, horizon, trajectory=trajectory
                )
        crowd = build_crowd()
        planned = [random_policy(crowd, Mask(()), 0)]
        with pytest.raises(ValueError, match="do not fit"):
            rollout_returns(crowd, planned, 4, 3, trajectory=trajectory)

    @pytest.mark.parametrize("builder", [build_gridworld, build_crowd, build_factory])
    @pytest.mark.parametrize("behave", [False, True])
    def test_trajectory_gives_the_rollouts_of_its_seed(self, builder, behave):
        """``rollouts`` walks the exo chain of ``exo_trajectory`` of its seed
        (with the behaviour policy's draws under that policy), and
        ``rollout_returns`` on that trajectory gives the returns of its seed."""
        mdp = builder()
        planned = random_policy(mdp, Mask((0,)), 3)
        policy = uniform_random_policy(mdp) if behave else planned
        trajectory = exo_trajectory(mdp, 17, 6, seed=41, behave=behave)
        assert not trajectory.exo.flags.writeable and not trajectory.draws.flags.writeable
        assert np.array_equal(rollouts(mdp, policy, 17, 6, seed=41).exo, trajectory.exo)
        if not behave:
            got = rollout_returns(mdp, [planned], 17, 6, trajectory=trajectory)
            want = rollout_returns(mdp, [planned], 17, 6, seed=41)
            assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize(
        "policy",
        [lambda s, rng: 0, np.zeros(9, dtype=int)],
        ids=["callable", "action-array"],
    )
    def test_other_policies_refused_before_any_rollout(self, policy, monkeypatch):
        def refuse(*args):
            raise AssertionError("rollout started")

        monkeypatch.setattr(CrowdMdp, "batch_initial", refuse)
        with pytest.raises(ValueError, match="a planner.Policy or the Uniform"):
            rollouts(build_crowd(), policy, 2, 2, seed=0)
        with pytest.raises(ValueError, match="a planner.Policy or the Uniform"):
            collect_full_rollouts(build_crowd(), policy, 2, 2, seed=0)

    def test_no_action_0_policy(self, monkeypatch):
        """``rollouts`` serves a planned and the behaviour policy only: None
        (the former action-0 mode) is refused before any rollout."""

        def refuse(*args):
            raise AssertionError("rollout started")

        monkeypatch.setattr(CrowdMdp, "batch_initial", refuse)
        with pytest.raises(ValueError, match="policy must be a planner.Policy.*NoneType"):
            rollouts(build_crowd(), None, 2, 2, seed=0)

    def test_engine_surface(self):
        """No caller-chosen fields, trajectories or lifted tables: the engine
        takes what it rolls out and nothing more."""
        assert list(inspect.signature(rollouts).parameters) == [
            "mdp", "policy", "n_rollouts", "horizon", "seed"
        ]
        assert list(inspect.signature(rollout_returns).parameters) == [
            "mdp", "policies", "n_rollouts", "horizon", "seed", "trajectory"
        ]
        assert "trajectory" not in inspect.signature(monte_carlo_value).parameters
        assert not hasattr(GenerativeMdp, "batch_reward")
        assert not hasattr(TabularFullMdp, "batch_reward")
        assert not hasattr(core, "ROLLOUT_FIELDS")


class TestRolloutReturns:
    R, H = 40, 23

    @staticmethod
    def stack(mdp):
        """Five planned policies over several masks (the variables of each
        the MDP has), one of them twice."""
        masks = [(), (0,), (0, 2), (1, 3), (0,)]
        masks = [Mask(tuple(i for i in m if i < mdp.m)) for m in masks]
        return [random_policy(mdp, m, seed=i % 4) for i, m in enumerate(masks)]

    # caps that group the stack's policies one, two or all five at a time,
    # and the shipped cap; by MDP these copy the trajectory one step at a
    # time, several steps with a shorter last block, or all steps at once
    @pytest.mark.parametrize("group", [1, 2, 5, None])
    @pytest.mark.parametrize(
        "builder",
        [build_gridworld, build_crowd, build_factory, lambda: build_random_mdp(0)],
        ids=["gridworld", "crowd", "factory", "random-0"],
    )
    def test_each_row_is_the_monte_carlo_value_of_its_policy(
        self, builder, group, monkeypatch
    ):
        mdp = builder()
        policies = self.stack(mdp)
        alone = [
            monte_carlo_value(mdp, p, self.R, self.H, seed=17)[1] for p in policies
        ]
        for policy, want in zip(policies, alone):  # the scalar reference's rewards
            rewards = reference_rollouts(mdp, policy, self.R, self.H, seed=17).reward
            returns, disc = np.zeros(self.R), 1.0
            for reward in rewards.T:
                returns += disc * reward
                disc *= mdp.discount
            assert returns.tobytes() == want.tobytes()
        trajectory = exo_trajectory(mdp, self.R, self.H, seed=17)
        cells = mdp.endo_cardinality * len(trajectory.values)  # N * D
        cap = core.CHUNK_ROWS if group is None else group * max(self.R, cells)
        monkeypatch.setattr(core, "CHUNK_ROWS", cap)
        rewarded, blocks = [], []
        reward, repeat = core._rewards, core._repeat_rows
        monkeypatch.setattr(
            core, "_rewards", lambda mdp, *a: rewarded.append(len(a[0])) or reward(mdp, *a)
        )

        def repeated(array, copies):  # a block's copies of the uniforms
            out = repeat(array, copies)
            if array.dtype == float:
                blocks.append(out.shape[:2])
            return out

        monkeypatch.setattr(core, "_repeat_rows", repeated)
        for returns in (
            rollout_returns(mdp, policies, self.R, self.H, seed=17),
            rollout_returns(mdp, policies, self.R, self.H, trajectory=trajectory),
        ):
            assert returns.shape == (len(policies), self.R)
            for row, want in zip(returns, alone):
                assert row.dtype == want.dtype and row.tobytes() == want.tobytes()
        # one reward call per group of policies, over its N * D cells each,
        # and the trajectory copied for its rows max(1, cap // rows) steps
        # at a time
        group = max(1, cap // max(self.R, cells))
        sizes = [min(group, len(policies) - lo) for lo in range(0, len(policies), group)]
        assert rewarded == [p * cells for p in sizes] * 2
        want = []
        for rows in (p * self.R for p in sizes):
            block = max(1, cap // rows)
            want += [(rows, min(block, self.H - t)) for t in range(0, self.H, block)]
        assert blocks == want * 2

    def test_checks_every_policy_and_the_trajectory(self, gridworld):
        policies = self.stack(gridworld)
        behaviour = uniform_random_policy(gridworld)
        with pytest.raises(ValueError, match="planner.Policy"):
            rollout_returns(gridworld, policies + [behaviour], 4, 3)
        with pytest.raises(ValueError, match="planner.Policy"):
            rollout_returns(gridworld, [None], 4, 3)
        space, actions = policies[1].space, policies[1].actions
        wide = Policy(space, actions, gridworld.action_count + 1)
        with pytest.raises(ValueError, match="does not fit"):
            rollout_returns(gridworld, [policies[0], wide], 4, 3)
        trajectory = exo_trajectory(gridworld, 4, 3, seed=0)
        with pytest.raises(ValueError, match="do not fit"):
            rollout_returns(gridworld, policies, 4, 2, trajectory=trajectory)
        with pytest.raises(ValueError, match="not both"):
            rollout_returns(gridworld, policies, 4, 3, 0, trajectory)
        with pytest.raises(ValueError, match="do not fit"):
            behave = exo_trajectory(gridworld, 4, 3, seed=0, behave=True)
            rollout_returns(gridworld, policies, 4, 3, trajectory=behave)
        assert rollout_returns(gridworld, [], 4, 3, seed=0).shape == (0, 4)


ROLLOUT_FIELDS = ("endo", "exo", "action", "reward")


def _policies(mdp, mask):
    """A planned policy over ``mask`` and the behaviour policy."""
    return {"planned": random_policy(mdp, mask, 0), "behaviour": uniform_random_policy(mdp)}


def assert_same_rollouts(mdp, policy, n_rollouts, horizon, seed):
    """The engine on ``mdp`` equals the one-rollout-at-a-time reference,
    field by field; under the behaviour policy it reads no reward."""
    got = rollouts(mdp, policy, n_rollouts, horizon, seed)
    want = reference_rollouts(mdp, policy, n_rollouts, horizon, seed)
    behave = isinstance(policy, core.UniformRandomPolicy)
    for field in ROLLOUT_FIELDS[:3] if behave else ROLLOUT_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert (got.reward is None) == behave
    return got


class TestBatchSamplers:
    """Crowd and factory step all rollouts as arrays, equal to the reference."""

    @pytest.mark.parametrize("policy", ["planned", "behaviour"])
    @pytest.mark.parametrize(
        "builder, mask",
        [
            (build_crowd, Mask((0, 4))),
            (build_factory, Mask((0, 1, 2))),
            (build_gridworld, Mask((0, 2))),
            (lambda: build_random_mdp(0), Mask((1,))),
        ],
        ids=["crowd", "factory", "gridworld", "random-0"],
    )
    # one row, under one chunk, and a count that splits unevenly: at a
    # budget of 2**13 uniforms a chunk of horizon 12 holds 63-105 rows
    @pytest.mark.parametrize("n_rollouts", [1, 37, 300])
    def test_batch_matches_loop(self, builder, mask, policy, n_rollouts, monkeypatch):
        monkeypatch.setattr(core, "CHUNK_DRAWS", 1 << 13)
        mdp = builder()
        run = assert_same_rollouts(mdp, _policies(mdp, mask)[policy], n_rollouts, 12, 5)
        assert run.action.min() >= 0 and run.action.max() < mdp.action_count
        if policy == "behaviour" and n_rollouts > 1:
            assert len(np.unique(run.action)) == mdp.action_count

    # budgets of 1, 7 and 10,000 rows' uniforms (23 rows step one at a
    # time, split 5/6/6/6, or in one chunk), and of 1 << 30 uniforms
    @pytest.mark.parametrize("rows", [1, 7, 10_000, None], ids=["1", "7", "10000", "2**30"])
    @pytest.mark.parametrize(
        "builder, mask",
        [
            (build_crowd, Mask((0, 4))),
            (build_factory, Mask((0,))),
            (build_gridworld, Mask((0, 2))),
        ],
        ids=["crowd", "factory", "gridworld"],
    )
    def test_chunk_size_changes_no_byte(self, builder, mask, rows, monkeypatch):
        mdp = builder()
        policies = _policies(mdp, mask)
        before = {k: rollouts(mdp, p, 23, 9, 3) for k, p in policies.items()}
        k = mdp.draws_per_step
        for name, p in policies.items():
            width = k + 9 * (k + (name == "behaviour"))  # uniforms per rollout
            budget = 1 << 30 if rows is None else rows * width
            monkeypatch.setattr(core, "CHUNK_DRAWS", budget)
            after = rollouts(mdp, p, 23, 9, 3)
            for field in ROLLOUT_FIELDS:
                assert np.array_equal(getattr(after, field), getattr(before[name], field))

    @given(
        n_agents=st.integers(0, 2),
        manipulable=st.lists(st.booleans(), min_size=1, max_size=3),
        goal=st.integers(0, 2),
        n_rollouts=st.integers(1, 6),
        horizon=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_crowd_variants_match_loop(
        self, n_agents, manipulable, goal, n_rollouts, horizon, seed
    ):
        spec = CrowdSpec(
            n_agents=n_agents,
            n_objects=len(manipulable),
            manipulable=tuple(manipulable),
            goal_object=goal % len(manipulable),
        )
        mdp = build_crowd(spec)
        mask = Mask((spec.goal_object, mdp.m - 1))
        for policy in _policies(mdp, mask).values():
            assert_same_rollouts(mdp, policy, n_rollouts, horizon, seed)

    def test_objects_are_picked_up_and_dropped(self):
        mdp = build_crowd()
        exo = exo_trajectory(mdp, 50, 40, 0).exo[:, :, 0]
        n_tables = len(mdp.spec.table_cells)
        carried = exo >= n_tables
        assert carried.any() and (~carried).any()
        # an object changes carrier state only between table and agent
        assert np.any(carried[:, 1:] & ~carried[:, :-1])
        assert np.any(~carried[:, 1:] & carried[:, :-1])

    # "loop": the engine stepping one rollout per chunk
    @pytest.mark.parametrize("chunk", [core.CHUNK_DRAWS, 1], ids=["batch", "loop"])
    def test_exo_collection_never_computes_rewards(self, chunk, monkeypatch):
        def refuse(*args):
            raise AssertionError("reward computed")

        monkeypatch.setattr(core, "CHUNK_DRAWS", chunk)
        monkeypatch.setattr(core, "_rewards", refuse)
        monkeypatch.setattr(CrowdMdp, "reward_component_table", refuse)
        data = collect_exo_rollouts(build_crowd(), 20, 8, seed=1)
        assert len(data) == 160
        mdp = build_crowd()
        with pytest.raises(AssertionError, match="reward computed"):
            rollouts(mdp, random_policy(mdp, Mask((0,)), 0), 2, 2, seed=1)

    @pytest.mark.parametrize("builder", [build_gridworld, build_crowd, build_factory])
    def test_exo_collection_never_steps_endo(self, builder, monkeypatch):
        mdp = builder()

        def refuse(*args):
            raise AssertionError("endo stepped")

        monkeypatch.setattr(type(mdp), "batch_endo_step", refuse)
        data = collect_exo_rollouts(mdp, 20, 8, seed=1)
        assert len(data) == 160
        with pytest.raises(AssertionError, match="endo stepped"):
            rollouts(mdp, uniform_random_policy(mdp), 2, 2, seed=1)

    @pytest.mark.parametrize("builder", [build_gridworld, build_crowd, build_factory])
    @pytest.mark.parametrize("chunk", [core.CHUNK_DRAWS, 1], ids=["batch", "loop"])
    def test_exo_collection_walks_the_trajectory_without_draws(
        self, builder, chunk, monkeypatch
    ):
        monkeypatch.setattr(core, "CHUNK_DRAWS", chunk)
        mdp = builder()
        data = collect_exo_rollouts(mdp, 20, 8, seed=1)
        trajectory = exo_trajectory(mdp, 20, 8, seed=1)
        # the same chain: the same distinct vectors, and its pairs
        assert data.values.dtype == trajectory.values.dtype
        assert data.values.tobytes() == trajectory.values.tobytes()
        assert_index_equals_oracle(data, Rows.of_chain(mdp, trajectory.exo))
        assert core._exo_chain(mdp, 20, 8, 1)[2].shape == (20, 8, 0)

    class Ticker(GenerativeMdp):
        """One variable of cardinality 3 that advances when u < 0.5; reward
        is its value. Declares its reward table, and no batch reward."""

        action_count = endo_cardinality = 1
        variable_specs = (VariableSpec(0, 3),)
        discount, r_max, draws_per_step, exo_columns = 0.9, 2.0, 1, (0,)

        def batch_initial(self, u):
            self.started = True
            return np.zeros(len(u), dtype=np.int64), (3 * u).astype(np.int64)

        def batch_exo_step(self, exo, u):
            return (exo + (u < 0.5)) % 3

        def batch_endo_step(self, endo, exo, action, u):
            return endo

        def reward_component_table(self, i):
            self.__dict__.setdefault("tables_read", []).append(i)
            return np.arange(3.0).reshape(1, 3, 1)

    def test_user_mdp_with_array_samplers_only(self):
        mdp = self.Ticker()
        assert_same_rollouts(mdp, uniform_random_policy(mdp), 9, 7, 2)
        run = assert_same_rollouts(mdp, random_policy(mdp, Mask((0,)), 1), 9, 7, 2)
        assert np.array_equal(run.reward, run.exo[:, :-1, 0])

    def test_reward_tables_read_once_per_instance(self):
        mdp = self.Ticker()
        rollouts(mdp, random_policy(mdp, Mask(()), 0), 4, 3, seed=0)
        monte_carlo_value(mdp, random_policy(mdp, Mask((0,)), 1), 4, 3, seed=1)
        estimate_reward_variables(mdp, 0.0)
        exo = collect_exo_rollouts(mdp, 4, 3)
        fit_reduced_mdp(mdp, Mask((0,)), exo, collect_full_rollouts(mdp, None, 4, 3))
        assert mdp.tables_read == [0]

    @pytest.mark.parametrize("read", ["rollouts", "returns", "screen", "fit"])
    def test_ill_shaped_reward_table_refused_before_any_reward(self, read):
        class Misshaped(self.Ticker):
            def reward_component_table(self, i):
                return np.zeros((1, 2, 1))  # variable 0 takes 3 values

        mdp, fits = Misshaped(), self.Ticker()  # same cardinalities
        reads = {
            "rollouts": lambda: rollouts(mdp, random_policy(fits, Mask(()), 0), 2, 2),
            "returns": lambda: monte_carlo_value(
                mdp, random_policy(fits, Mask(()), 0), 2, 2
            ),
            "screen": lambda: estimate_reward_variables(mdp, 0.0),
            "fit": lambda: fit_reduced_mdp(
                mdp, Mask(()), collect_exo_rollouts(fits, 2, 2),
                collect_full_rollouts(fits, None, 2, 2),
            ),
        }
        named = (
            r"Misshaped.reward_component_table\(0\) has shape \(1, 2, 1\), "
            r"not .*\(1, 3, 1\)"
        )
        with pytest.raises(ValueError, match=named):
            reads[read]()
        assert not hasattr(mdp, "started")

    @pytest.mark.parametrize("builder", ["ticker", "crowd", "factory"])
    def test_behaviour_policy_reads_no_reward_table(self, builder, monkeypatch):
        """Under the behaviour policy no reward table is read: rollouts and
        full collections run with the tables and the reward helper refusing."""

        def refuse(*args):
            raise AssertionError("reward table read")

        builders = {"ticker": self.Ticker, "crowd": build_crowd, "factory": build_factory}
        mdp = builders[builder]()
        monkeypatch.setattr(type(mdp), "reward_component_table", refuse)
        monkeypatch.setattr(core, "_rewards", refuse)
        run = rollouts(mdp, uniform_random_policy(mdp), 5, 4, seed=0)
        assert run.reward is None and run.action.shape == (5, 4)
        assert len(collect_full_rollouts(mdp, None, 5, 4, seed=0)) == 20

    class Unsized(GenerativeMdp):
        action_count = endo_cardinality = 1
        variable_specs = (VariableSpec(0, 2),)
        discount, r_max, exo_columns = 0.9, 0.0, (0,)

        def batch_initial(self, u):
            self.started = True
            return np.zeros(len(u), dtype=np.int64), np.zeros((len(u), 1), int)

        def batch_exo_step(self, exo, u):
            return exo

        def batch_endo_step(self, endo, exo, action, u):
            return endo

        def reward_component_table(self, i):
            return np.zeros((1, 2, 1))

    def test_batch_step_without_draws_per_step_refused(self):
        with pytest.raises(TypeError, match="draws_per_step"):
            self.Unsized()

        class ReadsNothing(self.Unsized):
            draws_per_step = 0

        mdp = ReadsNothing()
        with pytest.raises(ValueError, match="draws_per_step 0.*one step reads"):
            rollouts(mdp, uniform_random_policy(mdp), 2, 2, seed=0)

    @pytest.mark.parametrize(
        "columns, named",
        [((3,), r"\[3\] outside 0\.\.2, \[\]"), ((-1, 0), r"\[-1\] outside"),
         ((1, 1), r"\[\] outside 0\.\.2, \[1\] more than once"),
         ((0, 2, 0, 5), r"\[5\] outside 0\.\.2, \[0\] more than once")],
    )
    @pytest.mark.parametrize(
        "run",
        [
            lambda mdp: rollouts(mdp, random_policy(mdp, Mask(()), 0), 2, 2, seed=0),
            lambda mdp: rollouts(mdp, uniform_random_policy(mdp), 2, 2, seed=0),
            lambda mdp: collect_exo_rollouts(mdp, 2, 2, seed=0),
        ],
        ids=["planned", "behaviour", "exo"],
    )
    def test_exo_columns_checked_before_any_rollout(self, columns, named, run):
        class Misdeclared(self.Unsized):
            draws_per_step, exo_columns = 3, columns

        mdp = Misdeclared()
        with pytest.raises(ValueError, match="Misdeclared declares exo_columns .*" + named):
            run(mdp)
        assert not hasattr(mdp, "started")

    @pytest.mark.parametrize("missing", ("batch_exo_step", "batch_endo_step", "exo_columns"))
    def test_mdp_missing_a_half_names_it(self, missing):
        members = {
            name: value
            for name, value in vars(self.Unsized).items()
            if name != missing and not name.startswith("_")
        }
        Partial = type("Partial", (GenerativeMdp,), {**members, "draws_per_step": 1})
        with pytest.raises(TypeError, match=missing):
            Partial()

    def test_behaviour_policy_for_another_mdp_refused(self):
        with pytest.raises(ValueError, match="5 actions"):
            behaviour = uniform_random_policy(build_crowd())
            rollouts(build_factory(), behaviour, 2, 2, seed=0)

    def test_mdp_without_samplers_names_both(self):
        class NoSampler(GenerativeMdp):
            action_count = endo_cardinality = 1
            variable_specs = ()
            discount, r_max = 0.9, 0.0

        with pytest.raises(TypeError) as info:
            NoSampler()
        for name in (
            "batch_initial", "batch_exo_step", "batch_endo_step", "draws_per_step",
            "exo_columns", "reward_component_table",
        ):
            assert name in str(info.value)
