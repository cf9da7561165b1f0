from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exomdp.core import Mask, ReducedSpace
from exomdp.domains import (
    _move_cell,
    CrowdSpec,
    FactorySpec,
    GridworldSpec,
    build_chain_mdp,
    build_crowd,
    build_factory,
    build_gridworld,
    build_preset,
    list_presets,
    permute_exo_variables,
    random_block_mdp,
)
from exomdp.estimation import (
    collect_exo_rollouts,
    estimate_reward_variables,
    exact_reduced_model,
    transition_mutual_information,
)
from exomdp.planner import value_iteration
from exomdp.search import (
    FitBudget,
    SearchParams,
    check_reduction_conditions,
    collect_search_datasets,
    estimate_objective,
)

from conftest import (
    initial_state,
    next_state,
    random_tabular_cases,
    state_reward,
    step_halves,
)

QUICK = SearchParams(
    n_rollouts=150,
    fit=FitBudget(
        n_exo_rollouts=400, exo_horizon=40, n_full_rollouts=400, full_horizon=40
    ),
)


class TestGridworld:
    def test_default_preset_size(self, gridworld):
        full_states = gridworld.endo_cardinality * gridworld.n_exo_states
        assert 500 <= full_states <= 700
        assert gridworld.m == 5

    def test_empty_coupling_graph_gives_independent_chains(self):
        spec = GridworldSpec(xor_drivers=None)
        mdp = build_gridworld(spec)
        data = collect_exo_rollouts(mdp, 2000, 50, seed=0)
        for i in range(mdp.m):
            for j in range(mdp.m):
                if i != j:
                    assert transition_mutual_information(data, Mask((i,)), j) < 0.01

    def test_zero_rewards_give_zero_optimal_value(self):
        spec = GridworldSpec(goal_reward=0.0, crash_penalty=0.0, move_reward=0.0)
        mdp = build_gridworld(spec)
        plan = value_iteration(exact_reduced_model(mdp, Mask.full(5)), 1e-8)
        assert np.allclose(plan.values.values, 0.0)

    def test_sampled_frequencies_match_analytic_rows(self, gridworld):
        rng = np.random.default_rng(0)
        n_samples = 100_000
        joint = ReducedSpace(1, Mask.full(gridworld.m), gridworld.exo_cardinalities)
        for _ in range(20):
            endo = int(rng.integers(gridworld.endo_cardinality))
            x = int(rng.integers(gridworld.n_exo_states))
            action = int(rng.integers(gridworld.action_count))
            sample_rng = np.random.default_rng(rng.integers(2**32))
            n = n_samples // 20
            # n copies of the state, stepped in one call
            nxt_endo, nxt_exo = step_halves(
                gridworld,
                np.full(n, endo),
                np.tile(gridworld.exo_digits[x], (n, 1)),
                np.full(n, action),
                sample_rng.random((n, 2)),
            )
            endo_counts = np.bincount(nxt_endo, minlength=gridworld.endo_cardinality)
            exo_counts = np.bincount(
                joint.project_codes(nxt_exo), minlength=gridworld.n_exo_states
            )
            tv_endo = 0.5 * np.abs(
                endo_counts / n - gridworld.endo_kernel[endo, action, x]
            ).sum()
            tv_exo = 0.5 * np.abs(exo_counts / n - gridworld.exo_kernel[x]).sum()
            assert tv_endo < 0.02
            assert tv_exo < 0.05  # 32-column row at 5000 samples

    @pytest.mark.parametrize(
        "spec",
        [
            GridworldSpec(),
            GridworldSpec(xor_drivers=None),
            GridworldSpec(n_exo_vars=6, goal_flip_scale=0.37, trap_flip_prob=0.13),
            GridworldSpec(goal_var=3, trap_var=0, xor_drivers=(4, 1)),
        ],
        ids=["default", "independent", "six-vars", "roles-moved"],
    )
    def test_exo_kernel_is_the_kron_of_the_variables_rows(self, spec):
        """Row by row, the product of each variable's next-value row, by
        ``np.kron`` in variable order, to the byte."""

        def sticky(flip, value):
            row = np.full(2, flip)
            row[value] = 1.0 - flip
            return row

        def next_dist(i, digits):
            if i in (spec.xor_drivers or ()):
                return np.array([0.5, 0.5])
            if i == spec.goal_var:
                if spec.xor_drivers is None:
                    return sticky(spec.goal_flip_scale * 0.5, digits[i])
                a, b = spec.xor_drivers
                return sticky(spec.goal_flip_scale * (digits[a] ^ digits[b]), digits[i])
            if i == spec.trap_var:
                return sticky(spec.trap_flip_prob, digits[i])
            return sticky(spec.distractor_flip_prob, digits[i])

        m = spec.n_exo_vars
        space = ReducedSpace(1, Mask.full(m), [2] * m)
        want = np.array(
            [
                reduce(np.kron, [next_dist(i, space.decode_exo(x)) for i in range(m)])
                for x in range(space.n_exo)
            ]
        )
        assert build_gridworld(spec).exo_kernel.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cards", [(2, 3, 4), (3,)])
    def test_chain_kernel_is_the_kron_of_the_variables_rows(self, cards):
        flips = (0.3, 0.1, 0.7)[: len(cards)]
        space = ReducedSpace(1, Mask.full(len(cards)), cards)
        rows = []
        for card, flip in zip(cards, flips):
            sticky = np.full((card, card), flip / max(1, card - 1))
            np.fill_diagonal(sticky, 1.0 - flip)
            rows.append(sticky)
        want = np.array(
            [
                reduce(np.kron, [r[v] for r, v in zip(rows, space.decode_exo(x))])
                for x in range(space.n_exo)
            ]
        )
        assert build_chain_mdp(cards, flips).exo_kernel.tobytes() == want.tobytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            build_gridworld(GridworldSpec(n_exo_vars=2))
        with pytest.raises(ValueError):
            build_gridworld(GridworldSpec(trap_cell=99))
        with pytest.raises(ValueError):
            build_gridworld(GridworldSpec(width=20, height=20))


class TestFactory:
    def test_each_variable_flips_on_its_own_uniform(self):
        mdp = build_factory()  # flip rates 0.25 for tasks, 0.3 for distractors
        u = np.array([[0.1, 0.25, 0.9, 0.29, 0.3, 0.0]])

        nxt = next_state(mdp, (0, (0, 1, 0, 1, 0, 1)), 1, u)
        assert nxt == (0, (1, 1, 0, 0, 0, 0))
        assert state_reward(mdp, nxt, 1) == 2 * 1.0 - 2.5
        assert state_reward(mdp, nxt, 0) == 0.0

    def test_distractors_only_reward_constant(self):
        spec = FactorySpec(n_task_vars=0, n_distractors=3)
        mdp = build_factory(spec)
        rng = np.random.default_rng(0)
        state = initial_state(mdp, rng.random((1, mdp.draws_per_step)))
        assert state_reward(mdp, state, 0) == 0.0
        assert state_reward(mdp, state, 1) == 0.0
        mask = estimate_reward_variables(mdp, 0.0)
        assert mask.included == ()

    def test_phase_one_captures_all_task_variables(self):
        mdp = build_factory()
        mask = estimate_reward_variables(mdp, 0.0)
        assert set(mask.included) == {0, 1, 2}

    def test_greedy_misses_jointly_required_variables(self):
        from exomdp.search import mask_greedy

        mdp = build_factory()
        mask, trace = mask_greedy(mdp, lam=0.1, params=QUICK, seed=3)
        missing = {0, 1, 2} - set(mask.included)
        assert missing
        assert trace.terminal_reason == "objective-decreased"

    def test_single_task_variable_never_profitable(self):
        # reduced model with one task variable believes executing pays, but
        # the true return of that policy is negative
        mdp = build_factory()
        datasets = collect_search_datasets(mdp, QUICK, seed=1)
        single = estimate_objective(mdp, Mask((0,)), 0.0, QUICK, 1, datasets)
        empty = estimate_objective(mdp, Mask(()), 0.0, QUICK, 1, datasets)
        assert empty.mean_return == 0.0
        assert single.mean_return < 0.0


class TestCrowd:
    def test_no_agents_phase_one_suffices(self):
        spec = CrowdSpec(n_agents=0)
        mdp = build_crowd(spec)
        datasets = collect_search_datasets(mdp, QUICK, seed=0)
        p1 = estimate_reward_variables(mdp, 0.0)
        full = estimate_objective(mdp, Mask.full(mdp.m), 0.0, QUICK, 0, datasets)
        phase1 = estimate_objective(mdp, p1, 0.0, QUICK, 0, datasets)
        # objects never move without agents: no information is missing
        assert phase1.mean_return >= full.mean_return - 1.0

    def test_goal_object_variable_and_hazard_screened(self):
        mdp = build_crowd()
        mask = estimate_reward_variables(mdp, 0.0)
        assert mask.included == (0, 4)

    def test_agent_coupling_detected_only_for_manipulable_goal(self):
        manip = build_crowd()
        static = build_crowd(CrowdSpec(goal_object=1))
        for mdp, expect_coupled in ((manip, True), (static, False)):
            p1 = estimate_reward_variables(mdp, 0.0)
            data = collect_exo_rollouts(mdp, 1500, 60, seed=0)
            agent_mi = max(
                transition_mutual_information(data, p1, j)
                for j in mdp.agent_variable_ids()
            )
            assert (agent_mi > 0.05) == expect_coupled

    @given(
        n_agents=st.integers(0, 2),
        manipulable=st.lists(st.booleans(), min_size=1, max_size=3),
        action=st.integers(0, 4),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_step_follows_the_uniform_columns(self, n_agents, manipulable, action, data):
        spec = CrowdSpec(
            n_agents=n_agents, n_objects=len(manipulable), manipulable=tuple(manipulable)
        )
        mdp = build_crowd(spec)
        exo = tuple(
            data.draw(st.integers(0, c - 1)) for c in mdp.exo_cardinalities
        )
        state = (data.draw(st.integers(0, 8)), exo)
        # uniforms near the thresholds and the direction boundaries
        grid = st.sampled_from(
            [0.0, 0.049, 0.05, 0.14, 0.15, 0.24, 0.25, 0.39, 0.4, 0.5, 0.79, 0.8, 0.99]
        )
        u = [data.draw(grid) for _ in range(mdp.draws_per_step)]
        got = next_state(mdp, state, action, np.array([u]))
        assert got == crowd_step_reference(mdp, state, action, u)

    def test_lowest_numbered_agent_picks_up(self):
        mdp = build_crowd()  # objects (0, 1), agents (2, 3), hazard 4
        u = np.full((1, mdp.draws_per_step), 0.9)  # agents stay, no hazard flip
        u[0, 4] = 0.5  # object 0's pickup
        state = (4, (0, 2, 0, 0, 0))  # both agents on table 0's cell
        nxt = next_state(mdp, state, 4, u)
        assert nxt == (4, (3, 2, 0, 0, 0))

    def test_initial_values_cover_every_value(self):
        mdp = build_crowd()
        k = mdp.draws_per_step
        rngs = [np.random.default_rng(s) for s in range(400)]
        states = [initial_state(mdp, rng.random((1, k))) for rng in rngs]
        seen = [set(exo[i] for _, exo in states) for i in range(mdp.m)]
        n_tables = len(mdp.spec.table_cells)
        assert seen == [set(range(n_tables))] * 2 + [set(range(9))] * 2 + [{0, 1}]
        assert {endo for endo, _ in states} == {mdp.spec.start_cell}

    def test_validation(self):
        with pytest.raises(ValueError):
            build_crowd(CrowdSpec(manipulable=(True,)))
        with pytest.raises(ValueError):
            build_crowd(CrowdSpec(goal_object=5))


@pytest.mark.parametrize(
    "build, spec", [(build_crowd, CrowdSpec), (build_factory, FactorySpec)],
    ids=["crowd", "factory"],
)
def test_discount_outside_0_1_refused(build, spec):
    # each once built, as TabularFullMdp refuses it
    for discount in (0.0, -0.5, 1.5, 5, float("nan")):
        with pytest.raises(ValueError, match=r"discount must be in \(0, 1\]"):
            build(spec(discount=discount))
    assert build(spec(discount=1.0)).discount == 1.0


def crowd_step_reference(mdp, state, action, u):
    """The crowd's transition written out one variable at a time: agent k
    reads columns 2k (move) and 2k+1 (direction), object j column
    2*n_agents+j, hazard h the column after the objects, the robot the
    last two (slip, slip direction)."""
    robot, exo = state
    spec = mdp.spec
    n_ag, n_obj, n_tables = spec.n_agents, spec.n_objects, len(spec.table_cells)
    w, h = spec.width, spec.height
    agents = []
    for k in range(n_ag):
        pos = exo[n_obj + k]
        if u[2 * k] < spec.agent_move_prob:
            pos = _move_cell(pos, int(4 * u[2 * k + 1]), w, h)
        agents.append(pos)
    objects = []
    for j in range(n_obj):
        v, u_j = exo[j], u[2 * n_ag + j]
        if v < n_tables:
            cell = spec.table_cells[v]
            carriers = [k for k in range(n_ag) if agents[k] == cell]
            if spec.manipulable[j] and carriers and u_j < spec.pickup_prob:
                v = n_tables + carriers[0]
        else:
            pos = agents[v - n_tables]
            if pos in spec.table_cells and u_j < spec.drop_prob:
                v = spec.table_cells.index(pos)
        objects.append(v)
    hazards = [
        bit ^ int(u[2 * n_ag + n_obj + i] < spec.hazard_flip_prob)
        for i, bit in enumerate(exo[n_obj + n_ag :])
    ]
    if action < 4:
        direction = int(4 * u[-1]) if u[-2] < spec.slip_prob else action
        robot = _move_cell(robot, direction, w, h)
    return robot, tuple(objects + agents + hazards)


class TestBlockMdp:
    def test_conditions_hold_for_designated_mask(self):
        for seed in range(5):
            mdp, mask = random_block_mdp(seed)
            assert mdp.endo_cardinality * mdp.n_exo_states <= 200
            report = check_reduction_conditions(mdp, mask)
            assert report.all_hold(), (seed, report)

    def test_unshuffled_mask_is_prefix(self):
        mdp, mask = random_block_mdp(0, shuffle=False)
        assert mask.included == tuple(range(len(mask)))

    def test_permutation_preserves_dynamics(self):
        mdp, mask = random_block_mdp(9, shuffle=False)
        order = list(reversed(range(mdp.m)))
        permuted = permute_exo_variables(mdp, order)
        rng = np.random.default_rng(0)
        full = ReducedSpace(1, Mask.full(mdp.m), mdp.exo_cardinalities)
        full_new = ReducedSpace(1, Mask.full(mdp.m), permuted.exo_cardinalities)
        # transition probabilities between corresponding joint values agree
        for _ in range(50):
            x_old = tuple(
                int(rng.integers(s.cardinality)) for s in mdp.variable_specs
            )
            y_old = tuple(
                int(rng.integers(s.cardinality)) for s in mdp.variable_specs
            )
            x_new = tuple(x_old[o] for o in order)
            y_new = tuple(y_old[o] for o in order)
            assert permuted.exo_kernel[
                full_new.encode_exo(x_new), full_new.encode_exo(y_new)
            ] == pytest.approx(
                mdp.exo_kernel[full.encode_exo(x_old), full.encode_exo(y_old)],
                abs=1e-15,
            )
            n = int(rng.integers(mdp.endo_cardinality))
            a = int(rng.integers(mdp.action_count))
            assert np.allclose(
                permuted.endo_kernel[n, a, full_new.encode_exo(x_new)],
                mdp.endo_kernel[n, a, full.encode_exo(x_old)],
            )
        # optimal values at the initial distribution are unchanged
        init_old = np.kron(mdp.init_endo, mdp.init_exo)
        init_new = np.kron(permuted.init_endo, permuted.init_exo)
        plan_old = value_iteration(
            exact_reduced_model(mdp, Mask.full(mdp.m)), 1e-9
        )
        plan_new = value_iteration(
            exact_reduced_model(permuted, Mask.full(mdp.m)), 1e-9
        )
        assert float(init_old @ plan_old.values.values) == pytest.approx(
            float(init_new @ plan_new.values.values), abs=1e-6
        )

    def test_permutation_validation(self):
        mdp, _ = random_block_mdp(0)
        with pytest.raises(ValueError):
            permute_exo_variables(mdp, [0] * mdp.m)


class TestPresets:
    def test_listing(self):
        assert list_presets() == ["crowd-desk", "factory-desk", "gridworld-small"]

    def test_build_with_overrides(self):
        mdp = build_preset("factory-desk", {"n_task_vars": 2, "n_distractors": 1})
        assert mdp.m == 3

    def test_tuple_coercion_from_yaml_lists(self):
        mdp = build_preset("crowd-desk", {"manipulable": [True, True]})
        assert mdp.spec.manipulable == (True, True)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            build_preset("lunar-base")

    def test_builders_pure_given_spec_and_seed(self):
        a = build_preset("gridworld-small", {}, seed=0)
        b = build_preset("gridworld-small", {}, seed=0)
        assert np.array_equal(a.exo_kernel, b.exo_kernel)
        assert np.array_equal(a.full_reward, b.full_reward)


# The one-call ``batch_step`` each built-in MDP had before its step was split
# into an exo and an endo half, kept verbatim (as functions of the MDP) so
# the split is checked to move no byte.


def legacy_tabular_step(mdp, endo, exo, action, u):
    weights = np.array(ReducedSpace(1, Mask.full(mdp.m), mdp.exo_cardinalities).weights)
    x = exo @ weights.astype(np.int64)
    endo_cum = np.cumsum(mdp.endo_kernel, axis=-1)[endo, action, x]
    exo_cum = np.cumsum(mdp.exo_kernel, axis=-1)[x]
    draw = lambda cum, col: (cum < u[:, col, None]).sum(axis=-1)  # noqa: E731
    return draw(endo_cum, 0), mdp.exo_digits[draw(exo_cum, 1)]


def legacy_factory_step(mdp, endo, exo, action, u):
    spec = mdp.spec
    flip = np.array(
        [spec.task_flip_prob] * spec.n_task_vars
        + [spec.distractor_flip_prob] * spec.n_distractors
    )
    return endo, exo ^ (u < flip)


def legacy_crowd_step(mdp, endo, exo, action, u):
    spec = mdp.spec
    n_ag, n_tables = spec.n_agents, len(spec.table_cells)
    ag, hz = spec.n_objects, spec.n_objects + spec.n_agents
    out = np.empty_like(exo)
    for k in range(n_ag):
        pos = exo[:, ag + k]
        moved = mdp._moves[pos, (4 * u[:, 2 * k + 1]).astype(np.int64)]
        out[:, ag + k] = np.where(u[:, 2 * k] < spec.agent_move_prob, moved, pos)
    agents = out[:, ag:hz]
    for j in range(spec.n_objects):
        v, u_j = exo[:, j], u[:, 2 * n_ag + j]
        on_table = v < n_tables
        new = v.copy()
        if spec.manipulable[j] and n_ag:
            cell = mdp._table_cells[np.minimum(v, n_tables - 1)]
            carrier = np.full(len(v), -1)
            for k in reversed(range(n_ag)):
                carrier[agents[:, k] == cell] = k
            pick = on_table & (carrier >= 0) & (u_j < spec.pickup_prob)
            new[pick] = n_tables + carrier[pick]
        if n_ag:
            carrier = np.maximum(v - n_tables, 0)
            pos = agents[np.arange(len(v)), carrier]
            table = mdp._table_of_cell[pos]
            drop = ~on_table & (table >= 0) & (u_j < spec.drop_prob)
            new[drop] = table[drop]
        out[:, j] = new
    flips = u[:, 2 * n_ag + spec.n_objects : mdp.draws_per_step - 2]
    out[:, hz:] = exo[:, hz:] ^ (flips < spec.hazard_flip_prob)
    slip = (action < 4) & (u[:, -2] < spec.slip_prob)
    direction = np.where(slip, (4 * u[:, -1]).astype(np.int64), action)
    return mdp._moves[endo, direction], out


def assert_halves_equal_legacy(mdp, legacy, n, seed):
    """On ``n`` random states, actions and uniforms, the two halves compose
    to the legacy step, byte for byte and dtype for dtype."""
    rng = np.random.default_rng(seed)
    endo = rng.integers(mdp.endo_cardinality, size=n)
    exo = np.array([rng.integers(c, size=n) for c in mdp.exo_cardinalities])
    exo = exo.T.reshape(n, mdp.m).astype(np.int64)
    action = rng.integers(mdp.action_count, size=n)
    u = rng.random((n, mdp.draws_per_step))
    got = step_halves(mdp, endo, exo, action, u)
    for half, want in zip(got, legacy(mdp, endo, exo, action, u)):
        assert half.dtype == want.dtype and np.array_equal(half, want)


class TestSplitSamplers:
    @pytest.mark.parametrize("seed", range(5))
    def test_gridworld_halves_are_the_old_step(self, gridworld, seed):
        assert_halves_equal_legacy(gridworld, legacy_tabular_step, 500, seed)

    @given(
        case=random_tabular_cases(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_random_tabular_halves_are_the_old_step(self, case, n, seed):
        assert_halves_equal_legacy(case[0], legacy_tabular_step, n, seed)

    @given(
        n_agents=st.integers(0, 3),
        manipulable=st.lists(st.booleans(), min_size=1, max_size=3),
        n_hazards=st.integers(0, 2),
        n=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_crowd_halves_are_the_old_step(self, n_agents, manipulable, n_hazards, n, seed):
        spec = CrowdSpec(
            n_agents=n_agents,
            n_objects=len(manipulable),
            manipulable=tuple(manipulable),
            hazard_cells=(4, 8)[:n_hazards],
        )
        assert_halves_equal_legacy(build_crowd(spec), legacy_crowd_step, n, seed)

    @pytest.mark.parametrize(
        "spec", [FactorySpec(), FactorySpec(n_task_vars=1, n_distractors=0)]
    )
    def test_factory_halves_are_the_old_step(self, spec):
        assert_halves_equal_legacy(build_factory(spec), legacy_factory_step, 300, 0)
