"""Shared toy models and independent oracles for the test suite."""

import dataclasses

import numpy as np
import pytest
from hypothesis import strategies as st

from exomdp.core import (
    Mask,
    ReducedSpace,
    Rollouts,
    TabularFullMdp,
    UniformRandomPolicy,
    VariableSpec,
    exo_ranks,
    exo_trajectory,
    reduced_space_for,
    rollouts,
    uniform_random_policy,
)
from exomdp.estimation import (
    ExoRolloutDataset,
    FullRolloutDataset,
    SparseTable,
    TabularReducedMdp,
)


def make_reduced(endo_table, exo_table, reward_table, discount, r_max=None):
    """Assemble a TabularReducedMdp directly from hand-written tables."""
    endo_table = np.asarray(endo_table, dtype=float)
    reward_table = np.asarray(reward_table, dtype=float)
    n, a, x, _ = endo_table.shape
    # cardinalities don't matter beyond the product; use one variable of size x
    mask = Mask((0,)) if x > 1 else Mask(())
    space = ReducedSpace(n, mask, [x])
    return TabularReducedMdp(
        mask=mask,
        space=space,
        endo_table=SparseTable.from_dense(endo_table.reshape(n * a * x, n)),
        exo_table=SparseTable.from_dense(exo_table),
        reward_table=reward_table,
        discount=discount,
        r_max=r_max if r_max is not None else float(np.abs(reward_table).max()),
    )


def count_over_total(pairs, n_rows, n_cols, smoothing=0.0):
    """Independent oracle for a fitted table, written out one row at a time.

    ``pairs`` are observed ``(row, col)`` conditions and outcomes. Row ``r``
    is ``(count(r, c) + s) / (count(r) + s C)`` over ``C = n_cols`` columns
    under smoothing ``s``: at ``s = 0`` count over total, and uniform where
    the row was never seen.
    """
    counts = np.zeros((n_rows, n_cols))
    for r, c in pairs:
        counts[r, c] += 1
    table = np.full((n_rows, n_cols), 1.0 / n_cols)
    for r in range(n_rows):
        total = counts[r].sum() + smoothing * n_cols
        if total > 0:
            table[r] = (counts[r] + smoothing) / total
    return table


@dataclasses.dataclass(frozen=True)
class Rows:
    """Raw transitions, one a row, as the oracles read them: ``exo`` and
    ``next_exo`` ``(T, m)``, and for full transitions ``endo``, ``action``
    and ``next_endo`` ``(T,)``. Datasets hold only their counts."""

    cardinalities: tuple
    exo: np.ndarray
    next_exo: np.ndarray
    endo: np.ndarray | None = None
    action: np.ndarray | None = None
    next_endo: np.ndarray | None = None
    endo_cardinality: int | None = None
    action_count: int | None = None

    @classmethod
    def of_chain(cls, mdp, exo, endo=None, action=None):
        """The rows of ``R`` rollouts' chains on ``mdp``: ``exo`` ``(R, H + 1,
        m)``, and ``endo`` ``(R, H + 1)`` and ``action`` ``(R, H)`` for full
        transitions."""
        r, h, m = exo.shape[0], exo.shape[1] - 1, exo.shape[2]
        rows = cls(
            mdp.exo_cardinalities, exo[:, :-1].reshape(r * h, m),
            exo[:, 1:].reshape(r * h, m),
        )
        if endo is None:
            return rows
        return dataclasses.replace(
            rows,
            endo=endo[:, :-1].reshape(r * h),
            action=action.reshape(r * h),
            next_endo=endo[:, 1:].reshape(r * h),
            endo_cardinality=mdp.endo_cardinality,
            action_count=mdp.action_count,
        )


def exo_rows(mdp, n_rollouts, horizon, seed):
    """The rows of ``collect_exo_rollouts``' seed, from the engine's exo
    chain of the same seed."""
    return Rows.of_chain(mdp, exo_trajectory(mdp, n_rollouts, horizon, seed).exo)


def full_rows(mdp, policy, n_rollouts, horizon, seed):
    """The rows of ``collect_full_rollouts``' seed (``policy`` None: the
    behaviour policy), from ``core.rollouts`` of the same seed."""
    policy = uniform_random_policy(mdp) if policy is None else policy
    run = rollouts(mdp, policy, n_rollouts, horizon, seed)
    return Rows.of_chain(mdp, run.exo, run.endo, run.action)


def dataset_of_rows(rows):
    """The dataset of raw ``rows``, each a rollout of horizon 1: an
    ``ExoRolloutDataset``, or a ``FullRolloutDataset`` where ``rows`` are
    full transitions."""
    exo = np.stack([rows.exo, rows.next_exo], axis=1)
    if rows.endo is None:
        return ExoRolloutDataset.from_chain(exo, rows.cardinalities)
    (ranks,), values = exo_ranks([exo], rows.cardinalities)
    return FullRolloutDataset.from_steps(
        np.stack([rows.endo, rows.next_endo], axis=1),
        np.asarray(rows.action)[:, None],
        ranks, values, rows.cardinalities, rows.endo_cardinality, rows.action_count,
    )


def index_oracle(rows):
    """Independent oracle for a dataset's joint exo index: the distinct
    vectors of ``exo`` and ``next_exo`` by ``np.unique(axis=0)``, and the
    distinct ``(rank, next rank)`` pairs or, for full rows, ``(endo * A +
    action, rank, next endo)`` steps by ``np.unique(axis=0)`` with counts,
    as columns; indices and counts in the narrowest unsigned dtype."""

    def narrow(a):
        return a.astype(np.min_scalar_type(int(a.max(initial=0))))

    both = np.concatenate([rows.exo, rows.next_exo])
    values, inverse = np.unique(both, axis=0, return_inverse=True)
    rank, next_rank = np.split(inverse.reshape(-1), 2)
    if rows.endo is not None:
        condition = rows.endo.astype(np.int64) * rows.action_count + rows.action
        steps = np.stack([condition, rank, rows.next_endo], axis=1)
        steps, step_counts = np.unique(steps, axis=0, return_counts=True)
        return dict(values=values, steps=narrow(steps.T), step_counts=narrow(step_counts))
    pairs, pair_counts = np.unique(
        np.stack([rank, next_rank], axis=1), axis=0, return_counts=True
    )
    return dict(values=values, pairs=narrow(pairs.T), pair_counts=narrow(pair_counts))


def assert_index_equals_oracle(dataset, rows):
    """Every index array of ``dataset`` equals ``index_oracle(rows)``'s,
    shape, dtype and bytes; so does its length."""
    for name, want in index_oracle(rows).items():
        got = getattr(dataset, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == np.ascontiguousarray(want).tobytes(), name
    assert len(dataset) == len(rows.exo)


def per_row_fit_oracle(mdp, mask, exo_rows, full_rows, smoothing=0.0):
    """Independent oracle for ``fit_reduced_mdp``'s ``(endo_table,
    exo_table)``: every row of both sets of ``Rows`` projected onto the
    mask on its own and its key counted by ``np.unique``, then normalized as
    ``count / (total + s C)`` with ``s / (total + s C)`` spread over the
    ``C`` columns of a seen row and ``1 / C`` over an unseen one."""
    space = reduced_space_for(mdp, mask)
    n, a, x = mdp.endo_cardinality, mdp.action_count, space.n_exo

    def table(keys, n_rows, n_cols):
        keys, counts = np.unique(keys, return_counts=True)
        rows, cols = np.divmod(keys, n_cols)
        totals = np.bincount(rows, weights=counts, minlength=n_rows)
        denominators = totals + smoothing * n_cols
        seen = totals > 0
        spread = np.full(n_rows, 1.0 / n_cols)
        spread[seen] = smoothing / denominators[seen]
        return SparseTable(n_rows, n_cols, rows, cols, counts / denominators[rows], spread)

    project = space.project_codes
    exo_keys = project(exo_rows.exo) * x + project(exo_rows.next_exo)
    conditions = (full_rows.endo.astype(np.int64) * a + full_rows.action) * x
    endo_keys = (conditions + project(full_rows.exo)) * n + full_rows.next_endo
    return table(endo_keys, n * a * x, n), table(exo_keys, x, x)


def chain_reduced(rewards, gamma, transitions=None):
    """Endo-only reduced model: ``rewards[n]`` per state, one action."""
    n = len(rewards)
    if transitions is None:
        transitions = np.eye(n)
    endo = np.asarray(transitions, dtype=float).reshape(n, 1, 1, n)
    exo = np.ones((1, 1))
    reward = np.asarray(rewards, dtype=float).reshape(n, 1, 1)
    return make_reduced(endo, exo, reward, gamma)


def policy_eval_oracle(p_pi, r_pi, gamma):
    """Independent linear-system solve of V = R + gamma P V."""
    n = len(r_pi)
    return np.linalg.solve(np.eye(n) - gamma * np.asarray(p_pi), np.asarray(r_pi))


def constant_reward_mdp(components, discount=0.9, n_endo=2, n_actions=2):
    """Full MDP whose per-variable components are constants."""
    m = len(components)
    specs = tuple(VariableSpec(i, 2, f"c{i}") for i in range(m))
    x = 2**m
    endo_kernel = np.full((n_endo, n_actions, x, n_endo), 1.0 / n_endo)
    exo_kernel = np.full((x, x), 1.0 / x)
    tables = [np.full((n_endo, 2, n_actions), float(c)) for c in components]
    return TabularFullMdp(
        endo_kernel=endo_kernel,
        exo_kernel=exo_kernel,
        reward_tables=tables,
        init_endo=np.full(n_endo, 1.0 / n_endo),
        init_exo=np.full(x, 1.0 / x),
        discount=discount,
        variable_specs=specs,
        name="constant",
    )


@pytest.fixture(scope="session")
def gridworld():
    from exomdp.domains import build_gridworld

    return build_gridworld()


@pytest.fixture(scope="session")
def hand_toy():
    """2 endo x 2 exo-variable toy with hand-written tables."""
    specs = (VariableSpec(0, 2, "a"), VariableSpec(1, 2, "b"))
    # endo kernel depends on action and on the first exo variable
    endo = np.zeros((2, 2, 4, 2))
    for x in range(4):
        first = x >> 1
        endo[:, 0, x, :] = [[0.9, 0.1], [0.2, 0.8]] if first else [[0.6, 0.4], [0.4, 0.6]]
        endo[:, 1, x, :] = [[0.1, 0.9], [0.7, 0.3]]
    exo = np.array(
        [
            [0.5, 0.2, 0.2, 0.1],
            [0.1, 0.6, 0.1, 0.2],
            [0.25, 0.25, 0.25, 0.25],
            [0.05, 0.05, 0.45, 0.45],
        ]
    )
    tables = [
        np.array([[[1.0, 0.0], [0.5, 2.0]], [[0.0, 1.0], [1.5, -1.0]]]),
        np.array([[[0.2, 0.2], [-0.3, 0.1]], [[0.0, 0.4], [0.8, 0.0]]]),
    ]
    return TabularFullMdp(
        endo_kernel=endo,
        exo_kernel=exo,
        reward_tables=tables,
        init_endo=np.array([0.7, 0.3]),
        init_exo=np.array([0.4, 0.3, 0.2, 0.1]),
        discount=0.9,
        variable_specs=specs,
        name="hand-toy",
    )


def _one_row(mdp, state):
    """``(endo, exo)`` arrays of one ``(endo, exo)`` state, as the samplers
    take them."""
    endo, exo = state
    return np.array([endo]), np.array([exo], dtype=np.int64).reshape(1, mdp.m)


def initial_state(mdp, u):
    """The initial ``(endo, exo)`` state one row of uniforms ``u`` (shape
    ``(1, K)``) draws."""
    endo, exo = mdp.batch_initial(u)
    return int(endo[0]), tuple(exo[0].tolist())


def step_halves(mdp, endo, exo, action, u):
    """One full step ``(endo', exo')`` from rows of all K uniforms ``u``: the
    endo half reads the endo columns and the exo state before the step (in
    ``exo_index`` form), the exo half the declared exo columns."""
    exo_cols = list(mdp.exo_columns)
    endo_cols = [c for c in range(mdp.draws_per_step) if c not in exo_cols]
    nxt = mdp.batch_endo_step(endo, mdp.exo_index(exo), action, u[:, endo_cols])
    return nxt, mdp.batch_exo_step(exo, u[:, exo_cols])


def next_state(mdp, state, action, u):
    """The next ``(endo, exo)`` state of ``state`` under ``action`` from one
    row of uniforms."""
    endo, exo = step_halves(mdp, *_one_row(mdp, state), np.array([action]), u)
    return int(endo[0]), tuple(exo[0].tolist())


def state_reward(mdp, state, action):
    """The full reward of one state and action: from 0.0, every variable's
    ``reward_component_table`` entry added in variable order, one at a time."""
    endo, exo = state
    total = 0.0
    for i, value in enumerate(exo):
        total += float(mdp.reward_component_table(i)[endo, value, action])
    return total


def reference_rollouts(mdp, policy, n_rollouts, horizon, seed=0):
    """Independent oracle for ``core.rollouts``: every field, every rollout
    stepped alone.

    The rollouts draw their uniforms, in rollout order, by successive
    ``rng.random`` calls on one ``default_rng(seed)`` generator: rollout
    r's initial state's, then per step the behaviour policy's one (under
    that policy) and the transition's. Steps are one-row
    ``batch_initial`` and ``step_halves`` calls and rewards
    ``state_reward``'s, also under the behaviour policy; a planned policy
    acts on the flat index ``endo * n_exo + encode_exo(masked values)``.
    """
    k = mdp.draws_per_step
    endos, exos, actions, rewards = [], [], [], []
    rng = np.random.default_rng(seed)
    for _ in range(n_rollouts):
        endo, exo = mdp.batch_initial(rng.random((1, k)))
        endos.append(int(endo[0]))
        exos.append(exo[0].tolist())
        for _ in range(horizon):
            if isinstance(policy, UniformRandomPolicy):
                a = int(policy.action_count * rng.random())
            else:
                space = policy.space
                code = space.encode_exo([exos[-1][i] for i in space.mask])
                a = int(policy.actions[endos[-1] * space.n_exo + code])
            action = np.array([a])
            actions.append(a)
            rewards.append(state_reward(mdp, (endos[-1], exos[-1]), a))
            endo, exo = step_halves(mdp, endo, exo, action, rng.random((1, k)))
            endos.append(int(endo[0]))
            exos.append(exo[0].tolist())
    return Rollouts(
        endo=np.array(endos, dtype=np.int32).reshape(n_rollouts, horizon + 1),
        exo=np.array(exos, dtype=np.int16).reshape(n_rollouts, horizon + 1, mdp.m),
        action=np.array(actions, dtype=np.int32).reshape(n_rollouts, horizon),
        reward=np.array(rewards, dtype=float).reshape(n_rollouts, horizon),
    )


def random_policy(mdp, mask, seed):
    """Policy with uniformly drawn actions over a mask's reduced space."""
    from exomdp.planner import Policy

    space = reduced_space_for(mdp, mask)
    actions = np.random.default_rng(seed).integers(mdp.action_count, size=space.n_states)
    return Policy(space=space, actions=actions, action_count=mdp.action_count)


@st.composite
def random_tabular_cases(draw, discounts=st.just(0.9)):
    """``(mdp, mask)``: a random analytic MDP with 0-3 variables and a mask,
    its discount drawn from ``discounts``."""
    from exomdp.domains import build_random_mdp

    cards = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    mdp = build_random_mdp(
        draw(st.integers(0, 10_000)),
        endo_cardinality=draw(st.integers(1, 4)),
        cards=cards,
        n_actions=draw(st.integers(1, 3)),
        discount=draw(discounts),
    )
    mask = Mask.of(j for j in range(len(cards)) if draw(st.booleans()))
    return mdp, mask


def mutual_information_oracle(rows, mask, j):
    """Plug-in transition mutual information of ``Rows`` counted by sorting:
    each side's atoms and the joint atoms from ``np.unique``, summed in
    sorted order."""
    space = ReducedSpace(1, mask, rows.cardinalities)
    a_codes = space.project_codes(rows.exo) * space.n_exo + space.project_codes(
        rows.next_exo
    )
    cj = rows.cardinalities[j]
    b_codes = rows.exo[:, j].astype(np.int64) * cj + rows.next_exo[:, j]
    total = len(a_codes)
    _, a_inv = np.unique(a_codes, return_inverse=True)
    _, b_inv = np.unique(b_codes, return_inverse=True)
    n_b = int(b_inv.max()) + 1
    atoms, counts = np.unique(a_inv.astype(np.int64) * n_b + b_inv, return_counts=True)
    a_part = atoms // n_b
    b_part = atoms % n_b
    a_counts = np.bincount(a_inv)
    b_counts = np.bincount(b_inv)
    p = counts / total
    mi = float(
        np.sum(p * np.log(counts.astype(float) * total
                          / (a_counts[a_part] * b_counts[b_part])))
    )
    return max(0.0, mi)


# the domains of the scalar reward oracle, by name; "crowd-off-grid" puts a
# table and a hazard past the 3 x 3 grid's last cell and a table before its first
REWARD_CASES = (
    "gridworld", "crowd-goal-0", "crowd-goal-1", "crowd-off-grid", "factory", "random"
)


def reward_case(name):
    """``(mdp, rule)`` of one of ``REWARD_CASES``: the domain, and an
    independent scalar oracle of its reward, ``rule(i, endo, value,
    action)``, variable ``i``'s component written out from the domain's
    spec one state at a time (for ``build_random_mdp(0)``, the entry of the
    table it was built with)."""
    from exomdp.domains import (
        ACTION_EXECUTE, CrowdSpec, FactorySpec, GridworldSpec, build_crowd,
        build_factory, build_gridworld, build_random_mdp,
    )

    if name == "gridworld":
        spec = GridworldSpec()

        def rule(i, endo, value, action):
            if i == spec.goal_var:
                paid = spec.goal_reward if endo == spec.goal_cells[value] else 0.0
                return spec.move_reward + paid
            if i == spec.trap_var and value == 1 and endo == spec.trap_cell:
                return -spec.crash_penalty
            return 0.0

        return build_gridworld(spec), rule
    if name.startswith("crowd"):
        spec = {
            "crowd-goal-0": CrowdSpec(),
            "crowd-goal-1": CrowdSpec(goal_object=1),
            "crowd-off-grid": CrowdSpec(table_cells=(0, 9, -1), hazard_cells=(4, 9, -1)),
        }[name]
        hazards = spec.n_objects + spec.n_agents

        def rule(i, endo, value, action):
            if i == spec.goal_object:
                on_table = value < len(spec.table_cells)
                if on_table and endo == spec.table_cells[value]:
                    return spec.goal_reward
            elif i >= hazards and value == 1 and endo == spec.hazard_cells[i - hazards]:
                return -spec.crash_penalty
            return 0.0

        return build_crowd(spec), rule
    if name == "factory":
        spec = FactorySpec()

        def rule(i, endo, value, action):
            if action != ACTION_EXECUTE or i >= spec.n_task_vars:
                return 0.0
            return spec.match_reward if value == 1 else -spec.mismatch_penalty

        return build_factory(spec), rule
    mdp = build_random_mdp(0)
    return mdp, lambda i, endo, value, action: float(
        mdp.reward_tables[i][endo, value, action]
    )


def reward_screen_oracle(mdp, rule):
    """Each variable's reward variance over its values (ddof 0), averaged
    over every ``(endo, action)``: one scalar ``rule`` call (``reward_case``)
    per ``(endo, value, action)``, each row shifted by its first reward and
    its mean and variance added in value order, then numpy's mean of the
    ``(endo, action)`` grid of variances."""
    means = []
    for i, spec in enumerate(mdp.variable_specs):
        variances = np.empty((mdp.endo_cardinality, mdp.action_count))
        for endo, action in np.ndindex(variances.shape):
            rewards = [rule(i, endo, v, action) for v in range(spec.cardinality)]
            shifted = [r - rewards[0] for r in rewards]
            mean = sum(shifted) / len(shifted)
            squares = [(r - mean) * (r - mean) for r in shifted]
            variances[endo, action] = sum(squares) / len(squares)
        means.append(float(variances.mean()))
    return means
