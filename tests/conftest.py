"""Shared toy models and independent oracles for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from exomdp.core import (
    GenerativeMdp,
    Mask,
    ReducedSpace,
    TabularFullMdp,
    VariableSpec,
    reduced_space_for,
)
from exomdp.estimation import TabularReducedMdp


def make_reduced(endo_table, exo_table, reward_table, discount, r_max=None):
    """Assemble a TabularReducedMdp directly from hand-written tables."""
    endo_table = np.asarray(endo_table, dtype=float)
    exo_table = np.asarray(exo_table, dtype=float)
    reward_table = np.asarray(reward_table, dtype=float)
    n, a, x, _ = endo_table.shape
    # cardinalities don't matter beyond the product; use one variable of size x
    mask = Mask((0,)) if x > 1 else Mask(())
    space = ReducedSpace(n, mask, [x])
    return TabularReducedMdp(
        mask=mask,
        space=space,
        endo_table=endo_table,
        exo_table=exo_table,
        reward_table=reward_table,
        discount=discount,
        r_max=r_max if r_max is not None else float(np.abs(reward_table).max()),
    )


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


class BlackBox(GenerativeMdp):
    """A tabular MDP seen only through the generative interface.

    Rollouts on it take the per-rollout loop, which makes it the reference
    the batched tabular engine must match bit for bit.
    """

    def __init__(self, inner: TabularFullMdp):
        self.inner = inner
        self.name = inner.name

    action_count = property(lambda self: self.inner.action_count)
    endo_cardinality = property(lambda self: self.inner.endo_cardinality)
    variable_specs = property(lambda self: self.inner.variable_specs)
    discount = property(lambda self: self.inner.discount)
    r_max = property(lambda self: self.inner.r_max)

    def sample_initial(self, rng):
        return self.inner.sample_initial(rng)

    def sample_transition(self, state, action, rng):
        return self.inner.sample_transition(state, action, rng)

    def reward(self, state, action):
        return self.inner.reward(state, action)

    def reward_component(self, i, endo, exo_value, action):
        return self.inner.reward_component(i, endo, exo_value, action)


def random_policy(mdp, mask, seed):
    """Policy with uniformly drawn actions over a mask's reduced space."""
    from exomdp.planner import Policy

    space = reduced_space_for(mdp, mask)
    actions = np.random.default_rng(seed).integers(mdp.action_count, size=space.n_states)
    return Policy(space=space, actions=actions, action_count=mdp.action_count)


@st.composite
def random_tabular_cases(draw):
    """``(mdp, mask)``: a random analytic MDP with 0-3 variables and a mask."""
    from exomdp.domains import build_random_mdp

    cards = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    mdp = build_random_mdp(
        draw(st.integers(0, 10_000)),
        endo_cardinality=draw(st.integers(1, 4)),
        cards=cards,
        n_actions=draw(st.integers(1, 3)),
    )
    mask = Mask.of(j for j in range(len(cards)) if draw(st.booleans()))
    return mdp, mask
