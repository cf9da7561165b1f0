"""Tabular solvers and evaluators for reduced models.

Value iteration uses synchronous (Jacobi) Bellman backups over the reduced
state space, exploiting the factorized transition ``P(endo'|endo,a,masked)
* P(masked'|masked)``. Exact policy evaluation iterates the policy's
Bellman operator to a tight fixed point, on either a reduced model or an
analytic full MDP. Monte Carlo evaluation executes a reduced policy in the
full environment.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ExomdpError,
    FactoredState,
    GenerativeMdp,
    Mask,
    PlannerTimeoutError,
    ReducedSpace,
    ReducedState,
    TabularFullMdp,
)
from .estimation import TabularReducedMdp

VALUE_SCOPE_REDUCED = "reduced"
VALUE_SCOPE_FULL_EXACT = "full-exact"
VALUE_SCOPE_FULL_EMPIRICAL = "full-empirical"


@dataclass(frozen=True, eq=False)
class Policy:
    """Deterministic policy over reduced states.

    ``actions[i]`` is the action for the reduced state with flat index
    ``i`` in the space's enumeration order; every enumerated reduced state
    has an action.
    """

    space: ReducedSpace
    actions: np.ndarray
    action_count: int

    def __post_init__(self):
        acts = np.asarray(self.actions, dtype=np.int64)
        object.__setattr__(self, "actions", acts)
        if len(acts) != self.space.n_states:
            raise ValueError("policy table does not cover the reduced space")
        if acts.size and (acts.min() < 0 or acts.max() >= self.action_count):
            raise ValueError("policy contains out-of-range actions")

    @property
    def mask(self) -> Mask:
        return self.space.mask

    def action_for_state(self, state: FactoredState) -> int:
        """Act on a full state by reducing it through the policy's mask."""
        return int(self.actions[self.space.encode_state(state.endo, state.exo)])


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Values over an enumerated state space.

    ``scope`` is one of ``reduced`` (values in a reduced model),
    ``full-exact`` (exact values over an analytic full MDP, indexed by the
    full mask), or ``full-empirical`` (rollout estimates).
    """

    scope: str
    space: ReducedSpace
    values: np.ndarray

    def value_of_reduced(self, rstate: ReducedState) -> float:
        return float(self.values[self.space.encode_reduced(rstate)])

    def max_abs(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0


@dataclass(frozen=True, eq=False)
class PlanResult:
    """Value-iteration output; unpacks as ``(policy, values)``.

    ``residuals`` holds the max-norm Bellman residual after each sweep.
    """

    policy: Policy
    values: ValueTable
    residuals: tuple[float, ...]
    converged: bool

    def __iter__(self):
        return iter((self.policy, self.values))


def _q_values(model: TabularReducedMdp, v: np.ndarray) -> np.ndarray:
    """One-step lookahead values, shape (N, A, X)."""
    # next_v[n', x] = sum_x' P(x'|x) V[n', x']
    next_v = v @ model.exo_table.T
    return model.reward_table + model.discount * np.einsum(
        "naxm,mx->nax", model.endo_table, next_v
    )


def value_iteration(
    model: TabularReducedMdp,
    epsilon: float = 1e-4,
    timeout: float = 60.0,
) -> PlanResult:
    """Synchronous value iteration to a max-norm residual below ``epsilon``.

    Stops early at ``timeout`` seconds and returns the best values so far;
    raises ``PlannerTimeoutError`` only if not even one sweep finished (the
    error carries the myopic policy). Greedy ties break toward the lowest
    action index.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    model.assert_valid()
    n, x = model.endo_cardinality, model.n_exo_states
    start = time.perf_counter()
    v = np.zeros((n, x))
    residuals: list[float] = []
    converged = False
    while True:
        if time.perf_counter() - start > timeout and not residuals:
            q0 = _q_values(model, v)
            myopic = Policy(
                space=model.space,
                actions=q0.argmax(axis=1).reshape(-1),
                action_count=model.action_count,
            )
            raise PlannerTimeoutError(
                f"timed out after {timeout}s before the first sweep", policy=myopic
            )
        q = _q_values(model, v)
        v_new = q.max(axis=1)
        residuals.append(float(np.abs(v_new - v).max()))
        v = v_new
        if residuals[-1] < epsilon:
            converged = True
            break
        if time.perf_counter() - start > timeout:
            break
    q = _q_values(model, v)
    greedy = q.argmax(axis=1)  # (N, X); ties resolve to the lowest index
    policy = Policy(
        space=model.space,
        actions=greedy.reshape(-1),
        action_count=model.action_count,
    )
    values = ValueTable(
        scope=VALUE_SCOPE_REDUCED, space=model.space, values=v.reshape(-1)
    )
    return PlanResult(
        policy=policy,
        values=values,
        residuals=tuple(residuals),
        converged=converged,
    )


def _full_mdp_action_grid(mdp: TabularFullMdp, policy: Policy) -> np.ndarray:
    """Per-(endo, exo_flat) actions from lifting a reduced policy."""
    n = mdp.endo_cardinality
    proj = policy.space.project_codes(mdp.exo_digits)
    table = policy.actions.reshape(n, policy.space.n_exo)
    return table[:, proj]  # (N, XF)


def exact_policy_evaluation(
    mdp,
    policy: Policy,
    tol: float = 1e-10,
    max_sweeps: int = 200_000,
) -> ValueTable:
    """Evaluate a policy exactly by iterating its Bellman operator.

    ``mdp`` may be an analytic ``TabularFullMdp`` (the policy is lifted to
    full states through its mask) or a ``TabularReducedMdp`` (the policy's
    mask must match the model's). Iterates until the sup-norm change drops
    below ``tol``.
    """
    if isinstance(mdp, TabularFullMdp):
        action_grid = _full_mdp_action_grid(mdp, policy)
        n, xf = action_grid.shape
        endo = mdp.endo_kernel
        exo = mdp.exo_kernel
        rows = np.arange(n)[:, None]
        cols = np.arange(xf)[None, :]
        r_pi = mdp.full_reward[rows, action_grid, cols]
        endo_pi = endo[rows, action_grid, cols]  # (N, XF, N)
        gamma = mdp.discount
        space = ReducedSpace(
            n, Mask.full(mdp.m), [s.cardinality for s in mdp.variable_specs]
        )
        scope = VALUE_SCOPE_FULL_EXACT
    elif isinstance(mdp, TabularReducedMdp):
        if policy.space.mask.included != mdp.mask.included:
            raise ValueError("policy mask does not match the reduced model")
        n, xf = mdp.endo_cardinality, mdp.n_exo_states
        action_grid = policy.actions.reshape(n, xf)
        rows = np.arange(n)[:, None]
        cols = np.arange(xf)[None, :]
        r_pi = mdp.reward_table[rows, action_grid, cols]
        endo_pi = mdp.endo_table[rows, action_grid, cols]
        exo = mdp.exo_table
        gamma = mdp.discount
        space = mdp.space
        scope = VALUE_SCOPE_REDUCED
    else:
        raise ExomdpError("exact evaluation needs tabular transition access")

    v = np.zeros((n, xf))
    for _ in range(max_sweeps):
        next_v = v @ exo.T  # (N, XF): E over exo'
        v_new = r_pi + gamma * np.einsum("nxm,mx->nx", endo_pi, next_v)
        delta = float(np.abs(v_new - v).max())
        v = v_new
        if delta < tol:
            break
    else:
        raise ExomdpError(
            f"policy evaluation did not reach tol={tol} in {max_sweeps} sweeps"
        )
    return ValueTable(scope=scope, space=space, values=v.reshape(-1))


def monte_carlo_value(
    mdp: GenerativeMdp,
    policy: Policy,
    n_rollouts: int,
    horizon: int,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Mean truncated discounted return of a reduced policy in the full MDP.

    Each rollout starts from the initial-state distribution and uses its
    own generator stream, so results are reproducible bit for bit given
    ``(seed, n_rollouts, horizon)`` and independent of evaluation order.
    Returns ``(mean, per_rollout)``.
    """
    if n_rollouts < 1 or horizon < 1:
        raise ValueError("n_rollouts and horizon must be >= 1")
    gamma = mdp.discount
    if isinstance(mdp, TabularFullMdp):
        grid = _full_mdp_action_grid(mdp, policy)
        rewards = mdp.batch_rollouts(n_rollouts, horizon, seed, grid)[1]
        returns = np.zeros(n_rollouts)
        disc = 1.0
        for t in range(horizon):  # the per-rollout loop's summation order
            returns += disc * rewards[:, t]
            disc *= gamma
        return float(returns.mean()), returns
    sample_transition = mdp.sample_transition
    reward = mdp.reward
    actions = policy.actions
    encode = policy.space.encode_state
    returns = np.empty(n_rollouts)
    for r in range(n_rollouts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        state = mdp.sample_initial(rng)
        total = 0.0
        disc = 1.0
        for _ in range(horizon):
            a = int(actions[encode(state.endo, state.exo)])
            total += disc * reward(state, a)
            disc *= gamma
            state = sample_transition(state, a, rng)
        returns[r] = total
    return float(returns.mean()), returns


def count_positive_reward_steps(
    mdp: GenerativeMdp,
    policy: Policy,
    n_rollouts: int,
    horizon: int,
    seed: int = 0,
) -> int:
    """Number of steps with strictly positive reward across rollouts.

    Used as a task-success count in domains where success is the only
    source of positive reward.
    """
    if isinstance(mdp, TabularFullMdp):
        grid = _full_mdp_action_grid(mdp, policy)
        return int((mdp.batch_rollouts(n_rollouts, horizon, seed, grid)[1] > 0.0).sum())
    actions = policy.actions
    encode = policy.space.encode_state
    hits = 0
    for r in range(n_rollouts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        state = mdp.sample_initial(rng)
        for _ in range(horizon):
            a = int(actions[encode(state.endo, state.exo)])
            if mdp.reward(state, a) > 0.0:
                hits += 1
            state = mdp.sample_transition(state, a, rng)
    return hits


def hoeffding_confidence(
    n: int, deviation: float, gamma: float, r_max: float
) -> float:
    """Confidence that a Monte Carlo value estimate from ``n`` rollouts is
    within ``deviation`` of the true value.

    ``r_max`` is the width of the one-step reward interval (rewards in
    ``[0, r_max]``; shift rewards into such an interval first if they can
    be negative). Returns ``max(0, 1 - 2 exp(-2 n deviation^2 (1-gamma)^2
    / r_max^2))``; the bound degenerates at ``gamma = 1``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if deviation <= 0:
        raise ValueError("deviation must be positive")
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"the bound needs gamma in (0, 1), got {gamma}")
    exponent = -2.0 * n * deviation**2 * (1.0 - gamma) ** 2 / r_max**2
    return max(0.0, 1.0 - 2.0 * math.exp(exponent))


def hoeffding_deviation(n: int, confidence: float, gamma: float, r_max: float) -> float:
    """Deviation at which ``hoeffding_confidence`` equals ``confidence``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"the bound needs gamma in (0, 1), got {gamma}")
    return (
        r_max
        / (1.0 - gamma)
        * math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))
    )


def lift_reduced_values(
    values: ValueTable, mdp: TabularFullMdp
) -> np.ndarray:
    """Reduced-model values arranged over the full state enumeration."""
    n = mdp.endo_cardinality
    proj = values.space.project_codes(mdp.exo_digits)
    table = values.values.reshape(n, values.space.n_exo)
    return table[:, proj].reshape(-1)
