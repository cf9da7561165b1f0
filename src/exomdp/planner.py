"""Tabular solvers and evaluators for reduced models.

Value iteration uses synchronous (Jacobi) Bellman backups over the reduced
state space, exploiting the factorized transition ``P(endo'|endo,a,masked)
* P(masked'|masked)``, with safeguarded Anderson acceleration, and stops
on the span of the Bellman update (Puterman 1994, §6.6). Exact policy
evaluation iterates the policy's Bellman operator to a tight fixed point,
on either a reduced model or an analytic full MDP. Monte Carlo evaluation
executes a reduced policy in the full environment.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ExomdpError,
    GenerativeMdp,
    Mask,
    PlannerTimeoutError,
    ReducedSpace,
    TabularFullMdp,
    _check_action_count,
    rollout_returns,
    rollouts,
)
from .estimation import TabularReducedMdp

TIE_RTOL = 1e-9  # greedy actions this close to the best Q, relatively, tie
ANDERSON_MEMORY = 3  # Bellman updates each Anderson step combines
ANDERSON_RESTARTS = 5  # failed extrapolations after which only plain sweeps run
ANDERSON_MIN_STATES = 1000  # below, an extrapolation costs more than a sweep


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


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Values over an enumerated state space, flat in its index order."""

    space: ReducedSpace
    values: np.ndarray

    def lift(self, space: ReducedSpace) -> np.ndarray:
        """``(N, X)`` values over ``space``, a space over a super-mask: each
        state takes the value of its projection onto this table's mask."""
        own, mask = self.space.mask.included, space.mask.included
        if not set(own) <= set(mask):
            raise ValueError(f"values over mask {own} do not lift to mask {mask}")
        digits = space.digit_matrix()[[mask.index(i) for i in own]]
        codes = np.array(self.space.weights, dtype=np.int64) @ digits
        return self.values.reshape(-1, self.space.n_exo)[:, codes]


@dataclass(frozen=True, eq=False)
class PlanResult:
    """Value-iteration output.

    ``residuals`` holds each sweep's max-norm Bellman residual at its iterate,
    ``values`` the midpoint and ``converged`` whether the span test passed.
    """

    policy: Policy
    values: ValueTable
    residuals: tuple[float, ...]
    converged: bool


def _q_values(model: TabularReducedMdp, v: np.ndarray) -> np.ndarray:
    """One-step lookahead values, shape (N, A, X), built in place."""
    q = model.endo_expectation(model.exo_expectation(v))
    return np.add(np.multiply(q, model.discount, out=q), model.reward_table, out=q)


def _greedy_policy(model: TabularReducedMdp, v: np.ndarray) -> Policy:
    """Greedy policy of ``v``: the lowest action within ``TIE_RTOL * (|best Q|
    + r_max)`` of the best Q, so float noise breaks no tie, even near Q = 0."""
    q = _q_values(model, v)
    best = q.max(axis=1, keepdims=True)
    near = q >= best - TIE_RTOL * (np.abs(best) + model.r_max)
    return Policy(model.space, near.argmax(axis=1).reshape(-1), model.action_count)


def _anderson_weights(ds: list[np.ndarray]) -> list[float]:
    """Type-II Anderson weights (Geist & Scherrer 2018): ``y / sum y`` where
    ``G y = 1``, ``G`` the Gram matrix of the ``d_i``; the newest update's alone
    where they are dependent. No BLAS or np.linalg: a first call costs 0.3 MB RSS."""
    plain = [0.0] * (len(ds) - 1) + [1.0]
    rows = [[float(np.einsum("ij,ij->", a, b)) for b in ds] + [1.0] for a in ds]
    for k in range(len(rows)):
        p = rows[k]
        if not p[k] > 0:  # G is positive semidefinite: 0 means dependent
            return plain
        rows = [r if r is p else [a - r[k] / p[k] * b for a, b in zip(r, p)]
                for r in rows]
    y = [r[-1] / r[i] for i, r in enumerate(rows)]
    return [yi / sum(y) for yi in y] if math.isfinite(sum(y)) and sum(y) else plain


def value_iteration(
    model: TabularReducedMdp,
    epsilon: float = 1e-4,
    timeout: float = 60.0,
    initial: np.ndarray | None = None,
) -> PlanResult:
    """Synchronous value iteration until the span of ``d = T v - v`` is
    below ``2 * epsilon``. The next iterate is ``T v`` or, once the last
    ``ANDERSON_MEMORY`` sweeps each cut the least span so far by the discount
    ``g`` as a plain sweep does, their Anderson combination. Any other sweep,
    and every sweep of a model under ``ANDERSON_MIN_STATES`` states, clears
    that history; after ``ANDERSON_RESTARTS`` failed extrapolations only plain
    sweeps run, so the loop ends as plain value iteration does from any start
    (a safeguard after Zhang, O'Donoghue & Boyd 2020).

    Returns MacQueen's midpoint ``T v + g (max d + min d) / (2 (1 - g))``
    (``T v`` at discount ``g = 1``), within ``g eps / (1 - g)`` of the fixed
    point, and the greedy policy of ``T v``, ``2 g eps / (1 - g)``-optimal:
    the max-norm test's bounds, which hold for any ``v`` (Puterman 1994,
    §6.6). Starts from ``initial``, finite ``(N, X)`` values (zeros when
    None). Stops early at ``timeout`` seconds and returns the best values so
    far; raises ``PlannerTimeoutError`` only if not even one sweep finished
    (the error carries the start's greedy policy).
    """
    if not epsilon > 0:  # NaN too: no span is ever below it
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    model.assert_valid()
    n, x = model.endo_cardinality, model.n_exo_states
    start = time.perf_counter()
    v = np.zeros((n, x)) if initial is None else np.array(initial, dtype=float)
    if v.shape != (n, x) or not np.all(np.isfinite(v)):
        raise ValueError(
            f"initial values must be finite, of shape {(n, x)}; got {v.shape}"
        )
    scale = model.discount / (1.0 - model.discount) if model.discount < 1 else 0.0
    residuals: list[float] = []
    converged, history, best_span, failures = False, [], math.inf, 0
    while True:
        if time.perf_counter() - start > timeout and not residuals:
            raise PlannerTimeoutError(
                f"timed out after {timeout}s before the first sweep",
                policy=_greedy_policy(model, v),
            )
        t = _q_values(model, v).max(axis=1)
        d = t - v
        hi, lo = float(d.max()), float(d.min())
        residuals.append(max(hi, -lo))
        v = t
        if hi - lo < 2 * epsilon:
            converged = True
            break
        if time.perf_counter() - start > timeout:
            break
        if hi - lo > model.discount * best_span or n * x < ANDERSON_MIN_STATES:
            failures, history = failures + bool(history), []  # plain sweeps follow
        else:
            best_span = hi - lo
            d -= d.mean()  # the span reads no constant, so neither do the weights
            history = [*history[1 - ANDERSON_MEMORY:], (d, t)]  # newest last
        if len(history) == ANDERSON_MEMORY and failures <= ANDERSON_RESTARTS:
            weights = _anderson_weights([d for d, _ in history])
            v = history.pop(0)[1]  # the oldest pair leaves; its T v holds the step
            v *= weights[0]
            for (_, t_i), w in zip(history, weights[1:]):
                v += w * t_i
            # T v's constant: extrapolated, it would carry the weights' noise
            v += t.mean() - v.mean()
    return PlanResult(
        policy=_greedy_policy(model, v),
        values=ValueTable(model.space, (v + scale * (hi + lo) / 2).reshape(-1)),
        residuals=tuple(residuals),
        converged=converged,
    )


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
        _check_action_count(mdp, policy)
        action_grid = mdp.lift(policy.space, policy.actions)
        n, xf = action_grid.shape
        exo_t = mdp.exo_kernel.T
        rows = np.arange(n)[:, None]
        cols = np.arange(xf)[None, :]
        r_pi = mdp.full_reward[rows, action_grid, cols]
        endo_pi = mdp.endo_kernel[rows, action_grid, cols]  # (N, XF, N)

        def expected_next(v):  # E[v(n', x') | n, x] under the policy's action
            return np.einsum("nxm,mx->nx", endo_pi, v @ exo_t)

        space = ReducedSpace(n, Mask.full(mdp.m), mdp.exo_cardinalities)
    elif isinstance(mdp, TabularReducedMdp):
        _check_action_count(mdp, policy)
        if policy.space.mask.included != mdp.mask.included:
            raise ValueError("policy mask does not match the reduced model")
        n, xf = mdp.endo_cardinality, mdp.n_exo_states
        action_grid = policy.actions.reshape(n, xf)
        rows = np.arange(n)[:, None]
        cols = np.arange(xf)[None, :]
        r_pi = mdp.reward_table[rows, action_grid, cols]

        def expected_next(v):  # the product for every action, read at the policy's
            q = mdp.endo_expectation(mdp.exo_expectation(v))
            return q[rows, action_grid, cols]

        space = mdp.space
    else:
        raise ExomdpError("exact evaluation needs tabular transition access")

    v = np.zeros((n, xf))
    for _ in range(max_sweeps):
        v_new = r_pi + mdp.discount * expected_next(v)
        delta = float(np.abs(v_new - v).max())
        v = v_new
        if delta < tol:
            break
    else:
        raise ExomdpError(
            f"policy evaluation did not reach tol={tol} in {max_sweeps} sweeps"
        )
    return ValueTable(space=space, values=v.reshape(-1))


def monte_carlo_value(
    mdp: GenerativeMdp,
    policy: Policy,
    n_rollouts: int,
    horizon: int,
    seed: int | None = None,
) -> tuple[float, np.ndarray]:
    """Mean truncated discounted return of a reduced policy in the full MDP.

    The one-policy case of ``core.rollout_returns``, so results are
    reproducible bit for bit given ``(seed, n_rollouts, horizon)`` (``seed``
    0 when None) and independent of evaluation order. Returns ``(mean,
    per_rollout)``.
    """
    [returns] = rollout_returns(mdp, [policy], n_rollouts, horizon, seed)
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
    run = rollouts(mdp, policy, n_rollouts, horizon, seed)
    return int((run.reward > 0.0).sum())


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
    if not deviation > 0:  # NaN too
        raise ValueError(f"deviation must be positive, got {deviation!r}")
    _check_bound_inputs(n, gamma, r_max)
    exponent = -2.0 * n * deviation**2 * (1.0 - gamma) ** 2 / r_max**2
    return max(0.0, 1.0 - 2.0 * math.exp(exponent))


def hoeffding_deviation(n: int, confidence: float, gamma: float, r_max: float) -> float:
    """Deviation at which ``hoeffding_confidence`` equals ``confidence``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    _check_bound_inputs(n, gamma, r_max)
    return (
        r_max
        / (1.0 - gamma)
        * math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))
    )


def _check_bound_inputs(n: int, gamma: float, r_max: float) -> None:
    """Refuse inputs for which the Hoeffding bound does not hold; each check
    states what must hold, so that NaN fails it."""
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if not 0.0 < r_max < math.inf:
        raise ValueError(f"r_max must be finite and positive, got {r_max!r}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"the bound needs gamma in (0, 1), got {gamma}")
