"""Core contracts for factored MDPs with exogenous state variables.

A state is a pair ``(endo, exo)``: one opaque endogenous index whose
transitions react to the agent's actions, plus a vector of discrete
exogenous variable values whose transitions never do. A mask selects the
exogenous variables a planner keeps; the reduced state space is the
endogenous index crossed with the masked variables only.

All value types here are immutable after construction and safe to share
across threads. Samplers take an explicit ``numpy.random.Generator`` so
callers control determinism; use one generator per thread or rollout.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

DEFAULT_STATE_BUDGET = 1_000_000


class ExomdpError(Exception):
    """Base class for library errors."""


class InvalidMaskError(ExomdpError):
    """Mask indices are malformed or out of range for the owning MDP."""


class StateSpaceTooLargeError(ExomdpError):
    """A tabular enumeration would exceed the configured state budget."""


class InsufficientDataError(ExomdpError):
    """A dataset is empty or too small for the requested estimate."""


class UnsupportedMdpError(ExomdpError):
    """The operation needs analytic tables this MDP does not expose."""


class PlannerTimeoutError(ExomdpError):
    """The planner timed out before completing its first sweep.

    ``policy`` carries the best policy computable so far (greedy with
    respect to immediate rewards).
    """

    def __init__(self, message: str, policy=None):
        super().__init__(message)
        self.policy = policy


@dataclass(frozen=True)
class VariableSpec:
    """One discrete exogenous state variable.

    ``id`` is the variable's position in the MDP's exogenous vector;
    ids within one MDP are unique and contiguous from 0.
    """

    id: int
    cardinality: int
    name: str = ""

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"variable id must be >= 0, got {self.id}")
        if self.cardinality < 1:
            raise ValueError(
                f"variable cardinality must be >= 1, got {self.cardinality}"
            )


class FactoredState(NamedTuple):
    """Full state: endogenous index plus the complete exogenous vector."""

    endo: int
    exo: tuple[int, ...]


class ReducedState(NamedTuple):
    """Reduced state: endogenous index plus masked exogenous values.

    ``exo_masked`` holds the values of exactly the masked variables, in
    mask order.
    """

    endo: int
    exo_masked: tuple[int, ...]


@dataclass(frozen=True)
class Mask:
    """An ordered subset of exogenous variable indices.

    Indices are strictly increasing. The empty mask and the full mask are
    both legal.
    """

    included: tuple[int, ...] = ()

    def __post_init__(self):
        idx = tuple(int(i) for i in self.included)
        object.__setattr__(self, "included", idx)
        for a, b in zip(idx, idx[1:]):
            if b <= a:
                raise InvalidMaskError(
                    f"mask indices must be strictly increasing, got {idx}"
                )
        if idx and idx[0] < 0:
            raise InvalidMaskError(f"mask indices must be >= 0, got {idx}")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "Mask":
        """Build a mask from any iterable of indices (sorted, deduplicated)."""
        return cls(tuple(sorted(set(int(i) for i in indices))))

    @classmethod
    def full(cls, m: int) -> "Mask":
        return cls(tuple(range(m)))

    def complement(self, m: int) -> "Mask":
        """Indices in ``0..m-1`` not included in this mask."""
        if self.included and self.included[-1] >= m:
            raise InvalidMaskError(
                f"mask {self.included} out of range for m={m}"
            )
        inc = set(self.included)
        return Mask(tuple(i for i in range(m) if i not in inc))

    def with_variable(self, j: int) -> "Mask":
        if j in self:
            raise InvalidMaskError(f"variable {j} already in mask {self.included}")
        return Mask.of(self.included + (j,))

    def relative_to(self, parent: "Mask") -> "Mask":
        """Re-index this mask's variables by their positions within ``parent``.

        Requires this mask to be a subset of ``parent``.
        """
        pos = {v: k for k, v in enumerate(parent.included)}
        try:
            return Mask(tuple(pos[v] for v in self.included))
        except KeyError as e:
            raise InvalidMaskError(
                f"mask {self.included} is not a subset of {parent.included}"
            ) from e

    def __contains__(self, j: int) -> bool:
        return j in self.included

    def __len__(self) -> int:
        return len(self.included)

    def __iter__(self) -> Iterator[int]:
        return iter(self.included)


EMPTY_MASK = Mask(())


class GenerativeMdp(ABC):
    """Black-box generative model of a factored MDP.

    Implementations expose samplers for transitions and initial states plus
    a per-variable decomposed reward; no analytic distributions are
    required. The exogenous values drawn inside ``sample_transition`` must
    not depend on the action argument. Implementations must be safely
    callable from multiple threads provided each thread uses its own
    generator.
    """

    name: str = ""

    @property
    @abstractmethod
    def action_count(self) -> int: ...

    @property
    @abstractmethod
    def endo_cardinality(self) -> int: ...

    @property
    @abstractmethod
    def variable_specs(self) -> tuple[VariableSpec, ...]: ...

    @property
    @abstractmethod
    def discount(self) -> float: ...

    @property
    @abstractmethod
    def r_max(self) -> float:
        """Declared upper bound on the magnitude of one-step rewards."""
        ...

    @abstractmethod
    def sample_transition(
        self, state: FactoredState, action: int, rng: np.random.Generator
    ) -> FactoredState: ...

    @abstractmethod
    def reward_component(
        self, i: int, endo: int, exo_value: int, action: int
    ) -> float:
        """Contribution of exogenous variable ``i`` to the reward."""
        ...

    @abstractmethod
    def sample_initial(self, rng: np.random.Generator) -> FactoredState: ...

    @property
    def m(self) -> int:
        return len(self.variable_specs)

    @property
    def exo_cardinalities(self) -> tuple[int, ...]:
        return tuple(s.cardinality for s in self.variable_specs)

    def reward(self, state: FactoredState, action: int) -> float:
        """Full reward: sum of the per-variable components."""
        total = 0.0
        for i, v in enumerate(state.exo):
            total += self.reward_component(i, state.endo, v, action)
        return total

    def validate_state(self, state: FactoredState) -> None:
        if not 0 <= state.endo < self.endo_cardinality:
            raise ValueError(f"endo index {state.endo} out of range")
        if len(state.exo) != self.m:
            raise ValueError(
                f"exo vector has length {len(state.exo)}, expected {self.m}"
            )
        for v, spec in zip(state.exo, self.variable_specs):
            if not 0 <= v < spec.cardinality:
                raise ValueError(
                    f"value {v} out of range for variable {spec.id} "
                    f"(cardinality {spec.cardinality})"
                )


class ReducedSpace:
    """Lexicographic index over reduced states ``(endo, masked exo values)``.

    Enumeration order is endo-major, then masked variables in mask order
    with the first masked variable most significant.
    """

    def __init__(
        self,
        endo_cardinality: int,
        mask: Mask,
        all_cardinalities: Sequence[int],
    ):
        m = len(all_cardinalities)
        if mask.included and mask.included[-1] >= m:
            raise InvalidMaskError(
                f"mask {mask.included} out of range for m={m}"
            )
        self.endo_cardinality = int(endo_cardinality)
        self.mask = mask
        self.cards = tuple(int(all_cardinalities[i]) for i in mask.included)
        weights = []
        w = 1
        for c in reversed(self.cards):
            weights.append(w)
            w *= c
        self.weights = tuple(reversed(weights))
        self.n_exo = w
        self.n_states = self.endo_cardinality * self.n_exo

    def encode_exo(self, values: Sequence[int]) -> int:
        code = 0
        for v, w in zip(values, self.weights):
            code += v * w
        return code

    def decode_exo(self, code: int) -> tuple[int, ...]:
        out = []
        for w in self.weights:
            out.append(code // w)
            code %= w
        return tuple(out)

    def encode_state(self, endo: int, exo: Sequence[int]) -> int:
        """Flat index of the reduced form of a full state."""
        code = 0
        for i, w in zip(self.mask.included, self.weights):
            code += exo[i] * w
        return endo * self.n_exo + code

    def encode_reduced(self, rstate: ReducedState) -> int:
        return rstate.endo * self.n_exo + self.encode_exo(rstate.exo_masked)

    def decode(self, idx: int) -> ReducedState:
        endo, code = divmod(idx, self.n_exo)
        return ReducedState(endo, self.decode_exo(code))

    def states(self) -> list[ReducedState]:
        return [self.decode(i) for i in range(self.n_states)]

    def project_codes(self, exo_array: np.ndarray) -> np.ndarray:
        """Vectorized flat codes for an ``(T, m)`` array of exo vectors."""
        if not self.mask.included:
            return np.zeros(len(exo_array), dtype=np.int64)
        idx = np.fromiter(self.mask.included, dtype=np.int64)
        w = np.fromiter(self.weights, dtype=np.int64)
        return exo_array[:, idx].astype(np.int64) @ w

    def digit_matrix(self) -> np.ndarray:
        """``(|mask|, n_exo)`` array of per-variable digits for every code."""
        digits = np.empty((len(self.cards), self.n_exo), dtype=np.int64)
        codes = np.arange(self.n_exo, dtype=np.int64)
        for k, w in enumerate(self.weights):
            digits[k] = (codes // w) % self.cards[k]
        return digits


def reduce_state(state: FactoredState, mask: Mask) -> ReducedState:
    """Project a full state onto a mask, preserving mask order."""
    if mask.included and mask.included[-1] >= len(state.exo):
        raise InvalidMaskError(
            f"mask {mask.included} out of range for exo vector of "
            f"length {len(state.exo)}"
        )
    return ReducedState(state.endo, tuple(state.exo[i] for i in mask.included))


def reduced_reward(
    mdp: GenerativeMdp, rstate: ReducedState, action: int, mask: Mask
) -> float:
    """Reward of a reduced state: sum of the masked components only."""
    if not 0 <= action < mdp.action_count:
        raise ValueError(f"action {action} out of range")
    total = 0.0
    for pos, i in enumerate(mask.included):
        total += mdp.reward_component(i, rstate.endo, rstate.exo_masked[pos], action)
    return total


def reduced_space_for(
    mdp: GenerativeMdp, mask: Mask, state_budget: int = DEFAULT_STATE_BUDGET
) -> ReducedSpace:
    """Build the reduced-state index for a mask, enforcing the state budget."""
    product = mdp.endo_cardinality
    for i in mask.included:
        if i >= mdp.m:
            raise InvalidMaskError(f"mask index {i} out of range for m={mdp.m}")
        product *= mdp.variable_specs[i].cardinality
    if product > state_budget:
        raise StateSpaceTooLargeError(
            f"reduced state space has {product} states, "
            f"exceeding the budget of {state_budget}"
        )
    return ReducedSpace(mdp.endo_cardinality, mask, mdp.exo_cardinalities)


def enumerate_reduced_states(
    mdp: GenerativeMdp, mask: Mask, state_budget: int = DEFAULT_STATE_BUDGET
) -> list[ReducedState]:
    """Complete lexicographic enumeration of the reduced state space."""
    return reduced_space_for(mdp, mask, state_budget).states()


def _validate_rows(arr: np.ndarray, what: str, tol: float = 1e-9) -> None:
    if np.any(arr < -tol):
        raise ValueError(f"{what} has negative entries")
    sums = arr.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=tol):
        bad = float(np.abs(sums - 1.0).max())
        raise ValueError(f"{what} rows do not sum to 1 (max error {bad:.3g})")


class TabularFullMdp(GenerativeMdp):
    """Analytic tabular MDP with the factored transition structure.

    Exposes exact transition and reward tables alongside the black-box
    sampler interface, so it can be both planned in exactly and treated as
    a generative model. The joint exogenous vector is flattened with the
    first variable most significant.

    Parameters
    ----------
    endo_kernel : (N, A, X, N) array
        ``P(endo' | endo, action, exo_flat)``.
    exo_kernel : (X, X) array
        Joint exogenous transition ``P(exo_flat' | exo_flat)``.
    reward_tables : sequence of (N, card_i, A) arrays
        Per-variable reward components.
    init_endo : (N,) array, init_exo : (X,) array
        Initial-state distributions (independent by construction).
    """

    def __init__(
        self,
        *,
        endo_kernel: np.ndarray,
        exo_kernel: np.ndarray,
        reward_tables: Sequence[np.ndarray],
        init_endo: np.ndarray,
        init_exo: np.ndarray,
        discount: float,
        variable_specs: Sequence[VariableSpec],
        r_max: float | None = None,
        name: str = "tabular",
    ):
        self._specs = tuple(variable_specs)
        self._space = ReducedSpace(
            endo_kernel.shape[0],
            Mask.full(len(self._specs)),
            [s.cardinality for s in self._specs],
        )
        n, a, x, n2 = endo_kernel.shape
        if n != n2 or x != self._space.n_exo or exo_kernel.shape != (x, x):
            raise ValueError("kernel shapes are inconsistent with the variable specs")
        if not 0.0 < discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {discount}")
        _validate_rows(endo_kernel, "endo_kernel")
        _validate_rows(exo_kernel, "exo_kernel")
        _validate_rows(init_endo[None, :], "init_endo")
        _validate_rows(init_exo[None, :], "init_exo")
        self.endo_kernel = np.asarray(endo_kernel, dtype=float)
        self.exo_kernel = np.asarray(exo_kernel, dtype=float)
        self.reward_tables = [np.asarray(t, dtype=float) for t in reward_tables]
        for i, t in enumerate(self.reward_tables):
            if t.shape != (n, self._specs[i].cardinality, a):
                raise ValueError(f"reward table {i} has shape {t.shape}")
        self.init_endo = np.asarray(init_endo, dtype=float)
        self.init_exo = np.asarray(init_exo, dtype=float)
        self._discount = float(discount)
        self.name = name

        # Dense full reward, accumulated in variable order so that it is
        # bitwise identical to summing reward_component calls.
        digits = self._space.digit_matrix()
        # (X, m) per-variable values of every joint exo code
        self.exo_digits = np.ascontiguousarray(digits.T)
        full = np.zeros((n, a, x))
        for i, table in enumerate(self.reward_tables):
            full += table[:, digits[i], :].transpose(0, 2, 1)
        self.full_reward = full  # (N, A, X)
        declared = float(np.abs(full).max()) if full.size else 0.0
        self._r_max = float(r_max) if r_max is not None else declared

        self._endo_cum = np.cumsum(self.endo_kernel, axis=-1)
        self._exo_cum = np.cumsum(self.exo_kernel, axis=-1)
        self._init_endo_cum = np.cumsum(self.init_endo)
        self._init_exo_cum = np.cumsum(self.init_exo)
        self._exo_tuples = [tuple(row) for row in self.exo_digits.tolist()]

    @property
    def action_count(self) -> int:
        return self.endo_kernel.shape[1]

    @property
    def endo_cardinality(self) -> int:
        return self.endo_kernel.shape[0]

    @property
    def variable_specs(self) -> tuple[VariableSpec, ...]:
        return self._specs

    @property
    def discount(self) -> float:
        return self._discount

    @property
    def r_max(self) -> float:
        return self._r_max

    @property
    def n_exo_states(self) -> int:
        return self._space.n_exo

    def encode_exo(self, exo: Sequence[int]) -> int:
        return self._space.encode_exo(exo)

    def decode_exo(self, code: int) -> tuple[int, ...]:
        return self._exo_tuples[code]

    def mask_split(self, mask: Mask) -> tuple[np.ndarray, int, int]:
        """Exo codes as ``masked_code * n_excluded + excluded_code``, both sizes."""
        cards = self.exo_cardinalities
        space_m = ReducedSpace(1, mask, cards)
        space_c = ReducedSpace(1, mask.complement(self.m), cards)
        pos = space_m.project_codes(self.exo_digits) * space_c.n_exo
        pos += space_c.project_codes(self.exo_digits)
        return pos, space_m.n_exo, space_c.n_exo

    def sample_transition(
        self, state: FactoredState, action: int, rng: np.random.Generator
    ) -> FactoredState:
        x = self._space.encode_exo(state.exo)
        u = rng.random(2)
        n_next = int(np.searchsorted(self._endo_cum[state.endo, action, x], u[0]))
        x_next = int(np.searchsorted(self._exo_cum[x], u[1]))
        return FactoredState(n_next, self._exo_tuples[x_next])

    def reward_component(
        self, i: int, endo: int, exo_value: int, action: int
    ) -> float:
        return float(self.reward_tables[i][endo, exo_value, action])

    def reward(self, state: FactoredState, action: int) -> float:
        x = self._space.encode_exo(state.exo)
        return float(self.full_reward[state.endo, action, x])

    def sample_initial(self, rng: np.random.Generator) -> FactoredState:
        u = rng.random(2)
        n = int(np.searchsorted(self._init_endo_cum, u[0]))
        x = int(np.searchsorted(self._init_exo_cum, u[1]))
        return FactoredState(n, self._exo_tuples[x])

    # Batched samplers over flat (endo, exo code) arrays: row r of the
    # (R, 2) uniforms ``u`` holds what the scalar sampler draws for rollout r.

    def sample_initial_batch(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _draw(self._init_endo_cum, u[:, 0]), _draw(self._init_exo_cum, u[:, 1])

    def sample_transition_batch(self, endo, x, action, u: np.ndarray):
        endo_next = _draw(self._endo_cum[endo, action, x], u[:, 0])
        return endo_next, _draw(self._exo_cum[x], u[:, 1])

    def batch_rollouts(
        self, n_rollouts: int, horizon: int, seed: int, action_grid=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step all rollouts at once, bit-identical to the per-rollout loop.

        Rollout r reads its own ``SeedSequence(seed, spawn_key=(r,))``
        stream, two uniforms per sampler call. The action in ``(endo, x)``
        is ``action_grid[endo, x]``, or 0 without a grid. Returns the exo
        codes ``(n_rollouts, horizon + 1)`` and rewards ``(n_rollouts, horizon)``.
        """
        u = rollout_uniforms(seed, n_rollouts, 2 * (horizon + 1)).reshape(
            n_rollouts, horizon + 1, 2
        )
        codes = np.empty((n_rollouts, horizon + 1), dtype=np.int64)
        rewards = np.empty((n_rollouts, horizon))
        endo, codes[:, 0] = self.sample_initial_batch(u[:, 0])
        for t in range(horizon):
            x = codes[:, t]
            a = 0 if action_grid is None else action_grid[endo, x]
            rewards[:, t] = self.full_reward[endo, a, x]
            step = self.sample_transition_batch(endo, x, a, u[:, t + 1])
            endo, codes[:, t + 1] = step
        return codes, rewards


def _draw(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cum_row, u_row)`` per row of non-decreasing cumsums."""
    return (cum < u[:, None]).sum(axis=-1)


def rollout_uniforms(seed: int, n_rollouts: int, draws: int) -> np.ndarray:
    """Row r: the first ``draws`` doubles of the generator of rollout r,
    ``default_rng(SeedSequence(seed, spawn_key=(r,)))``. PCG64 buffers no
    doubles, so these are what successive ``random(2)`` calls return.
    """
    out = np.empty((n_rollouts, draws))
    for r in range(n_rollouts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        out[r] = rng.random(draws)
    return out


def uniform_random_policy(
    mdp: GenerativeMdp,
) -> Callable[[FactoredState, np.random.Generator], int]:
    """Behavior policy drawing actions uniformly at random."""
    k = mdp.action_count

    def act(state: FactoredState, rng: np.random.Generator) -> int:
        return int(rng.integers(k))

    return act


def action_independence_pvalues(
    mdp: GenerativeMdp,
    state: FactoredState,
    action_a: int,
    action_b: int,
    n_samples: int = 10_000,
    seed: int = 0,
) -> np.ndarray:
    """Chi-square p-values, per variable, that next-exo marginals match
    under two distinct actions.

    Small p-values reject the contract that exogenous transitions ignore
    the action. Compares per-variable marginal frequencies rather than the
    joint, so it stays well-powered when the joint space is large.
    """
    from scipy.stats import chi2_contingency

    cards = mdp.exo_cardinalities
    counts_a = [np.zeros(c, dtype=np.int64) for c in cards]
    counts_b = [np.zeros(c, dtype=np.int64) for c in cards]
    for action, counts, stream in ((action_a, counts_a, 0), (action_b, counts_b, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
        for _ in range(n_samples):
            nxt = mdp.sample_transition(state, action, rng)
            for i, v in enumerate(nxt.exo):
                counts[i][v] += 1
    pvals = np.ones(len(cards))
    for i in range(len(cards)):
        table = np.stack([counts_a[i], counts_b[i]])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] < 2:
            continue  # degenerate marginal, nothing to compare
        _, p, _, _ = chi2_contingency(table)
        pvals[i] = p
    return pvals


def truncation_horizon(gamma: float, r_max: float, tol: float = 1e-3) -> int:
    """Smallest horizon H with ``gamma^H * r_max / (1 - gamma) < tol``."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"truncation horizon needs gamma in (0, 1), got {gamma}")
    if r_max <= 0.0:
        return 1
    h = math.log(tol * (1.0 - gamma) / r_max) / math.log(gamma)
    return max(1, int(math.ceil(h)))
