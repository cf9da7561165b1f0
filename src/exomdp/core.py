"""Core contracts for factored MDPs with exogenous state variables.

A state is a pair ``(endo, exo)``: one opaque endogenous index whose
transitions react to the agent's actions, plus a vector of discrete
exogenous variable values whose transitions never do. A mask selects the
exogenous variables a planner keeps; the reduced state space is the
endogenous index crossed with the masked variables only.

All value types here are immutable after construction and safe to share
across threads. MDPs are stepped as arrays of rollouts from uniforms the
caller draws, so callers control determinism.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_STATE_BUDGET = 1_000_000

# dtype of exogenous values in rollouts and datasets
_EXO_DTYPE = np.int16
# Largest exogenous cardinality whose values 0..card-1 the exo dtype holds.
_MAX_EXO_CARDINALITY = int(np.iinfo(_EXO_DTYPE).max) + 1


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

    def __contains__(self, j: int) -> bool:
        return j in self.included

    def __len__(self) -> int:
        return len(self.included)

    def __iter__(self) -> Iterator[int]:
        return iter(self.included)


class GenerativeMdp(ABC):
    """Black-box generative model of a factored MDP, stepped as arrays.

    Implementations expose array samplers over ``R`` rollouts at once plus a
    per-variable decomposed reward; no analytic distributions are required.

    - ``draws_per_step`` is the fixed number K >= 1 of uniforms one step
      reads; ``exo_columns`` names the distinct ones in ``0..K-1`` that drive
      the exo step, and the others drive the endo step, in column order;
    - ``batch_initial(u)`` returns ``(endo, exo)`` arrays ``(R,)`` and
      ``(R, m)`` from uniforms ``u`` of shape ``(R, K)``;
    - ``batch_exo_step(exo, u)`` returns the next exo values from the exo
      columns, in declared order: it sees neither endo state nor action;
    - ``batch_endo_step(endo, exo, action, u)`` returns the next endo values
      from the endo columns and the pre-step exo state in ``exo_index``
      form. An integer in ``0..n-1`` is ``floor(n * u)``;
    - ``reward_component_table(i)`` returns variable ``i``'s read-only
      ``(N, card_i, A)`` reward table, the one statement of the reward: a
      state's is the sum of every variable's entry.

    An MDP that lacks one of these, a declared size, ``discount`` or
    ``r_max`` cannot be constructed; ``exo_index`` is optional.
    Implementations must be safe to call from several threads at once.
    """

    name: str = ""

    @property
    @abstractmethod
    def draws_per_step(self) -> int: ...

    @property
    @abstractmethod
    def exo_columns(self) -> tuple[int, ...]: ...

    @abstractmethod
    def batch_initial(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...

    @abstractmethod
    def batch_exo_step(self, exo: np.ndarray, u: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def batch_endo_step(self, endo, exo, action, u: np.ndarray) -> np.ndarray: ...

    def exo_index(self, exo: np.ndarray) -> np.ndarray:
        """What ``batch_endo_step`` reads of ``(..., m)`` exo values, computed
        once per trajectory: by default the values."""
        return exo

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
    def reward_component_table(self, i: int) -> np.ndarray:
        """Read-only ``(N, card_i, A)`` table: exogenous variable ``i``'s
        contribution to the reward at each endo value, value of ``i`` and
        action."""
        ...

    @property
    def m(self) -> int:
        return len(self.variable_specs)

    @property
    def exo_cardinalities(self) -> tuple[int, ...]:
        return tuple(s.cardinality for s in self.variable_specs)


def checked_reward_tables(mdp: GenerativeMdp) -> tuple[np.ndarray, ...]:
    """The ``m`` tables of ``mdp.reward_component_table``, read, refused
    unless ``(N, card_i, A)`` and kept the first time any reward is read."""
    tables = mdp.__dict__.get("_reward_tables")
    if tables is None:
        n, a = mdp.endo_cardinality, mdp.action_count
        tables = tuple(np.asarray(mdp.reward_component_table(i)) for i in range(mdp.m))
        for i, (table, card) in enumerate(zip(tables, mdp.exo_cardinalities)):
            if table.shape != (n, card, a):
                raise ValueError(
                    f"{type(mdp).__name__}.reward_component_table({i}) has shape "
                    f"{table.shape}, not (N, card_{i}, A) = {(n, card, a)}"
                )
        mdp.__dict__["_reward_tables"] = tables
    return tables


def _rewards(mdp: GenerativeMdp, endo, exo, action) -> np.ndarray:
    """``(rows,)`` full rewards of rows of states, ``exo`` ``(rows, m)``
    values: from +0.0, the entries ``[endo, exo[:, i], action]`` of the
    tables not all zero (found once per instance) added in variable order,
    which skipping zero tables leaves byte-equal."""
    terms = mdp.__dict__.get("_reward_terms")
    if terms is None:  # (i, table flattened value-major) of each nonzero table
        tables = enumerate(checked_reward_tables(mdp))
        terms = [(i, t.transpose(1, 0, 2).ravel()) for i, t in tables if t.any()]
        mdp.__dict__["_reward_terms"] = terms
    at = np.multiply(endo, mdp.action_count, dtype=np.int64) + action
    total, stride = np.zeros(len(endo)), mdp.endo_cardinality * mdp.action_count
    for i, flat in terms:
        total += flat.take(np.multiply(exo[:, i], stride, dtype=np.int64) + at)
    return total


def reduced_reward_table(mdp: GenerativeMdp, space: ReducedSpace) -> np.ndarray:
    """``(N, A, n_exo)`` reward of every state of ``space``: from zeros, each
    masked variable's reward table added in mask order. Exact, since the
    reward decomposes per variable."""
    table = np.zeros((mdp.endo_cardinality, mdp.action_count, space.n_exo))
    tables, digits = checked_reward_tables(mdp), space.digit_matrix()
    for pos, i in enumerate(space.mask.included):
        table += tables[i][:, digits[pos], :].transpose(0, 2, 1)
    return table


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

    def project_codes(self, exo_array: np.ndarray) -> np.ndarray:
        """Vectorized flat codes ``(...)`` of an ``(..., m)`` array of exo
        vectors, one masked variable at a time."""
        codes = np.zeros(exo_array.shape[:-1], dtype=np.int64)
        for i, w in zip(self.mask.included, self.weights):
            codes += exo_array[..., i].astype(np.int64) * w
        return codes

    def digit_matrix(self) -> np.ndarray:
        """``(|mask|, n_exo)`` array of per-variable digits for every code."""
        digits = np.empty((len(self.cards), self.n_exo), dtype=np.int64)
        codes = np.arange(self.n_exo, dtype=np.int64)
        for k, w in enumerate(self.weights):
            digits[k] = (codes // w) % self.cards[k]
        return digits


# np.unique's sort beats a bincount over more than this many cells per code
# counted (break-even measured at 10k to 400k codes; see CHANGES.md).
BINCOUNT_CELLS_PER_CODE = 4


def _atoms(codes, size: int, inverse: bool = False, weights=None) -> tuple:
    """``np.unique(codes, return_inverse=inverse, return_counts=True)`` for
    codes in ``0..size-1``, by one bincount where ``size`` is small enough.
    With integer ``weights``, an atom's count is the sum of its codes'
    weights (added in float64, so exactly below ``2**53``). The bincount
    path gives the inverse in the narrowest unsigned dtype that holds it."""
    if size > BINCOUNT_CELLS_PER_CODE * len(codes):
        if weights is None:
            return np.unique(codes, return_inverse=inverse, return_counts=True)
        atoms, codes = np.unique(codes, return_inverse=True)
        counts = np.bincount(codes, weights).astype(np.int64)
    else:
        counts = np.bincount(codes, weights, minlength=size)
        atoms = np.flatnonzero(counts)
        if inverse:
            ranks = np.cumsum(counts > 0) - 1
            codes = ranks.astype(np.min_scalar_type(max(len(atoms) - 1, 0)))[codes]
        counts = counts[atoms].astype(np.int64, copy=False)
    return (atoms, codes, counts) if inverse else (atoms, counts)


def _mixed_radix(digits, radices) -> np.ndarray:
    """``(d0 * r1 + d1) * r2 + d2 ...`` of integer arrays ``digits``, each
    digit below its radix in ``radices``: int32 where every key fits and
    int64 otherwise, so that counting them moves half the bytes."""
    keys = digits[0].astype(_code_dtype(math.prod(radices)))
    for digit, radix in zip(digits[1:], radices[1:]):
        keys *= radix
        keys += digit
    return keys


def _code_dtype(size: int):
    """The integer dtype of codes ``0..size-1``, int32 or int64."""
    return np.int32 if size <= 1 << 31 else np.int64


def exo_ranks(arrays: Sequence[np.ndarray], cardinalities: Sequence[int]) -> tuple:
    """``(ranks, values)`` of the exo vectors of ``arrays``, each of shape
    ``(..., m)``: ``values`` holds the ``(D, m)`` distinct vectors of all of
    them in lexicographic order (first variable most significant), and
    ``ranks`` per array the ``(...)`` row of ``values`` of each vector, in
    the narrowest unsigned dtype that holds ``D - 1``.

    The vectors are read as mixed-radix codes one variable at a time. Before
    a digit would carry the codes past int64, the codes so far are replaced
    by their ranks, so the codes grow with the distinct vectors and never
    with the product of the cardinalities. ``values`` is decoded from the
    distinct codes alone.
    """
    cards = [int(c) for c in cardinalities]
    rows = [a.reshape(math.prod(a.shape[:-1]), a.shape[-1]) for a in arrays]
    for r in rows:
        if r.shape[1] != len(cards):
            raise ValueError(
                f"exo vectors of {r.shape[1]} variables do not fit the "
                f"{len(cards)} cardinalities {tuple(cards)}"
            )
        if r.size and r.min() < 0:
            raise ValueError("exo values must be non-negative")
    bounds = np.cumsum([0] + [len(r) for r in rows]).tolist()
    codes, size = np.zeros(bounds[-1], dtype=_code_dtype(math.prod(cards))), 1
    # the distinct vectors of the variables ranked so far, in rank order
    prefix = np.zeros((1, 0), dtype=rows[0].dtype if rows else _EXO_DTYPE)
    ranked = 0
    for i, card in enumerate(cards):
        if size * card > 1 << 63:  # the largest code, size * card - 1, overflows
            atoms, codes, _ = _atoms(codes, size, inverse=True)
            prefix, ranked = _decode(atoms, prefix, cards[ranked:i]), i
            codes, size = codes.astype(np.int64), len(atoms)
        codes *= card
        for r, lo, hi in zip(rows, bounds, bounds[1:]):
            digit = r[:, i]
            if len(digit) and digit.max() >= card:
                raise ValueError(
                    f"exo variable {i} takes values outside 0..{card - 1}"
                )
            codes[lo:hi] += digit
        size *= card
    atoms, codes, _ = _atoms(codes, size, inverse=True)
    ranks = codes.astype(np.min_scalar_type(max(len(atoms) - 1, 0)), copy=False)
    parts = np.split(ranks, bounds[1:-1])
    ranks = [part.reshape(a.shape[:-1]) for a, part in zip(arrays, parts)]
    return ranks, _decode(atoms, prefix, cards[ranked:])


def _decode(codes: np.ndarray, prefix: np.ndarray, cards: list[int]) -> np.ndarray:
    """Rows of ``codes`` read as ``rank * prod(cards) + digits``: the row of
    ``prefix`` of each rank, then its digits in ``cards``' radices."""
    k = prefix.shape[1]
    out = np.empty((len(codes), k + len(cards)), dtype=prefix.dtype)
    for i in reversed(range(len(cards))):
        codes, out[:, k + i] = np.divmod(codes, cards[i])
    out[:, :k] = prefix[codes]
    return out


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


def _validate_rows(arr: np.ndarray, what: str, tol: float = 1e-9) -> None:
    if np.any(arr < -tol):
        raise ValueError(f"{what} has negative entries")
    sums = arr.sum(axis=-1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=tol):
        bad = float(np.abs(sums - 1.0).max())
        raise ValueError(f"{what} rows do not sum to 1 (max error {bad:.3g})")


class InverseCdf:
    """Draws from the rows of a ``(..., N)`` kernel, flattened, reading only
    each row's support and its running maximum of cumulative sums (padded
    with ``+inf``): the first support column whose sum is at least ``u``, by
    ``argmin``, or up to ``COUNT_WIDTH`` wide as the count of the ``width - 1``
    finite sums below ``u`` (kept transposed). That is ``(cum < u).sum()``,
    except that it is never a zero-probability column (at ``u == 0``) nor
    ``N`` (``u`` above a row sum below 1)."""

    COUNT_WIDTH = 8  # counting beats argmin up to here (measured; CHANGES.md)

    def __init__(self, kernel: np.ndarray):
        p = kernel.reshape(-1, kernel.shape[-1])
        counts = np.count_nonzero(p > 0, axis=1)
        self.width = int(counts.max())
        order = np.argsort(p <= 0, axis=1, kind="stable")  # nonzero columns first
        self.support = np.ascontiguousarray(order[:, : self.width])
        self.cum = np.take_along_axis(np.cumsum(p, axis=1), self.support, axis=1)
        np.maximum.accumulate(self.cum, axis=1, out=self.cum)
        self.cum[np.arange(self.width) >= counts[:, None] - 1] = np.inf
        narrow = self.width <= self.COUNT_WIDTH
        self.cum_t = np.ascontiguousarray(self.cum[:, :-1].T) if narrow else None

    def draw(self, row, u: np.ndarray) -> np.ndarray:
        """Column of flat row ``row`` (an int or one per uniform) at ``u``."""
        if self.cum_t is None:
            k = (self.cum.take(row, axis=0) < u[:, None]).argmin(axis=1)
        else:
            k = (self.cum_t.take(np.atleast_1d(row), axis=1) < u).sum(axis=0)
        return self.support.take(row * self.width + k)


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
        Per-variable reward components, exactly one per variable; kept as
        read-only copies.
    init_endo : (N,) array, init_exo : (X,) array
        Initial-state distributions (independent by construction).

    Each step draws two uniforms: the next endogenous index, then (the exo
    column) the next joint exogenous code, each by the ``InverseCdf`` of its
    row. The endo step reads joint codes (``exo_index``); ``full_reward`` is
    the tables' ``reduced_reward_table`` over the full mask.
    """

    draws_per_step = 2
    exo_columns = (1,)

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
        if len(reward_tables) != len(self._specs):
            raise ValueError(
                f"{len(reward_tables)} reward tables for {len(self._specs)} "
                f"exogenous variables: need one per variable"
            )
        self.reward_tables = [np.array(t, dtype=float) for t in reward_tables]
        for table in self.reward_tables:
            table.flags.writeable = False
        self.init_endo = np.asarray(init_endo, dtype=float)
        self.init_exo = np.asarray(init_exo, dtype=float)
        self._discount = float(discount)
        self.name = name

        # (X, m) per-variable values of every joint exo code
        self.exo_digits = np.ascontiguousarray(self._space.digit_matrix().T)
        # (N, A, X); building it checks the tables
        self.full_reward = full = reduced_reward_table(self, self._space)
        declared = float(np.abs(full).max()) if full.size else 0.0
        self._r_max = float(r_max) if r_max is not None else declared

        self._endo_draw = InverseCdf(self.endo_kernel)
        self._exo_draw = InverseCdf(self.exo_kernel)
        self._init_endo_draw = InverseCdf(self.init_endo)
        self._init_exo_draw = InverseCdf(self.init_exo)
        self._exo_weights = np.array(self._space.weights, dtype=np.int64)

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

    def mask_split(self, mask: Mask) -> tuple[np.ndarray, int, int]:
        """Exo codes as ``masked_code * n_excluded + excluded_code``, both sizes."""
        cards = self.exo_cardinalities
        space_m = ReducedSpace(1, mask, cards)
        space_c = ReducedSpace(1, mask.complement(self.m), cards)
        pos = space_m.project_codes(self.exo_digits) * space_c.n_exo
        pos += space_c.project_codes(self.exo_digits)
        return pos, space_m.n_exo, space_c.n_exo

    def batch_initial(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = self._init_exo_draw.draw(0, u[:, 1])
        return self._init_endo_draw.draw(0, u[:, 0]), self.exo_digits[x]

    def exo_index(self, exo: np.ndarray) -> np.ndarray:
        return exo @ self._exo_weights

    def batch_exo_step(self, exo, u) -> np.ndarray:
        return self.exo_digits[self._exo_draw.draw(self.exo_index(exo), u[:, 0])]

    def batch_endo_step(self, endo, x, action, u) -> np.ndarray:
        _, a, n_exo, _ = self.endo_kernel.shape
        return self._endo_draw.draw((endo * a + action) * n_exo + x, u[:, 0])

    def reward_component_table(self, i: int) -> np.ndarray:
        return self.reward_tables[i]

    def lift(self, space: ReducedSpace, per_state: np.ndarray) -> np.ndarray:
        """``(N, X)``: each full state's entry of a table over ``space``."""
        _check_space_fits(self, space)
        proj = space.project_codes(self.exo_digits)
        return per_state.reshape(self.endo_cardinality, space.n_exo)[:, proj]


class UniformRandomPolicy:
    """Behaviour policy: action ``floor(action_count * u)`` from one uniform
    per step, drawn before the step's transition uniforms."""

    def __init__(self, action_count: int):
        self.action_count = int(action_count)


def uniform_random_policy(mdp: GenerativeMdp) -> UniformRandomPolicy:
    """Behavior policy drawing actions uniformly at random."""
    return UniformRandomPolicy(mdp.action_count)


@dataclass(frozen=True, eq=False)
class Rollouts:
    """``R`` rollouts of horizon ``H``: ``endo`` ``(R, H + 1)`` int32, ``exo``
    ``(R, H + 1, m)`` int16, ``action`` ``(R, H)`` int32, ``reward`` ``(R, H)``
    float under a planned policy (None under the behaviour policy). Step t
    takes ``action[:, t]`` in state t, earns ``reward[:, t]``.
    """

    endo: np.ndarray
    exo: np.ndarray
    action: np.ndarray
    reward: np.ndarray | None


@dataclass(frozen=True, eq=False)
class ExoTrajectory:
    """Stage 1 of the rollout engine, read-only: initial ``endo`` ``(R,)``,
    the exo chain ``exo`` ``(R, H + 1, m)`` int16, its ``exo_index``, its
    ``exo_ranks`` (``ranks`` ``(R, H + 1)`` into the distinct ``values``
    ``(D, m)``), and ``draws`` ``(R, H, c)``, each step's uniforms the exo
    step does not read (the behaviour policy's one, if it acts, then the
    endo columns)."""

    endo: np.ndarray
    exo: np.ndarray
    index: np.ndarray
    ranks: np.ndarray
    values: np.ndarray
    draws: np.ndarray

    def lift_policy(self, policy) -> np.ndarray:
        """``(N, D)``: a planned policy's action at each endo value and
        distinct exo vector of the chain, in the narrowest unsigned dtype
        that holds ``policy.action_count - 1``."""
        space = policy.space
        actions = policy.actions.astype(np.min_scalar_type(policy.action_count - 1))
        table = actions.reshape(space.endo_cardinality, space.n_exo)
        return table[:, space.project_codes(self.values)]


# Uniforms (doubles, 4 MiB) stage 1 draws and holds per chunk of rollouts,
# ``max(1, CHUNK_DRAWS // width)`` of ``width`` each; no result depends on it.
CHUNK_DRAWS = 1 << 19
# Rows ``rollout_returns`` steps together and rewards it tabulates at once:
# policies of ``R`` rollouts, lifted onto ``N * D`` states, go in groups of
# ``max(1, CHUNK_ROWS // max(R, N * D))``, and the trajectory is copied for a
# group's ``rows`` ``max(1, CHUNK_ROWS // rows)`` steps at a time; no result
# depends on it. At 2**16, grid-brute's peak RSS rose 2.8 MB for no speed.
CHUNK_ROWS = 1 << 14


def exo_trajectory(
    mdp: GenerativeMdp,
    n_rollouts: int,
    horizon: int,
    seed: int | None = None,
    behave: bool = False,
) -> ExoTrajectory:
    """Stage 1 of the engine: draw the initial states and step the exo chain
    through ``batch_exo_step``, keeping of each step's uniforms only those
    the exo step does not read. One generator per seed,
    ``default_rng(seed)`` (``seed`` a non-negative integer, 0 when None), is
    read in rollout order: rollout r's uniforms are row r of
    ``random((R, width))``, ``draws_per_step`` for the initial state, then
    per step the behaviour policy's one (when ``behave``) and
    ``draws_per_step`` for the transition. So rollouts 0..R-1 are the same
    for every larger R, but not for another horizon. The rows are drawn as
    many rollouts at a time as hold ``CHUNK_DRAWS`` uniforms (at least one).
    """
    endo, exo, draws = _exo_chain(mdp, n_rollouts, horizon, seed, behave, True)
    (ranks,), values = exo_ranks([exo], mdp.exo_cardinalities)
    out = ExoTrajectory(endo, exo, mdp.exo_index(exo), ranks, values, draws)
    for array in (endo, exo, out.index, ranks, values, draws):
        array.flags.writeable = False
    return out


def _exo_chain(mdp, n_rollouts, horizon, seed, behave=False, keep_draws=False):
    """``exo_trajectory``'s endo, exo and draws (no column unless
    ``keep_draws``), from one generator for ``seed`` read in rollout order;
    refuses a seed that is not a non-negative integer or None."""
    if n_rollouts < 1 or horizon < 1:
        raise ValueError("n_rollouts and horizon must be >= 1")
    try:
        seed = 0 if seed is None else operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    exo_cols, endo_cols = _draw_columns(mdp)
    k, behave = mdp.draws_per_step, int(behave)
    endo = np.empty(n_rollouts, dtype=np.int64)
    exo = np.empty((n_rollouts, horizon + 1, mdp.m), dtype=_EXO_DTYPE)
    kept = list(range(behave)) + [behave + c for c in endo_cols] if keep_draws else []
    exo_cols = [behave + c for c in exo_cols]
    draws = np.empty((n_rollouts, horizon, len(kept)))
    width = k + horizon * (behave + k)  # uniforms per rollout
    n_chunks = -(-n_rollouts // max(1, CHUNK_DRAWS // width))
    bounds = [n_rollouts * i // n_chunks for i in range(n_chunks + 1)]
    gen = np.random.default_rng(seed)
    for lo, hi in zip(bounds, bounds[1:]):
        u = gen.random((hi - lo, width))
        steps = u[:, k:].reshape(hi - lo, horizon, behave + k)
        endo[lo:hi], x = mdp.batch_initial(u[:, :k])
        exo[lo:hi, 0] = x
        draws[lo:hi] = steps[:, :, kept]
        for t in range(horizon):
            x = mdp.batch_exo_step(x, steps[:, t, exo_cols])
            exo[lo:hi, t + 1] = x
    return endo, exo, draws


def rollouts(
    mdp: GenerativeMdp, policy, n_rollouts: int, horizon: int, seed: int | None = None
) -> Rollouts:
    """Roll out ``n_rollouts`` episodes of ``horizon`` steps from the
    initial-state distribution, keeping every step.

    ``policy`` is a planned ``planner.Policy`` (acting through its mask) or
    the behaviour policy of ``uniform_random_policy``; anything else is
    refused before any rollout. Stage 1 is ``exo_trajectory`` of ``seed``,
    stage 2 steps the endo chains and reads the rewards as ``_stage_two``
    says: under a planned policy only, so its ill-shaped reward tables are
    refused before any rollout.
    """
    trajectory, endo, action, reward = _roll_out(mdp, policy, n_rollouts, horizon, seed)
    return Rollouts(endo, trajectory.exo, action, reward)


def _roll_out(mdp, policy, n_rollouts, horizon, seed) -> tuple:
    """``(trajectory, endo, action, reward)`` of ``rollouts``: its stage-1
    ``ExoTrajectory`` and the stacked steps of stage 2."""
    _check_policy_fits(mdp, policy)
    behave = isinstance(policy, UniformRandomPolicy)
    if not behave:
        checked_reward_tables(mdp)
    trajectory = exo_trajectory(mdp, n_rollouts, horizon, seed, behave)
    if behave:
        stepped = _stage_two(mdp, trajectory, [], policy)
    else:
        stepped = _stage_two(mdp, trajectory, [trajectory.lift_policy(policy)])
    action, reward, endo = zip(*stepped)
    endo = np.stack((trajectory.endo, *endo), axis=1, dtype=np.int32)
    reward = None if behave else np.stack(reward, axis=1)
    return trajectory, endo, np.stack(action, axis=1, dtype=np.int32), reward


def rollout_returns(
    mdp: GenerativeMdp,
    policies: Sequence,
    n_rollouts: int,
    horizon: int,
    seed: int | None = None,
    trajectory: ExoTrajectory | None = None,
) -> np.ndarray:
    """``(P, R)`` truncated discounted returns of the ``R = n_rollouts``
    rollouts of each of ``P`` planned ``policies``, all on the exo chain of
    ``seed`` (0 when None) or of ``trajectory``, ``exo_trajectory(mdp,
    n_rollouts, horizon, s)`` made earlier, which gives the returns of seed
    ``s``: common random numbers.

    Stage 2 steps groups of at most ``max(1, CHUNK_ROWS // max(R, N * D))``
    policies together as one set of rows, reads each step's rewards from a
    table over every policy, endo value and distinct exo vector of the
    chain, and adds them, discounted, into every rollout's return in step
    order, so no array over every step is kept. Row p is, to the byte, the
    returns of policy p rolled out alone.
    """
    from .planner import Policy  # planner imports this module

    for policy in policies:
        if not isinstance(policy, Policy):
            raise ValueError(
                f"returns are of planner.Policy objects, got {type(policy).__name__}"
            )
        _check_policy_fits(mdp, policy)
    checked_reward_tables(mdp)
    if trajectory is None:
        trajectory = exo_trajectory(mdp, n_rollouts, horizon, seed)
    elif seed is not None:
        raise ValueError("pass seed or trajectory, not both")
    n_draws = len(_draw_columns(mdp)[1])
    want = (n_rollouts, horizon + 1, mdp.m), (n_rollouts, horizon, n_draws)
    have = trajectory.exo.shape, trajectory.draws.shape
    if have != want:
        raise ValueError(f"trajectory shapes {have} do not fit {want}")
    lifted = [trajectory.lift_policy(policy) for policy in policies]
    out = np.zeros((len(policies), n_rollouts))
    cells = mdp.endo_cardinality * len(trajectory.values)
    group = max(1, CHUNK_ROWS // max(n_rollouts, cells))
    for lo in range(0, len(policies), group):
        returns = out[lo : lo + group].reshape(-1)  # a view, filled in place
        disc = 1.0
        for _, reward, _ in _stage_two(mdp, trajectory, lifted[lo : lo + group]):
            returns += disc * reward
            disc *= mdp.discount
    return out


def _stage_two(mdp, trajectory, lifted, behaviour=None) -> Iterator[tuple]:
    """Stage 2 of the engine, its one step loop: the endo chains on
    ``trajectory`` of P planned policies ``lifted`` onto it
    (``ExoTrajectory.lift_policy``), stepped together as ``P * R`` rows
    (policy-major) that read their actions from one flat ``(P * N * D)``
    table at ``offset + e * D + rank`` (policy, endo value, the chain's
    rank); or, with none, of ``behaviour``, the behaviour policy.

    Yields ``(action, reward, endo)`` at each step: the ``(rows,)``
    actions, their rewards and the next endo values. Planned policies read
    their rewards beside their actions, from one flat table that
    ``_rewards`` fills over every policy, endo value and distinct exo
    vector; the behaviour policy reads none (None). The trajectory's
    per-step fields are copied for every policy ``max(1, CHUNK_ROWS //
    rows)`` steps at a time.
    """
    u, index, ranks = trajectory.draws, trajectory.index, trajectory.ranks
    copies, r = max(1, len(lifted)), None
    if lifted:
        table = np.stack(lifted).reshape(-1).astype(np.int64)
        n_distinct = lifted[0].shape[1]
        offset = np.repeat(np.arange(copies) * lifted[0].size, len(trajectory.endo))
        cell = np.arange(len(table))  # at every policy, endo value and exo vector
        exo = trajectory.values.take(cell % n_distinct, axis=0)
        at = cell // n_distinct % mdp.endo_cardinality
        reward_table = _rewards(mdp, at, exo, table)
    else:  # the behaviour policy's draw comes first
        act_u, u = behaviour.action_count * u[:, :, 0], u[:, :, 1:]
    e = _repeat_rows(trajectory.endo, copies)
    horizon, block = u.shape[1], max(1, CHUNK_ROWS // len(e))
    for t0 in range(0, horizon, block):
        steps = slice(t0, min(t0 + block, horizon))
        x, draws, rank = (_repeat_rows(v[:, steps], copies) for v in (index, u, ranks))
        for s in range(x.shape[1]):
            if lifted:
                flat = offset + e * n_distinct + rank[:, s]
                a, r = table.take(flat), reward_table.take(flat)
            else:
                a = act_u[:, t0 + s].astype(np.int64)
            e = mdp.batch_endo_step(e, x[:, s], a, draws[:, s])
            yield a, r, e


def _repeat_rows(array: np.ndarray, copies: int) -> np.ndarray:
    """``copies`` copies of ``array`` stacked along its first axis."""
    return array if copies == 1 else np.concatenate([array] * copies)


def _draw_columns(mdp: GenerativeMdp) -> tuple[list[int], list[int]]:
    """The exo columns and the others (the endo columns); refuses samplers
    the engine cannot step before any rollout."""
    too_large = [c for c in mdp.exo_cardinalities if c > _MAX_EXO_CARDINALITY]
    if too_large:
        raise ValueError(
            f"exogenous cardinalities {too_large} exceed {_MAX_EXO_CARDINALITY}, "
            f"the most the {np.dtype(_EXO_DTYPE).name} dataset dtype holds"
        )
    k, name = mdp.draws_per_step, type(mdp).__name__
    if k < 1:
        raise ValueError(
            f"{name} has draws_per_step {k}; it must be the number of uniforms "
            f"one step reads per row, at least 1"
        )
    cols = [int(c) for c in mdp.exo_columns]
    outside = [c for c in cols if not 0 <= c < k]
    twice = sorted({c for c in cols if cols.count(c) > 1})
    if outside or twice:
        raise ValueError(
            f"{name} declares exo_columns {tuple(cols)}: {outside} outside "
            f"0..{k - 1}, {twice} more than once"
        )
    return cols, [c for c in range(k) if c not in cols]


def _check_space_fits(mdp: GenerativeMdp, space: ReducedSpace) -> None:
    """Refuse a reduced space that is not one of the MDP's."""
    cards = mdp.exo_cardinalities
    have = (space.endo_cardinality, space.cards)
    at_mask = tuple(cards[i] for i in space.mask if i < len(cards))
    want = (mdp.endo_cardinality, at_mask)
    if have != want:
        raise ValueError(
            f"reduced space over (endo cardinality, cardinalities at mask "
            f"{space.mask.included}) {have} does not fit the MDP's {want}"
        )


def _check_policy_fits(mdp: GenerativeMdp, policy) -> None:
    """Refuse a policy that is neither a planned nor the behaviour policy,
    or one that is not the MDP's."""
    from .planner import Policy  # planner imports this module

    if isinstance(policy, Policy):
        _check_space_fits(mdp, policy.space)
    elif not isinstance(policy, UniformRandomPolicy):
        raise ValueError(
            f"policy must be a planner.Policy or the UniformRandomPolicy "
            f"of uniform_random_policy, got {type(policy).__name__}"
        )
    _check_action_count(mdp, policy)


def _check_action_count(mdp, policy) -> None:
    """Refuse a policy over another number of actions than the MDP's."""
    if policy.action_count != mdp.action_count:
        raise ValueError(
            f"policy over {policy.action_count} actions does not fit the "
            f"MDP's {mdp.action_count}"
        )


def truncation_horizon(gamma: float, r_max: float, tol: float = 1e-3) -> int:
    """Smallest horizon H with ``gamma^H * r_max / (1 - gamma) < tol``."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"truncation horizon needs gamma in (0, 1), got {gamma}")
    if r_max <= 0.0:
        return 1
    h = math.log(tol * (1.0 - gamma) / r_max) / math.log(gamma)
    return max(1, int(math.ceil(h)))
