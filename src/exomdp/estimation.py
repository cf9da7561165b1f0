"""Rollout collection and empirical model fitting.

Exogenous dynamics can be rolled out conditioned only on the initial
state, with no behavior policy, because they ignore the action. That makes
the exogenous transition tables cheap to estimate and, crucially,
independent of any data-gathering policy. Endogenous transitions still
need full rollouts under some behavior policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_STATE_BUDGET,
    GenerativeMdp,
    InsufficientDataError,
    Mask,
    ReducedSpace,
    TabularFullMdp,
    UnsupportedMdpError,
    _atoms,
    _exo_chain,
    _mixed_radix,
    _roll_out,
    checked_reward_tables,
    exo_ranks,
    reduced_reward_table,
    reduced_space_for,
    uniform_random_policy,
)


def _narrow(array: np.ndarray) -> np.ndarray:
    """Non-negative integers in the narrowest unsigned dtype that holds them."""
    return array.astype(np.min_scalar_type(int(array.max(initial=0))))


@dataclass(frozen=True, eq=False)
class ExoRolloutDataset:
    """Policy-free exogenous transitions, held as their joint exo index.

    ``values`` are the ``(D, m)`` distinct vectors of the rollouts' exo chain
    (``core.exo_ranks``), and each distinct ``(exo_t, exo_{t+1})`` pair,
    column ``k`` of ``pairs`` ``(2, P)`` of ranks into ``values``, was seen
    ``pair_counts[k]`` times, both in the narrowest unsigned dtype. The
    ``n_rollouts * horizon`` transitions themselves are not kept.
    """

    values: np.ndarray
    pairs: np.ndarray
    pair_counts: np.ndarray
    cardinalities: tuple[int, ...]
    horizon: int
    n_rollouts: int
    seed: int

    @classmethod
    def from_chain(cls, exo: np.ndarray, cardinalities, seed: int = 0):
        """The dataset of ``R`` rollouts' exo chain ``exo`` ``(R, H + 1, m)``,
        ranked once by ``core.exo_ranks``."""
        (ranks,), values = exo_ranks([exo], cardinalities)
        d = len(values)
        keys = _mixed_radix((ranks[:, :-1], ranks[:, 1:]), (d, d)).reshape(-1)
        pairs, counts = _atoms(keys, d * d)
        return cls(
            values, _narrow(np.stack(np.divmod(pairs, d))), _narrow(counts),
            tuple(cardinalities), exo.shape[1] - 1, len(exo), seed,
        )

    def __len__(self) -> int:
        return self.n_rollouts * self.horizon


@dataclass(frozen=True, eq=False)
class FullRolloutDataset:
    """Transitions under a behaviour policy, held as their counts.

    ``values`` are the ``(D, m)`` distinct vectors of the rollouts' exo chain
    (``core.exo_ranks``), and each distinct ``(endo * A + action, rank, next
    endo)`` step, column ``k`` of ``steps`` ``(3, S)`` with ``rank`` into
    ``values``, was seen ``step_counts[k]`` times, both in the narrowest
    unsigned dtype. Its exo pairs are not counted: the exo table is fitted
    from the policy-free ``ExoRolloutDataset``.
    """

    values: np.ndarray
    steps: np.ndarray
    step_counts: np.ndarray
    cardinalities: tuple[int, ...]
    endo_cardinality: int
    action_count: int
    horizon: int
    n_rollouts: int
    seed: int

    @classmethod
    def from_steps(
        cls, endo, action, ranks, values, cardinalities, endo_cardinality: int,
        action_count: int, seed: int = 0,
    ):
        """The dataset of ``R`` rollouts' ``endo`` ``(R, H + 1)`` and
        ``action`` ``(R, H)``, on an exo chain ranked as ``ranks`` ``(R, H +
        1)`` into its distinct ``values`` (``core.exo_ranks``)."""
        n, a, d = endo_cardinality, action_count, len(values)
        digits = (endo[:, :-1], action, ranks[:, :-1], endo[:, 1:])
        keys = _mixed_radix(digits, (n, a, d, n)).reshape(-1)
        keys, counts = _atoms(keys, n * a * d * n)
        rest, next_endo = np.divmod(keys, n)
        steps = _narrow(np.stack([*np.divmod(rest, d), next_endo]))
        n_rollouts, horizon = action.shape
        return cls(
            values, steps, _narrow(counts), tuple(cardinalities), n, a, horizon,
            n_rollouts, seed,
        )

    def __len__(self) -> int:
        return self.n_rollouts * self.horizon


# Largest ``rows * cols`` for which a table also keeps its dense form and
# takes products densely; larger tables use the sparse kernel and never build
# a ``rows * cols`` array. One limit for the endo and the exo table.
DENSE_MAX_ENTRIES = 65_536


@dataclass(frozen=True, eq=False)
class SparseTable:
    """Row-sparse conditional table ``P(col | row)``, ``n_rows`` by ``n_cols``.

    Row ``r`` is ``spread[r]`` in every column plus ``probs[k]`` in column
    ``cols[k]`` for each stored ``k`` with ``rows[k] == r``. A fitted row
    stores ``count / (total + s C)`` at each observed column and spreads
    ``s / (total + s C)`` under smoothing ``s`` over ``C = n_cols`` columns;
    a row the data never saw stores nothing and spreads ``1 / C``, the
    uniform fallback. Triplets are sorted by ``(row, col)`` without repeats;
    the row segments are found once, here, and the dense table ``dense`` is
    materialised only when ``n_rows * n_cols`` is at most
    ``DENSE_MAX_ENTRIES`` (None otherwise).
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    probs: np.ndarray
    spread: np.ndarray
    dense: np.ndarray | None = field(init=False, repr=False)
    _starts: np.ndarray = field(init=False, repr=False)
    _segment_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_rows, n_cols = self.n_rows, self.n_cols
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        probs = np.asarray(self.probs, dtype=float)
        spread = np.asarray(self.spread, dtype=float)
        if not (rows.shape == cols.shape == probs.shape == (len(rows),)
                and spread.shape == (n_rows,)):
            raise ValueError(
                f"table of {n_rows} rows needs equal-length 1-d triplets and "
                f"{n_rows} spread weights"
            )
        if len(rows) and (
            min(rows.min(), cols.min()) < 0
            or rows.max() >= n_rows
            or cols.max() >= n_cols
            or np.any(np.diff(rows * n_cols + cols) <= 0)
        ):
            raise ValueError(
                "triplets must lie in the table, sorted by (row, col) "
                "without repeats"
            )
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        for name, value in (
            ("rows", rows), ("cols", cols), ("probs", probs), ("spread", spread),
            ("_starts", starts), ("_segment_rows", rows[starts]), ("dense", None),
        ):
            object.__setattr__(self, name, value)
        if n_rows * n_cols <= DENSE_MAX_ENTRIES:
            object.__setattr__(self, "dense", self.to_dense())

    @classmethod
    def from_dense(cls, table: np.ndarray) -> "SparseTable":
        """Store every nonzero entry of a dense 2-d table, spread 0."""
        table = np.asarray(table, dtype=float)
        if table.ndim != 2:
            raise ValueError(f"table must be 2-d, got shape {table.shape}")
        rows, cols = np.nonzero(table)
        return cls(*table.shape, rows, cols, table[rows, cols], np.zeros(len(table)))

    @property
    def nbytes(self) -> int:
        arrays = (self.rows, self.cols, self.probs, self.spread, self._starts,
                  self._segment_rows, self.dense)
        return sum(a.nbytes for a in arrays if a is not None)

    def to_dense(self) -> np.ndarray:
        """The ``(n_rows, n_cols)`` table; builds it, so only for small tables."""
        table = np.repeat(self.spread[:, None], self.n_cols, axis=1)
        table[self.rows, self.cols] += self.probs
        return table

    def row_sums(self) -> np.ndarray:
        sums = self.spread * self.n_cols
        if len(self.probs):
            sums[self._segment_rows] += np.add.reduceat(self.probs, self._starts)
        return sums

    def expect(self, v: np.ndarray) -> np.ndarray:
        """``out[b, r] = sum_c P(c | r) v[b, c]`` for ``v`` of shape (B, n_cols)."""
        if self.dense is not None:
            return v @ self.dense.T
        out = np.multiply.outer(v.sum(axis=1), self.spread)
        if len(self.probs):
            # take and an in-place product: half the time of v[:, cols] * probs
            for row, vb in zip(out, v):  # a row at a time: B times less memory
                gathered = vb.take(self.cols)
                gathered *= self.probs
                row[self._segment_rows] += np.add.reduceat(gathered, self._starts)
        return out


@dataclass(eq=False)
class TabularReducedMdp:
    """Estimated reduced MDP over ``(endo, masked exo)`` states.

    Both transition tables are ``SparseTable``s: the observed rows plus a
    uniform fallback for the rest, in memory proportional to the observed
    transitions. ``endo_table`` is ``P(endo' | endo, action, masked_code)``
    with row ``(endo * A + action) * X + masked_code`` and the ``N`` next
    endo values as columns; ``exo_table`` is ``P(masked' | masked)``,
    ``X`` by ``X``. Each is reached through one product, ``endo_expectation``
    and ``exo_expectation``; for either, a table of at most
    ``DENSE_MAX_ENTRIES`` cells keeps its dense form and the product is a
    dense ``einsum`` or matrix product, and a larger table gathers and
    sums over its stored triplets. ``reward_table`` has shape ``(N, A, X)``
    and is exact (``core.reduced_reward_table`` of the MDP's reward tables,
    not estimated).
    """

    mask: Mask
    space: ReducedSpace
    endo_table: SparseTable
    exo_table: SparseTable
    reward_table: np.ndarray
    discount: float
    r_max: float

    def __post_init__(self):
        n, x = self.endo_cardinality, self.n_exo_states
        a = self.action_count
        shapes = (
            (self.endo_table.n_rows, self.endo_table.n_cols),
            (self.exo_table.n_rows, self.exo_table.n_cols),
            self.reward_table.shape,
        )
        if shapes != ((n * a * x, n), (x, x), (n, a, x)):
            raise ValueError(
                f"tables of shapes {shapes} do not fit {n} endo values, "
                f"{a} actions and {x} masked codes"
            )
        # stored endo entry k of row (n, a, x) reads w[cols[k], x]; its flat
        # index into w, found once for the sparse kernel
        endo = self.endo_table
        self._endo_gather = None if endo.dense is not None else (
            endo.cols * x + endo.rows % x
        )

    @property
    def endo_cardinality(self) -> int:
        return self.space.endo_cardinality

    @property
    def action_count(self) -> int:
        return self.reward_table.shape[1]

    @property
    def n_exo_states(self) -> int:
        return self.space.n_exo

    def exo_expectation(self, v: np.ndarray) -> np.ndarray:
        """``E[v(n, x') | x]`` over the masked exo successor, shape (N, X)."""
        return self.exo_table.expect(v)

    def endo_expectation(self, w: np.ndarray) -> np.ndarray:
        """``out[n, a, x] = sum_m P(m | n, a, x) w[m, x]`` for ``w`` of shape
        (N, X); shape (N, A, X)."""
        n, a, x = self.endo_cardinality, self.action_count, self.n_exo_states
        endo = self.endo_table
        if endo.dense is not None:
            return np.einsum("naxm,mx->nax", endo.dense.reshape(n, a, x, n), w)
        # most endo rows store one or two entries; one bincount over the rows
        # took a half to a third of the time of reduceat over that many
        # segments on the crowd's masks
        gathered = w.take(self._endo_gather)
        gathered *= endo.probs
        out = np.bincount(endo.rows, gathered, endo.n_rows).reshape(n, a, x)
        w_sum = w.sum(axis=0)
        for out_n, spread_n in zip(out, endo.spread.reshape(n, a, x)):
            out_n += spread_n * w_sum  # one endo value at a time: N times less
        return out

    def assert_valid(self, tol: float = 1e-9) -> None:
        # each check states what must hold, so that NaN fails it
        if not np.all(np.isfinite(self.reward_table)):
            raise ValueError("reward_table has non-finite entries")
        for name, table in (("endo", self.endo_table), ("exo", self.exo_table)):
            if not (np.all(table.probs >= 0) and np.all(table.spread >= 0)):
                raise ValueError(f"{name}_table has negative or NaN probabilities")
            err = float(np.abs(table.row_sums() - 1.0).max())
            if not err <= tol:
                raise ValueError(f"{name}_table rows off by {err:.3g}")


def collect_exo_rollouts(
    mdp: GenerativeMdp, n_rollouts: int, horizon: int, seed: int = 0
) -> ExoRolloutDataset:
    """Roll out exogenous dynamics from sampled initial states.

    Runs only the engine's first stage, ``core.exo_trajectory`` without its
    draws: the exo step sees no action and no endo step is taken.
    Deterministic given ``seed``: one generator per seed, read in rollout
    order, so the first R rollouts are the same for any larger count.
    """
    exo = _exo_chain(mdp, n_rollouts, horizon, seed)[1]
    return ExoRolloutDataset.from_chain(exo, mdp.exo_cardinalities, seed)


def collect_full_rollouts(
    mdp: GenerativeMdp,
    policy=None,
    n_rollouts: int = 1,
    horizon: int = 1,
    seed: int = 0,
) -> FullRolloutDataset:
    """Roll out full transitions under a behavior policy, as
    ``core.rollouts`` does, and count them on the ranks of the engine's
    stage 1: the exo chain is ranked once, and under the behaviour policy no
    reward is read.

    ``policy`` is None (``core.uniform_random_policy``), that behaviour
    policy, or a planned ``planner.Policy``; the engine refuses any other.
    """
    if policy is None:
        policy = uniform_random_policy(mdp)
    trajectory, endo, action, _ = _roll_out(mdp, policy, n_rollouts, horizon, seed)
    return FullRolloutDataset.from_steps(
        endo, action, trajectory.ranks, trajectory.values, mdp.exo_cardinalities,
        mdp.endo_cardinality, mdp.action_count, seed,
    )


def _fit_table(
    keys: np.ndarray, n_rows: int, n_cols: int, smoothing: float, weights=None
) -> SparseTable:
    """Maximum-likelihood table from observed ``row * n_cols + col`` keys,
    key ``k`` seen ``weights[k]`` times (once each when None); the keys'
    atoms are counted by ``core._atoms``.
    """
    keys, counts = _atoms(keys, n_rows * n_cols, weights=weights)
    rows, cols = np.divmod(keys, n_cols)
    totals = np.bincount(rows, weights=counts, minlength=n_rows)
    denominators = totals + smoothing * n_cols
    seen = totals > 0
    spread = np.full(n_rows, 1.0 / n_cols)
    spread[seen] = smoothing / denominators[seen]
    return SparseTable(n_rows, n_cols, rows, cols, counts / denominators[rows], spread)


def fit_reduced_mdp(
    mdp: GenerativeMdp,
    mask: Mask,
    exo_data: ExoRolloutDataset,
    full_data: FullRolloutDataset,
    smoothing: float = 0.0,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> TabularReducedMdp:
    """Fit the reduced transition tables and build the exact reward table.

    The exogenous table is the projected-count maximum-likelihood estimate
    from the policy-free dataset; the endogenous table groups full-rollout
    transitions by ``(endo, action, masked exo)``. Ignored variables are
    marginalized out by the projection itself. Both are fitted from the
    datasets' joint counts: each dataset's distinct exo vectors are
    projected once, and every distinct pair or step adds its count, which
    gives the tables of counting row by row to the bit. ``exo_data`` must be
    an ``ExoRolloutDataset``.
    """
    if not isinstance(exo_data, ExoRolloutDataset):
        raise ValueError(
            f"exo_data must be the ExoRolloutDataset of policy-free rollouts, "
            f"got {type(exo_data).__name__}"
        )
    if len(exo_data) == 0 or len(full_data) == 0:
        raise InsufficientDataError("cannot fit a reduced model from an empty dataset")
    want = (mdp.exo_cardinalities, mdp.endo_cardinality, mdp.action_count)
    got = (
        tuple(full_data.cardinalities),
        full_data.endo_cardinality,
        full_data.action_count,
    )
    if tuple(exo_data.cardinalities) != want[0] or got != want:
        raise ValueError(
            "datasets do not match the MDP's (exo cardinalities, endo "
            f"cardinality, actions) {want}: the exo dataset has cardinalities "
            f"{tuple(exo_data.cardinalities)}, the full dataset {got}"
        )
    space = reduced_space_for(mdp, mask, state_budget)
    n, a, x = mdp.endo_cardinality, mdp.action_count, space.n_exo

    code = space.project_codes(exo_data.values)
    rank, next_rank = exo_data.pairs
    keys = _mixed_radix((code[rank], code[next_rank]), (x, x))
    exo_table = _fit_table(keys, x, x, smoothing, exo_data.pair_counts)
    code = space.project_codes(full_data.values)
    condition, rank, next_endo = full_data.steps
    keys = _mixed_radix((condition, code[rank], next_endo), (n * a, x, n))
    endo_table = _fit_table(keys, n * a * x, n, smoothing, full_data.step_counts)

    reward_table = reduced_reward_table(mdp, space)
    return TabularReducedMdp(
        mask=mask,
        space=space,
        endo_table=endo_table,
        exo_table=exo_table,
        reward_table=reward_table,
        discount=mdp.discount,
        r_max=mdp.r_max,
    )


def exact_reduced_model(
    mdp: TabularFullMdp, mask: Mask, state_budget: int = DEFAULT_STATE_BUDGET
) -> TabularReducedMdp:
    """Build the reduced model exactly from analytic tables.

    Marginalizes the excluded variables with uniform weights over their
    joint values. When the endogenous kernel ignores the excluded
    variables and the exogenous kernel factorizes across the mask split,
    the result is exact regardless of the weighting.
    """
    if not isinstance(mdp, TabularFullMdp):
        raise UnsupportedMdpError("exact reduction needs analytic tables")
    space = reduced_space_for(mdp, mask, state_budget)
    xf = mdp.n_exo_states
    xm = space.n_exo
    proj = space.project_codes(mdp.exo_digits)
    group_sizes = np.bincount(proj, minlength=xm).astype(float)

    # endo: average P(n'|n,a,x) over full codes sharing a masked code
    n, a = mdp.endo_cardinality, mdp.action_count
    endo_red = np.zeros((n, a, xm, n))
    for code in range(xf):
        endo_red[:, :, proj[code], :] += mdp.endo_kernel[:, :, code, :]
    endo_red /= group_sizes[None, None, :, None]

    # exo: sum columns into masked codes, then average rows per masked code
    col = np.zeros((xf, xm))
    np.add.at(col.T, proj, mdp.exo_kernel.T)
    exo_red = np.zeros((xm, xm))
    np.add.at(exo_red, proj, col)
    exo_red /= group_sizes[:, None]

    reward_table = reduced_reward_table(mdp, space)
    return TabularReducedMdp(
        mask=mask,
        space=space,
        endo_table=SparseTable.from_dense(endo_red.reshape(n * a * xm, n)),
        exo_table=SparseTable.from_dense(exo_red),
        reward_table=reward_table,
        discount=mdp.discount,
        r_max=mdp.r_max,
    )


def transition_mutual_information(
    exo_data: ExoRolloutDataset, mask: Mask, j: int
) -> float:
    """Mutual information between the masked transition pair and one
    candidate variable's transition pair, from policy-free rollouts.

    The two random variables are ``A = (masked_t, masked_{t+1})`` and
    ``B = (x^j_t, x^j_{t+1})``; the estimate is the plug-in KL divergence
    between the empirical joint and the product of empirical marginals,
    in nats, summed over the observed atoms in sorted order. Zero when the
    mask is empty (the information of an empty reduced state is zero by
    convention). Both pairs are read from the dataset's distinct exo
    vectors, and every atom is counted over its distinct ``(rank, next
    rank)`` pairs, weighted by their counts.
    """
    m = len(exo_data.cardinalities)
    if not 0 <= j < m:
        raise ValueError(f"variable index {j} out of range for m={m}")
    if j in mask:
        raise ValueError(f"variable {j} is already in the mask")
    if len(exo_data) == 0:
        raise InsufficientDataError("cannot estimate mutual information without data")
    if not mask.included:
        return 0.0
    space = ReducedSpace(1, mask, exo_data.cardinalities)
    rank, next_rank = exo_data.pairs
    weights = exo_data.pair_counts
    code = space.project_codes(exo_data.values)
    a = _mixed_radix((code[rank], code[next_rank]), (space.n_exo, space.n_exo))
    cj = exo_data.cardinalities[j]
    digit = exo_data.values[:, j]
    b = _mixed_radix((digit[rank], digit[next_rank]), (cj, cj))
    total = len(exo_data)
    _, a_inv, a_counts = _atoms(a, space.n_exo**2, True, weights)
    _, b_inv, b_counts = _atoms(b, cj * cj, True, weights)
    n_a, n_b = len(a_counts), len(b_counts)
    joint = _mixed_radix((a_inv, b_inv), (n_a, n_b))
    atoms, counts = _atoms(joint, n_a * n_b, weights=weights)
    a_part, b_part = np.divmod(atoms, n_b)
    p = counts / total
    mi = float(
        np.sum(p * np.log(counts.astype(float) * total
                          / (a_counts[a_part] * b_counts[b_part])))
    )
    return max(0.0, mi)


def estimate_reward_variables(mdp: GenerativeMdp, variance_threshold: float) -> Mask:
    """Screen for variables that directly influence the reward.

    Variable ``i`` is kept when the variance of its reward table over its
    values (ddof 0), averaged over every ``(endo, action)``, strictly
    exceeds ``variance_threshold``. Because the reward decomposes per
    variable, only that variable's component is read; the rest of the
    state cancels out of the variance. The tables are the MDP's own
    (``checked_reward_tables``), so the screen is exact and draws nothing.

    Each row is shifted by its first entry before its variance is taken:
    the variance is unchanged, but a constant row's becomes exactly 0
    (``np.var([0.1] * 3)`` is 1.9e-34).

    At a threshold of 0 a variable is kept when its table varies in its
    value at some ``(endo, action)``. Earlier releases sampled this screen,
    and their mean read this variance times ``(k - 1) / k`` for ``k``
    sampled values; only a threshold above 0, which no shipped config sets,
    can keep other variables than they did.
    """
    return Mask.of(
        i
        for i, t in enumerate(checked_reward_tables(mdp))
        if (t - t[:, :1]).var(axis=1).mean() > variance_threshold
    )
