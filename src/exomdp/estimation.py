"""Rollout collection and empirical model fitting.

Exogenous dynamics can be rolled out conditioned only on the initial
state, with no behavior policy, because they ignore the action. That makes
the exogenous transition tables cheap to estimate and, crucially,
independent of any data-gathering policy. Endogenous transitions still
need full rollouts under some behavior policy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_STATE_BUDGET,
    GenerativeMdp,
    InsufficientDataError,
    Mask,
    ReducedSpace,
    StateSpaceTooLargeError,
    TabularFullMdp,
    UnsupportedMdpError,
    reduced_space_for,
    uniform_random_policy,
)

_EXO_DTYPE = np.int16


@dataclass(frozen=True)
class ExoRolloutDataset:
    """Policy-free exogenous transitions: one ``(exo_t, exo_{t+1})`` per row.

    ``exo`` and ``next_exo`` are ``(n_rollouts * horizon, m)`` integer arrays.
    """

    exo: np.ndarray
    next_exo: np.ndarray
    cardinalities: tuple[int, ...]
    horizon: int
    n_rollouts: int
    seed: int

    def __len__(self) -> int:
        return len(self.exo)


@dataclass(frozen=True)
class FullRolloutDataset:
    """Policy-driven transitions ``(s, a, r, s')`` as parallel arrays."""

    endo: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_endo: np.ndarray
    exo: np.ndarray
    next_exo: np.ndarray
    cardinalities: tuple[int, ...]
    endo_cardinality: int
    action_count: int
    horizon: int
    n_rollouts: int
    seed: int
    policy_tag: str = "uniform-random"

    def __len__(self) -> int:
        return len(self.endo)


@dataclass(eq=False)
class TabularReducedMdp:
    """Estimated reduced MDP over ``(endo, masked exo)`` states.

    ``endo_table`` is ``P(endo' | endo, action, masked_code)`` with shape
    ``(N, A, X, N)``; ``exo_table`` is ``P(masked' | masked)`` with shape
    ``(X, X)``; ``reward_table`` has shape ``(N, A, X)`` and is exact (built
    from the black-box reward components, not estimated). Conditioning rows
    never observed in the data fall back to the uniform distribution.
    """

    mask: Mask
    space: ReducedSpace
    endo_table: np.ndarray
    exo_table: np.ndarray
    reward_table: np.ndarray
    discount: float
    r_max: float

    @property
    def endo_cardinality(self) -> int:
        return self.space.endo_cardinality

    @property
    def action_count(self) -> int:
        return self.endo_table.shape[1]

    @property
    def n_exo_states(self) -> int:
        return self.space.n_exo

    def assert_valid(self, tol: float = 1e-9) -> None:
        for name, table in (("endo", self.endo_table), ("exo", self.exo_table)):
            if np.any(table < 0):
                raise ValueError(f"{name}_table has negative probabilities")
            err = float(np.abs(table.sum(axis=-1) - 1.0).max())
            if err > tol:
                raise ValueError(f"{name}_table rows off by {err:.3g}")


def collect_exo_rollouts(
    mdp: GenerativeMdp, n_rollouts: int, horizon: int, seed: int = 0
) -> ExoRolloutDataset:
    """Roll out exogenous dynamics from sampled initial states.

    Uses a fixed arbitrary action (0) for every step; the exogenous parts
    of the sampled transitions do not depend on it. Deterministic given
    ``seed``; rollout r uses its own generator stream.
    """
    if n_rollouts < 1 or horizon < 1:
        raise ValueError("n_rollouts and horizon must be >= 1")
    m = mdp.m
    total = n_rollouts * horizon
    if isinstance(mdp, TabularFullMdp):
        codes, _ = mdp.batch_rollouts(n_rollouts, horizon, seed)
        values = mdp.exo_digits.astype(_EXO_DTYPE)[codes]  # (R, H + 1, m)
        exo = values[:, :-1].reshape(total, m)
        nxt = values[:, 1:].reshape(total, m)
    else:
        exo = np.empty((total, m), dtype=_EXO_DTYPE)
        nxt = np.empty((total, m), dtype=_EXO_DTYPE)
        row = 0
        for r in range(n_rollouts):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
            state = mdp.sample_initial(rng)
            for _ in range(horizon):
                after = mdp.sample_transition(state, 0, rng)
                exo[row] = state.exo
                nxt[row] = after.exo
                row += 1
                state = after
    return ExoRolloutDataset(
        exo=exo,
        next_exo=nxt,
        cardinalities=mdp.exo_cardinalities,
        horizon=horizon,
        n_rollouts=n_rollouts,
        seed=seed,
    )


def collect_full_rollouts(
    mdp: GenerativeMdp,
    policy=None,
    n_rollouts: int = 1,
    horizon: int = 1,
    seed: int = 0,
) -> FullRolloutDataset:
    """Roll out full ``(s, a, r, s')`` tuples under a behavior policy.

    ``policy`` may be None (uniform random), a ``planner.Policy``, or a
    callable ``(state, rng) -> action``.
    """
    if n_rollouts < 1 or horizon < 1:
        raise ValueError("n_rollouts and horizon must be >= 1")
    if policy is None:
        act = uniform_random_policy(mdp)
        tag = "uniform-random"
    elif callable(policy):
        act = policy
        tag = getattr(policy, "policy_tag", "callable")
    else:
        act = lambda s, rng: policy.action_for_state(s)  # noqa: E731
        tag = f"reduced-policy:{policy.mask.included}"
    m = mdp.m
    total = n_rollouts * horizon
    endo = np.empty(total, dtype=np.int32)
    action = np.empty(total, dtype=np.int32)
    reward = np.empty(total, dtype=float)
    next_endo = np.empty(total, dtype=np.int32)
    exo = np.empty((total, m), dtype=_EXO_DTYPE)
    nxt = np.empty((total, m), dtype=_EXO_DTYPE)
    row = 0
    for r in range(n_rollouts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        state = mdp.sample_initial(rng)
        for _ in range(horizon):
            a = act(state, rng)
            rew = mdp.reward(state, a)
            after = mdp.sample_transition(state, a, rng)
            endo[row] = state.endo
            action[row] = a
            reward[row] = rew
            next_endo[row] = after.endo
            exo[row] = state.exo
            nxt[row] = after.exo
            row += 1
            state = after
    return FullRolloutDataset(
        endo=endo,
        action=action,
        reward=reward,
        next_endo=next_endo,
        exo=exo,
        next_exo=nxt,
        cardinalities=mdp.exo_cardinalities,
        endo_cardinality=mdp.endo_cardinality,
        action_count=mdp.action_count,
        horizon=horizon,
        n_rollouts=n_rollouts,
        seed=seed,
        policy_tag=tag,
    )


def exo_pairs_from_full(full_data: FullRolloutDataset) -> ExoRolloutDataset:
    """View the exogenous parts of policy-driven rollouts as an exo dataset."""
    return ExoRolloutDataset(
        exo=full_data.exo,
        next_exo=full_data.next_exo,
        cardinalities=full_data.cardinalities,
        horizon=full_data.horizon,
        n_rollouts=full_data.n_rollouts,
        seed=full_data.seed,
    )


def _normalize_rows(counts: np.ndarray, smoothing: float) -> np.ndarray:
    """Row-normalize counts with additive smoothing; empty rows go uniform."""
    counts = counts.astype(float)
    k = counts.shape[-1]
    if smoothing > 0:
        counts = counts + smoothing
    totals = counts.sum(axis=-1, keepdims=True)
    out = np.empty_like(counts)
    empty = (totals == 0.0)[..., 0]
    nonempty = ~empty
    out[nonempty] = counts[nonempty] / totals[nonempty]
    out[empty] = 1.0 / k
    return out


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
    marginalized out by the projection itself.
    """
    if len(exo_data) == 0 or len(full_data) == 0:
        raise InsufficientDataError("cannot fit a reduced model from an empty dataset")
    space = reduced_space_for(mdp, mask, state_budget)
    n, a, x = mdp.endo_cardinality, mdp.action_count, space.n_exo
    if x * x > 200_000_000:
        raise StateSpaceTooLargeError(
            f"masked exo table would need {x * x} entries"
        )

    codes_t = space.project_codes(exo_data.exo)
    codes_t1 = space.project_codes(exo_data.next_exo)
    exo_counts = np.bincount(codes_t * x + codes_t1, minlength=x * x).reshape(x, x)
    exo_table = _normalize_rows(exo_counts, smoothing)

    fcodes = space.project_codes(full_data.exo)
    flat = (
        (full_data.endo.astype(np.int64) * a + full_data.action) * x + fcodes
    ) * n + full_data.next_endo
    endo_counts = np.bincount(flat, minlength=n * a * x * n).reshape(n, a, x, n)
    endo_table = _normalize_rows(endo_counts, smoothing)

    reward_table = _exact_reward_table(mdp, space)
    return TabularReducedMdp(
        mask=mask,
        space=space,
        endo_table=endo_table,
        exo_table=exo_table,
        reward_table=reward_table,
        discount=mdp.discount,
        r_max=mdp.r_max,
    )


def _exact_reward_table(mdp: GenerativeMdp, space: ReducedSpace) -> np.ndarray:
    """Reduced reward from the black-box components: no estimation noise."""
    n, a = mdp.endo_cardinality, mdp.action_count
    table = np.zeros((n, a, space.n_exo))
    if not space.mask.included:
        return table
    digits = space.digit_matrix()
    for pos, i in enumerate(space.mask.included):
        card = space.cards[pos]
        comp = np.empty((n, card, a))
        for endo in range(n):
            for v in range(card):
                for act in range(a):
                    comp[endo, v, act] = mdp.reward_component(i, endo, v, act)
        table += comp[:, digits[pos], :].transpose(0, 2, 1)
    return table


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

    reward_table = _exact_reward_table(mdp, space)
    return TabularReducedMdp(
        mask=mask,
        space=space,
        endo_table=endo_red,
        exo_table=exo_red,
        reward_table=reward_table,
        discount=mdp.discount,
        r_max=mdp.r_max,
    )


def _plugin_mi(a_codes: np.ndarray, b_codes: np.ndarray) -> float:
    """Plug-in mutual information (nats) between two discrete samples.

    Joint counts are held sparsely; only observed atoms contribute.
    """
    total = len(a_codes)
    _, a_inv = np.unique(a_codes, return_inverse=True)
    _, b_inv = np.unique(b_codes, return_inverse=True)
    n_b = int(b_inv.max()) + 1
    joint_code = a_inv.astype(np.int64) * n_b + b_inv
    atoms, counts = np.unique(joint_code, return_counts=True)
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


def transition_mutual_information(
    exo_data: ExoRolloutDataset, mask: Mask, j: int
) -> float:
    """Mutual information between the masked transition pair and one
    candidate variable's transition pair, from policy-free rollouts.

    The two random variables are ``A = (masked_t, masked_{t+1})`` and
    ``B = (x^j_t, x^j_{t+1})``; the estimate is the plug-in KL divergence
    between the empirical joint and the product of empirical marginals,
    in nats. Zero when the mask is empty (the information of an empty
    reduced state is zero by convention).
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
    at = space.project_codes(exo_data.exo)
    at1 = space.project_codes(exo_data.next_exo)
    a_codes = at * space.n_exo + at1
    cj = exo_data.cardinalities[j]
    b_codes = exo_data.exo[:, j].astype(np.int64) * cj + exo_data.next_exo[:, j]
    return _plugin_mi(a_codes, b_codes)


def transition_mutual_information_with_endo(
    full_data: FullRolloutDataset, mask: Mask, j: int
) -> float:
    """Variant of the transition mutual information whose reduced-state
    pair includes the endogenous component.

    Needs policy-driven rollouts, so unlike the default it is not
    policy-invariant; offered for diagnostics.
    """
    m = len(full_data.cardinalities)
    if not 0 <= j < m:
        raise ValueError(f"variable index {j} out of range for m={m}")
    if j in mask:
        raise ValueError(f"variable {j} is already in the mask")
    if len(full_data) == 0:
        raise InsufficientDataError("cannot estimate mutual information without data")
    space = ReducedSpace(1, mask, full_data.cardinalities)
    xm = space.n_exo
    n = full_data.endo_cardinality
    at = full_data.endo.astype(np.int64) * xm + space.project_codes(full_data.exo)
    at1 = full_data.next_endo.astype(np.int64) * xm + space.project_codes(
        full_data.next_exo
    )
    a_codes = at * (n * xm) + at1
    cj = full_data.cardinalities[j]
    b_codes = full_data.exo[:, j].astype(np.int64) * cj + full_data.next_exo[:, j]
    return _plugin_mi(a_codes, b_codes)


def estimate_reward_variables(
    mdp: GenerativeMdp,
    variance_threshold: float,
    n_contexts: int,
    n_settings: int,
    seed: int = 0,
    context_sampler: Callable[[np.random.Generator], tuple[int, int]] | None = None,
) -> Mask:
    """Screen for variables that directly influence the reward.

    For each variable, draws ``n_contexts`` random ``(endo, action)``
    contexts, and within each context ``n_settings`` random values of the
    variable; the variable is kept when the mean reward variance across
    settings strictly exceeds ``variance_threshold``. Because the reward
    decomposes per variable, only that variable's component needs to be
    evaluated; the rest of the state cancels out of the variance.

    ``context_sampler`` optionally biases context sampling; it must return
    an ``(endo, action)`` pair.
    """
    if n_settings < 2:
        raise ValueError("n_settings must be >= 2 for a variance to exist")
    if n_contexts < 1:
        raise ValueError("n_contexts must be >= 1")
    selected = []
    for i, spec in enumerate(mdp.variable_specs):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        total = 0.0
        for _ in range(n_contexts):
            if context_sampler is not None:
                endo, action = context_sampler(rng)
            else:
                endo = int(rng.integers(mdp.endo_cardinality))
                action = int(rng.integers(mdp.action_count))
            values = rng.integers(0, spec.cardinality, size=n_settings)
            rewards = [
                mdp.reward_component(i, endo, int(v), action) for v in values
            ]
            total += float(np.var(rewards))
        if total / n_contexts > variance_threshold:
            selected.append(i)
    return Mask.of(selected)


# ---------------------------------------------------------------------------
# Dataset serialization (one transition per row); format documented in the
# README under "Dataset cache format".
# ---------------------------------------------------------------------------


def save_exo_dataset(ds: ExoRolloutDataset, path) -> None:
    m = len(ds.cardinalities)
    with open(path, "w", newline="") as fh:
        fh.write(f"# exomdp-exo-v1 m={m} horizon={ds.horizon} "
                 f"n_rollouts={ds.n_rollouts} seed={ds.seed} "
                 f"cards={','.join(map(str, ds.cardinalities))}\n")
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(m)] + [f"y{i}" for i in range(m)])
        for a, b in zip(ds.exo, ds.next_exo):
            writer.writerow([int(v) for v in a] + [int(v) for v in b])


def load_exo_dataset(path) -> ExoRolloutDataset:
    with open(path, newline="") as fh:
        header = fh.readline()
        meta = _parse_meta(header, "exomdp-exo-v1")
        reader = csv.reader(fh)
        next(reader)  # column names
        rows = [[int(v) for v in row] for row in reader]
    m = meta["m"]
    arr = np.array(rows, dtype=_EXO_DTYPE).reshape(len(rows), 2 * m)
    return ExoRolloutDataset(
        exo=arr[:, :m],
        next_exo=arr[:, m:],
        cardinalities=meta["cards"],
        horizon=meta["horizon"],
        n_rollouts=meta["n_rollouts"],
        seed=meta["seed"],
    )


def save_full_dataset(ds: FullRolloutDataset, path) -> None:
    m = len(ds.cardinalities)
    with open(path, "w", newline="") as fh:
        fh.write(f"# exomdp-full-v1 m={m} horizon={ds.horizon} "
                 f"n_rollouts={ds.n_rollouts} seed={ds.seed} "
                 f"cards={','.join(map(str, ds.cardinalities))} "
                 f"endo={ds.endo_cardinality} actions={ds.action_count} "
                 f"policy={ds.policy_tag}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["endo", "action", "reward", "next_endo"]
            + [f"x{i}" for i in range(m)]
            + [f"y{i}" for i in range(m)]
        )
        for k in range(len(ds)):
            writer.writerow(
                [int(ds.endo[k]), int(ds.action[k]), repr(float(ds.reward[k])),
                 int(ds.next_endo[k])]
                + [int(v) for v in ds.exo[k]]
                + [int(v) for v in ds.next_exo[k]]
            )


def load_full_dataset(path) -> FullRolloutDataset:
    with open(path, newline="") as fh:
        header = fh.readline()
        meta = _parse_meta(header, "exomdp-full-v1")
        reader = csv.reader(fh)
        next(reader)
        endo, action, reward, next_endo, exo, nxt = [], [], [], [], [], []
        m = meta["m"]
        for row in reader:
            endo.append(int(row[0]))
            action.append(int(row[1]))
            reward.append(float(row[2]))
            next_endo.append(int(row[3]))
            exo.append([int(v) for v in row[4:4 + m]])
            nxt.append([int(v) for v in row[4 + m:4 + 2 * m]])
    return FullRolloutDataset(
        endo=np.array(endo, dtype=np.int32),
        action=np.array(action, dtype=np.int32),
        reward=np.array(reward, dtype=float),
        next_endo=np.array(next_endo, dtype=np.int32),
        exo=np.array(exo, dtype=_EXO_DTYPE).reshape(len(endo), m),
        next_exo=np.array(nxt, dtype=_EXO_DTYPE).reshape(len(endo), m),
        cardinalities=meta["cards"],
        endo_cardinality=meta["endo"],
        action_count=meta["actions"],
        horizon=meta["horizon"],
        n_rollouts=meta["n_rollouts"],
        seed=meta["seed"],
        policy_tag=meta["policy"],
    )


def _parse_meta(header: str, magic: str) -> dict:
    if not header.startswith(f"# {magic}"):
        raise ValueError(f"not a {magic} file: {header!r}")
    # policy= is the last field and its tag may contain spaces
    fields, found, policy = header.rstrip("\r\n").partition(" policy=")
    out = {"policy": policy} if found else {}
    for token in fields[1:].split()[1:]:
        key, _, value = token.partition("=")
        if key == "cards":
            out[key] = tuple(int(v) for v in value.split(","))
        else:
            out[key] = int(value)
    return out
