"""Mask learning: scoring masks and searching the subset lattice.

A mask is scored by its regularized objective: the mean true-environment
return of the policy planned in the mask's reduced model, minus a cost
penalty on the mask. Three searches are provided: exhaustive brute force,
random-order greedy forward selection, and a two-phase correlational
search that seeds the mask with reward-relevant variables and then grows
it along transition mutual information.

All masks within one search are scored under a common random-number
schedule (identical rollout seeds), so score comparisons are not dominated
by sampling noise.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_STATE_BUDGET,
    ExomdpError,
    GenerativeMdp,
    Mask,
    TabularFullMdp,
    UnsupportedMdpError,
    truncation_horizon,
)
from .estimation import (
    ExoRolloutDataset,
    FullRolloutDataset,
    collect_exo_rollouts,
    collect_full_rollouts,
    estimate_reward_variables,
    exact_reduced_model,
    fit_reduced_mdp,
    transition_mutual_information,
)
from .planner import (
    exact_policy_evaluation,
    lift_reduced_values,
    monte_carlo_value,
    value_iteration,
)

TERMINAL_OBJECTIVE_DECREASED = "objective-decreased"
TERMINAL_MI_BELOW_THRESHOLD = "mi-below-threshold"
TERMINAL_EXHAUSTED = "exhausted"
TERMINAL_BUDGET = "budget"


def mask_size_cost(mask: Mask) -> float:
    """Default mask regularizer: the number of retained variables."""
    return float(len(mask))


@dataclass(frozen=True)
class FitBudget:
    """Rollout budgets for fitting reduced models."""

    n_exo_rollouts: int = 1000
    exo_horizon: int = 50
    n_full_rollouts: int = 1000
    full_horizon: int = 50
    smoothing: float = 0.0


@dataclass
class SearchParams:
    """Budgets and knobs shared by the mask searches.

    ``mc_horizon=None`` derives the rollout horizon from the truncation
    tolerance so the discarded tail is below ``truncation_tol``.
    """

    n_rollouts: int = 500
    mc_horizon: int | None = None
    truncation_tol: float = 1e-3
    fit: FitBudget = field(default_factory=FitBudget)
    vi_epsilon: float = 1e-4
    vi_timeout: float = 60.0
    cost_fn: Callable[[Mask], float] = mask_size_cost
    state_budget: int = DEFAULT_STATE_BUDGET
    brute_force_limit: int = 20
    greedy_retry_all: bool = False
    max_additions: int | None = None


@dataclass(frozen=True)
class MaskScore:
    """Score of one mask: ``objective = mean_return - lam * cost``."""

    mask: Mask
    objective: float
    mean_return: float
    cost: float
    lam: float
    wall_time: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "mask": list(self.mask.included),
            "objective": self.objective,
            "mean_return": self.mean_return,
            "cost": self.cost,
            "lam": self.lam,
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    mask: Mask
    mi_scores: dict[int, float] | None
    accepted: bool
    score: MaskScore | None

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "mask": list(self.mask.included),
            "mi_scores": (
                {str(k): v for k, v in sorted(self.mi_scores.items())}
                if self.mi_scores is not None
                else None
            ),
            "accepted": self.accepted,
            "score": self.score.to_dict() if self.score is not None else None,
        }


@dataclass
class SearchTrace:
    """Per-iteration search diagnostics; serializes to line-delimited JSON."""

    entries: list[TraceEntry] = field(default_factory=list)
    terminal_reason: str = ""

    def add(self, entry: TraceEntry) -> None:
        if self.entries and entry.iteration <= self.entries[-1].iteration:
            raise ValueError("trace iterations must be strictly increasing")
        self.entries.append(entry)

    def best_score(self) -> MaskScore | None:
        scored = [e.score for e in self.entries if e.score is not None]
        return max(scored, key=lambda s: s.objective) if scored else None

    def to_jsonl(self) -> str:
        lines = [json.dumps(e.to_dict(), sort_keys=True) for e in self.entries]
        lines.append(json.dumps({"terminal_reason": self.terminal_reason}))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "SearchTrace":
        trace = cls()
        for line in text.strip().splitlines():
            row = json.loads(line)
            if "terminal_reason" in row:
                trace.terminal_reason = row["terminal_reason"]
                continue
            score = row["score"]
            trace.entries.append(
                TraceEntry(
                    iteration=row["iteration"],
                    mask=Mask(tuple(row["mask"])),
                    mi_scores=(
                        {int(k): v for k, v in row["mi_scores"].items()}
                        if row["mi_scores"] is not None
                        else None
                    ),
                    accepted=row["accepted"],
                    score=(
                        MaskScore(
                            mask=Mask(tuple(score["mask"])),
                            objective=score["objective"],
                            mean_return=score["mean_return"],
                            cost=score["cost"],
                            lam=score["lam"],
                        )
                        if score is not None
                        else None
                    ),
                )
            )
        return trace


# Seed-stream ids: every search derives its sub-seeds the same way, which
# is what makes scores comparable across masks and across algorithms.
_STREAM_EXO = 0
_STREAM_FULL = 1
_STREAM_MC = 2
_STREAM_PHASE1 = 3
_STREAM_ORDER = 4


def derive_seed(seed: int, stream: int) -> int:
    return int(
        np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(1)[0]
    )


@dataclass(frozen=True)
class SearchDatasets:
    """Shared rollout data for scoring every mask within one search."""

    exo: ExoRolloutDataset
    full: FullRolloutDataset
    mc_seed: int


def collect_search_datasets(
    mdp: GenerativeMdp, params: SearchParams, seed: int
) -> SearchDatasets:
    fit = params.fit
    exo = collect_exo_rollouts(
        mdp, fit.n_exo_rollouts, fit.exo_horizon, seed=derive_seed(seed, _STREAM_EXO)
    )
    full = collect_full_rollouts(
        mdp,
        None,
        fit.n_full_rollouts,
        fit.full_horizon,
        seed=derive_seed(seed, _STREAM_FULL),
    )
    return SearchDatasets(exo=exo, full=full, mc_seed=derive_seed(seed, _STREAM_MC))


def _mc_horizon(mdp: GenerativeMdp, params: SearchParams) -> int:
    if params.mc_horizon is not None:
        return params.mc_horizon
    return truncation_horizon(mdp.discount, mdp.r_max, params.truncation_tol)


def estimate_objective(
    mdp: GenerativeMdp,
    mask: Mask,
    lam: float,
    params: SearchParams | None = None,
    seed: int = 0,
    datasets: SearchDatasets | None = None,
) -> MaskScore:
    """Fit, plan, and roll out one mask; return its regularized score.

    Fits the reduced model from rollout data, solves it with value
    iteration, executes the resulting policy in the full MDP for
    ``params.n_rollouts`` rollouts, and returns the mean return minus
    ``lam * cost``. Passing ``datasets`` reuses previously collected data;
    omitting it collects data deterministically from ``seed``, so repeated
    calls with the same arguments give identical scores.
    """
    params = params or SearchParams()
    t0 = time.perf_counter()
    if datasets is None:
        datasets = collect_search_datasets(mdp, params, seed)
    model = fit_reduced_mdp(
        mdp,
        mask,
        datasets.exo,
        datasets.full,
        smoothing=params.fit.smoothing,
        state_budget=params.state_budget,
    )
    plan = value_iteration(model, params.vi_epsilon, params.vi_timeout)
    mean, _ = monte_carlo_value(
        mdp,
        plan.policy,
        params.n_rollouts,
        _mc_horizon(mdp, params),
        seed=datasets.mc_seed,
    )
    cost = params.cost_fn(mask)
    return MaskScore(
        mask=mask,
        objective=mean - lam * cost,
        mean_return=mean,
        cost=cost,
        lam=lam,
        wall_time=time.perf_counter() - t0,
    )


def _better(a: MaskScore, b: MaskScore | None) -> bool:
    """Score ordering: higher objective, ties to smaller then lexicographically
    earlier masks."""
    if b is None:
        return True
    ka = (-a.objective, len(a.mask), a.mask.included)
    kb = (-b.objective, len(b.mask), b.mask.included)
    return ka < kb


def mask_brute_force(
    mdp: GenerativeMdp,
    lam: float,
    params: SearchParams | None = None,
    seed: int = 0,
) -> tuple[Mask, SearchTrace]:
    """Score every subset of the exogenous variables; return the best.

    Refuses when ``m`` exceeds ``params.brute_force_limit``.
    """
    params = params or SearchParams()
    m = mdp.m
    if m > params.brute_force_limit:
        raise ExomdpError(
            f"brute force over {m} variables needs {2**m} evaluations, "
            f"above the limit of 2**{params.brute_force_limit}"
        )
    datasets = collect_search_datasets(mdp, params, seed)
    trace = SearchTrace()
    best: MaskScore | None = None
    for k, bits in enumerate(range(2**m)):
        mask = Mask(tuple(i for i in range(m) if bits >> i & 1))
        score = estimate_objective(mdp, mask, lam, params, seed, datasets)
        improved = _better(score, best)
        if improved:
            best = score
        trace.add(TraceEntry(k, mask, None, improved, score))
    trace.terminal_reason = TERMINAL_EXHAUSTED
    assert best is not None
    return best.mask, trace


def mask_greedy(
    mdp: GenerativeMdp,
    lam: float,
    params: SearchParams | None = None,
    seed: int = 0,
) -> tuple[Mask, SearchTrace]:
    """Greedy forward selection in uniformly random variable order.

    Starts from the empty mask and adds one variable at a time while the
    objective keeps increasing. By default the first addition that fails
    to increase the objective terminates the search;
    ``params.greedy_retry_all`` instead keeps trying the remaining
    untried variables.
    """
    params = params or SearchParams()
    datasets = collect_search_datasets(mdp, params, seed)
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_STREAM_ORDER,))
    )
    order = list(rng.permutation(mdp.m))
    trace = SearchTrace()
    current = Mask(())
    best = estimate_objective(mdp, current, lam, params, seed, datasets)
    trace.add(TraceEntry(0, current, None, True, best))
    iteration = 1
    terminal = TERMINAL_EXHAUSTED
    for j in order:
        candidate = current.with_variable(int(j))
        score = estimate_objective(mdp, candidate, lam, params, seed, datasets)
        accepted = score.objective > best.objective
        trace.add(TraceEntry(iteration, candidate, None, accepted, score))
        iteration += 1
        if accepted:
            current, best = candidate, score
        else:
            if not params.greedy_retry_all:
                terminal = TERMINAL_OBJECTIVE_DECREASED
                break
    trace.terminal_reason = terminal
    return current, trace


def mask_correlational(
    mdp: GenerativeMdp,
    mi_threshold: float,
    variance_threshold: float,
    n_contexts: int,
    n_settings: int,
    lam: float,
    params: SearchParams | None = None,
    seed: int = 0,
) -> tuple[Mask, SearchTrace]:
    """Two-phase mask search guided by the structure of the MDP.

    Phase 1 screens for variables whose reward component varies (see
    ``estimate_reward_variables``). Phase 2 repeatedly measures, for every
    variable outside the mask, the mutual information between its
    transition pair and the masked transition pair, and adds the highest
    scorer; it stops when the best mutual information falls below
    ``mi_threshold`` or when an addition fails to increase the objective
    (that addition is rolled back).
    """
    params = params or SearchParams()
    datasets = collect_search_datasets(mdp, params, seed)
    mask = estimate_reward_variables(
        mdp,
        variance_threshold,
        n_contexts,
        n_settings,
        seed=derive_seed(seed, _STREAM_PHASE1),
    )
    trace = SearchTrace()
    best = estimate_objective(mdp, mask, lam, params, seed, datasets)
    trace.add(TraceEntry(0, mask, None, True, best))
    iteration = 1
    additions = 0
    while True:
        remaining = [j for j in range(mdp.m) if j not in mask]
        if not remaining:
            trace.terminal_reason = TERMINAL_EXHAUSTED
            break
        if params.max_additions is not None and additions >= params.max_additions:
            trace.terminal_reason = TERMINAL_BUDGET
            break
        mi = {
            j: transition_mutual_information(datasets.exo, mask, j)
            for j in remaining
        }
        j_star = max(remaining, key=lambda j: (mi[j], -j))
        if mi[j_star] < mi_threshold:
            trace.add(TraceEntry(iteration, mask, mi, False, None))
            trace.terminal_reason = TERMINAL_MI_BELOW_THRESHOLD
            break
        candidate = mask.with_variable(j_star)
        score = estimate_objective(mdp, candidate, lam, params, seed, datasets)
        accepted = score.objective > best.objective
        trace.add(TraceEntry(iteration, candidate, mi, accepted, score))
        iteration += 1
        if accepted:
            mask, best = candidate, score
            additions += 1
        else:
            # the failed addition is not kept; the best-scoring prefix wins
            trace.terminal_reason = TERMINAL_OBJECTIVE_DECREASED
            break
    return mask, trace


@dataclass(frozen=True)
class ConditionReport:
    """Exactness conditions for planning with a mask.

    A reduced-model policy is exact for the full MDP when all three hold:
    ``reward_clean``   excluded variables contribute nothing to the reward;
    ``endo_invariant`` endogenous transitions ignore the excluded values;
    ``exo_factorized`` masked and excluded variables transition
                       independently of each other.
    The ``max_*`` fields carry the measured worst-case violations (reward
    magnitude and total-variation distances).
    """

    reward_clean: bool
    endo_invariant: bool
    exo_factorized: bool
    max_excluded_reward: float
    max_endo_tv: float
    max_exo_tv: float

    def all_hold(self) -> bool:
        return self.reward_clean and self.endo_invariant and self.exo_factorized


def _max_pairwise_tv(rows: np.ndarray, axis: int) -> float:
    """Max total-variation distance between any two slices along ``axis``."""
    moved = np.moveaxis(rows, axis, -2)
    diff = moved[..., :, None, :] - moved[..., None, :, :]
    return float(0.5 * np.abs(diff).sum(axis=-1).max()) if diff.size else 0.0


def check_reduction_conditions(
    mdp: TabularFullMdp, mask: Mask, tol: float = 1e-9
) -> ConditionReport:
    """Exhaustively check the three exactness conditions on analytic tables.

    Raises ``UnsupportedMdpError`` for black-box MDPs; those only admit the
    statistical action-independence check from the core module.
    """
    if not isinstance(mdp, TabularFullMdp):
        raise UnsupportedMdpError(
            "condition checking needs analytic transition tables"
        )
    excluded = mask.complement(mdp.m)

    max_reward = 0.0
    for i in excluded:
        table = mdp.reward_tables[i]
        if table.size:
            max_reward = max(max_reward, float(np.abs(table).max()))

    pos, xm, xc = mdp.mask_split(mask)
    inv = np.argsort(pos)  # pos is a bijection on exo codes

    endo_grouped = mdp.endo_kernel[:, :, inv, :].reshape(
        mdp.endo_cardinality, mdp.action_count, xm, xc, mdp.endo_cardinality
    )
    max_endo_tv = _max_pairwise_tv(endo_grouped, axis=3)

    joint = mdp.exo_kernel[np.ix_(inv, inv)].reshape(xm, xc, xm, xc)
    marg_m = joint.sum(axis=3)  # (xm, xc, xm'): masked-next given (m, c)
    marg_c = joint.sum(axis=2)  # (xm, xc, xc')
    tv_m = _max_pairwise_tv(marg_m, axis=1)  # masked marginal must ignore c
    tv_c = _max_pairwise_tv(np.moveaxis(marg_c, 0, 1), axis=1)
    product = marg_m[:, :, :, None] * marg_c[:, :, None, :]
    tv_prod = float(0.5 * np.abs(joint - product).sum(axis=(2, 3)).max())
    max_exo_tv = max(tv_m, tv_c, tv_prod)

    return ConditionReport(
        reward_clean=max_reward < tol,
        endo_invariant=max_endo_tv < tol,
        exo_factorized=max_exo_tv < tol,
        max_excluded_reward=max_reward,
        max_endo_tv=max_endo_tv,
        max_exo_tv=max_exo_tv,
    )


def verify_reduction_value_equality(
    mdp: TabularFullMdp,
    mask: Mask,
    tol: float = 1e-6,
    condition_tol: float = 1e-9,
) -> bool:
    """Check that the reduced-model optimal policy is exact for the full MDP.

    Requires the three exactness conditions to hold (raises otherwise).
    Plans optimally in the exactly-constructed reduced model, then compares
    the policy's value in the reduced model against its value in the full
    MDP, and that against the optimal full-MDP value, at every full state.
    """
    report = check_reduction_conditions(mdp, mask, tol=condition_tol)
    if not report.all_hold():
        raise ExomdpError(
            "exactness conditions do not hold for this mask: "
            f"{report}"
        )
    eval_tol = min(1e-12, tol * 1e-4)
    vi_eps = min(1e-10, tol * 1e-3)

    reduced = exact_reduced_model(mdp, mask)
    plan = value_iteration(reduced, epsilon=vi_eps, timeout=600.0)
    v_reduced = exact_policy_evaluation(reduced, plan.policy, tol=eval_tol)
    v_full = exact_policy_evaluation(mdp, plan.policy, tol=eval_tol)
    lifted = lift_reduced_values(v_reduced, mdp)
    err_equality = float(np.abs(lifted - v_full.values).max())

    full_model = exact_reduced_model(mdp, Mask.full(mdp.m))
    star_plan = value_iteration(full_model, epsilon=vi_eps, timeout=600.0)
    v_star = exact_policy_evaluation(mdp, star_plan.policy, tol=eval_tol)
    err_optimal = float(np.abs(v_full.values - v_star.values).max())

    return err_equality < tol and err_optimal < tol
