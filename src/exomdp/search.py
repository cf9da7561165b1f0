"""Mask learning: scoring masks and searching the subset lattice.

A mask is scored by its regularized objective: the mean true-environment
return of the policy planned in the mask's reduced model, minus a cost
penalty on the mask. Three searches are provided: exhaustive brute force,
random-order greedy forward selection, and a two-phase correlational
search that seeds the mask with reward-relevant variables and then grows
it along transition mutual information.

All masks within one search are scored under a common random-number
schedule (identical rollout seeds), so score comparisons are not dominated
by sampling noise. Each search collects its datasets once and scores each
mask once.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_STATE_BUDGET,
    ExomdpError,
    ExoTrajectory,
    GenerativeMdp,
    Mask,
    StateSpaceTooLargeError,
    TabularFullMdp,
    UnsupportedMdpError,
    exo_trajectory,
    reduced_space_for,
    rollout_returns,
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
    PlanResult,
    ValueTable,
    exact_policy_evaluation,
    monte_carlo_value,
    value_iteration,
)

TERMINAL_OBJECTIVE_DECREASED = "objective-decreased"
TERMINAL_MI_BELOW_THRESHOLD = "mi-below-threshold"
TERMINAL_EXHAUSTED = "exhausted"

# The Monte Carlo horizon, when not set, truncates a tail below this bound.
TRUNCATION_TOL = 1e-3
# Brute force refuses MDPs with more exogenous variables than this.
BRUTE_FORCE_LIMIT = 20

logger = logging.getLogger(__name__)


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
    """Budgets shared by the mask searches; a mask costs its size.

    Each mask is scored by ``n_rollouts`` Monte Carlo rollouts of
    ``mc_horizon`` steps (None: the horizon whose discarded tail is below
    ``TRUNCATION_TOL``). ``state_budget`` bounds every reduced space.
    """

    n_rollouts: int = 500
    mc_horizon: int | None = None
    fit: FitBudget = field(default_factory=FitBudget)
    vi_epsilon: float = 1e-4
    vi_timeout: float = 60.0
    state_budget: int = DEFAULT_STATE_BUDGET


@dataclass(frozen=True)
class MaskScore:
    """Score of one mask: ``objective = mean_return - lam * cost``."""

    mask: Mask
    objective: float
    mean_return: float
    cost: float
    lam: float

    @classmethod
    def of(cls, mask: Mask, mean_return: float, lam: float) -> "MaskScore":
        """The score of ``mask`` at ``mean_return``; a mask costs its size."""
        cost = float(len(mask))
        return cls(mask, mean_return - lam * cost, mean_return, cost, lam)

    def to_dict(self) -> dict:
        return {
            "mask": list(self.mask.included),
            "objective": self.objective,
            "mean_return": self.mean_return,
            "cost": self.cost,
            "lam": self.lam,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MaskScore":
        """Inverse of ``to_dict``; other keys, such as the ``wall_time`` of
        older records, are ignored."""
        return cls(
            mask=Mask(tuple(data["mask"])),
            objective=data["objective"],
            mean_return=data["mean_return"],
            cost=data["cost"],
            lam=data["lam"],
        )


@dataclass(frozen=True)
class TraceEntry:
    mask: Mask
    mi_scores: dict[int, float] | None
    accepted: bool
    score: MaskScore | None

    def to_dict(self) -> dict:
        return {
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
    """Per-iteration search diagnostics; serializes to line-delimited JSON,
    each entry's line carrying its position as ``iteration``."""

    entries: list[TraceEntry] = field(default_factory=list)
    terminal_reason: str = ""

    def best_score(self) -> MaskScore | None:
        scored = [e.score for e in self.entries if e.score is not None]
        return max(scored, key=lambda s: s.objective) if scored else None

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({"iteration": i, **e.to_dict()}, sort_keys=True)
            for i, e in enumerate(self.entries)
        ]
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
                    mask=Mask(tuple(row["mask"])),
                    mi_scores=(
                        {int(k): v for k, v in row["mi_scores"].items()}
                        if row["mi_scores"] is not None
                        else None
                    ),
                    accepted=row["accepted"],
                    score=MaskScore.from_dict(score) if score is not None else None,
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
    """Shared rollout data for scoring every mask within one search; ``mc``
    is the exo chain of ``mc_seed``, stepped once for every mask's rollouts.

    ``returns`` keeps the ``planner.monte_carlo_value`` of each policy
    rolled out on ``mc``, keyed by the policy lifted onto the chain's
    distinct exo vectors (``ExoTrajectory.lift_policy``, one byte an entry
    for up to 256 actions): two policies equal there take the same action
    at every visited state, so under common random numbers they return the
    same bytes, and each is rolled out once.
    """

    exo: ExoRolloutDataset
    full: FullRolloutDataset
    mc_seed: int
    mc: ExoTrajectory
    returns: dict = field(default_factory=dict, repr=False, compare=False)

    def monte_carlo_values(
        self, mdp: GenerativeMdp, policies, n_rollouts: int, horizon: int
    ) -> list[tuple[float, np.ndarray]]:
        """``planner.monte_carlo_value`` of each of ``policies`` on ``mc``:
        the distinct lifted policies not rolled out yet are, together, in one
        ``core.rollout_returns`` call."""
        keys, new = [], {}
        for policy in policies:
            key = (n_rollouts, horizon, self.mc.lift_policy(policy).tobytes())
            keys.append(key)
            if key not in self.returns:
                new.setdefault(key, policy)
        todo = list(new.values())
        batch = rollout_returns(mdp, todo, n_rollouts, horizon, trajectory=self.mc)
        for key, returns in zip(new, batch):
            self.returns[key] = float(returns.mean()), returns
        return [self.returns[key] for key in keys]


def collect_search_datasets(
    mdp: GenerativeMdp, params: SearchParams, seed: int
) -> SearchDatasets:
    exo, full = _collect_fit_datasets(mdp, params, seed)
    mc_seed = derive_seed(seed, _STREAM_MC)
    mc = exo_trajectory(mdp, params.n_rollouts, _mc_horizon(mdp, params), mc_seed)
    return SearchDatasets(exo=exo, full=full, mc_seed=mc_seed, mc=mc)


def _collect_fit_datasets(mdp: GenerativeMdp, params: SearchParams, seed: int):
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
    return exo, full


@dataclass
class WarmStart:
    """The values of the last mask scored with it, from which value iteration
    starts on the next. Forward selection stops at its first rejected mask,
    so along it these are the incumbent's values."""

    values: ValueTable | None = None


def _mc_horizon(mdp: GenerativeMdp, params: SearchParams) -> int:
    if params.mc_horizon is not None:
        return params.mc_horizon
    return truncation_horizon(mdp.discount, mdp.r_max, TRUNCATION_TOL)


def estimate_objective(
    mdp: GenerativeMdp,
    mask: Mask,
    lam: float,
    params: SearchParams | None = None,
    seed: int = 0,
    datasets: SearchDatasets | None = None,
    warm: WarmStart | None = None,
) -> MaskScore:
    """Fit, plan, and roll out one mask; return its regularized score.

    Fits the reduced model from rollout data, solves it with value
    iteration, executes the resulting policy in the full MDP for
    ``params.n_rollouts`` rollouts, and returns the mean return minus
    ``lam * cost``. Passing ``datasets`` reuses previously collected data,
    and the returns of any policy already rolled out on them that acts the
    same at every state they visit; omitting it collects those of
    ``collect_search_datasets(mdp, params, seed)``, so repeated calls with
    the same arguments give identical scores.
    ``warm`` starts value iteration from a sub-mask's values (``WarmStart``).
    It is the one-mask case of brute force's two passes.
    """
    params = params or SearchParams()
    if datasets is None:
        fit_data = _collect_fit_datasets(mdp, params, seed)
    else:
        fit_data = datasets.exo, datasets.full
    model = _fit(mdp, mask, params, fit_data)
    del fit_data  # a fixed mask's datasets are freed before value iteration
    plan = _plan(model, params, warm.values if warm else None)
    del model  # and its model before Monte Carlo: the plan holds no reference
    if warm:
        warm.values = plan.values
    policy, mc = plan.policy, (params.n_rollouts, _mc_horizon(mdp, params))
    if datasets is None:
        mean, _ = monte_carlo_value(mdp, policy, *mc, derive_seed(seed, _STREAM_MC))
    else:
        [(mean, _)] = datasets.monte_carlo_values(mdp, [policy], *mc)
    return MaskScore.of(mask, mean, lam)


def _fit(mdp: GenerativeMdp, mask: Mask, params: SearchParams, fit_data):
    """The mask's reduced model fitted from the ``(exo, full)`` datasets."""
    return fit_reduced_mdp(
        mdp,
        mask,
        *fit_data,
        smoothing=params.fit.smoothing,
        state_budget=params.state_budget,
    )


def _plan(model, params: SearchParams, start: ValueTable | None) -> PlanResult:
    """Value iteration on ``model``, from ``start`` (values over a sub-mask,
    lifted by ``ValueTable.lift``) or from zeros; a plan stopped by the
    timeout before its span test passed is logged and kept."""
    initial = start.lift(model.space) if start is not None else None
    plan = value_iteration(model, params.vi_epsilon, params.vi_timeout, initial)
    if not plan.converged:
        logger.warning(
            "value iteration for mask %s stopped unconverged after %d sweeps, at "
            "the timeout before the span test passed (last max-norm residual "
            "%.3g); scoring its policy anyway",
            model.mask.included,
            len(plan.residuals),
            plan.residuals[-1],
        )
    return plan


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

    Mask ``b`` holds variable ``i`` where bit ``i`` of ``b`` is set, and the
    masks are scored in two passes over ``b = 0 .. 2**m - 1``:

    1. each mask is fitted and planned. Value iteration starts from the
       values of its parent, the mask without its highest variable (a
       smaller ``b``, so planned already), lifted by ``ValueTable.lift``; the
       empty mask starts from zeros. A mask whose reduced space exceeds
       ``params.state_budget`` is not fitted: its trace entry has no score
       and is not accepted, and the search goes on;
    2. one ``SearchDatasets.monte_carlo_values`` call rolls out every
       distinct lifted policy together on the search's exo chain.

    Refuses when ``m`` exceeds ``BRUTE_FORCE_LIMIT`` and, with
    ``StateSpaceTooLargeError``, when not even the empty mask fits the budget.
    """
    params = params or SearchParams()
    m = mdp.m
    if m > BRUTE_FORCE_LIMIT:
        raise ExomdpError(
            f"brute force over {m} variables needs {2**m} evaluations, "
            f"above the limit of 2**{BRUTE_FORCE_LIMIT}"
        )
    datasets = collect_search_datasets(mdp, params, seed)
    fit_data = datasets.exo, datasets.full
    masks = [Mask(tuple(i for i in range(m) if b >> i & 1)) for b in range(2**m)]
    plans = {}
    for b, mask in enumerate(masks):
        try:
            reduced_space_for(mdp, mask, params.state_budget)
        except StateSpaceTooLargeError as exc:
            # every super-mask is over it too: a planned mask's parent is planned
            logger.info("brute force skips mask %s: %s", mask.included, exc)
            continue
        parent = plans[b ^ (1 << (b.bit_length() - 1))].values if b else None
        plans[b] = _plan(_fit(mdp, mask, params, fit_data), params, parent)
    if not plans:
        raise StateSpaceTooLargeError(
            f"no mask fits the state budget of {params.state_budget}"
        )
    mc = params.n_rollouts, _mc_horizon(mdp, params)
    values = datasets.monte_carlo_values(mdp, [p.policy for p in plans.values()], *mc)
    scores = {b: MaskScore.of(masks[b], v, lam) for b, (v, _) in zip(plans, values)}
    trace = SearchTrace(terminal_reason=TERMINAL_EXHAUSTED)
    best: MaskScore | None = None
    for b, mask in enumerate(masks):
        score = scores.get(b)
        improved = score is not None and _better(score, best)
        if improved:
            best = score
        trace.entries.append(TraceEntry(mask, None, improved, score))
    return best.mask, trace


def _forward(mdp, start, propose, lam, params, seed, datasets):
    """Forward selection from ``start``, each mask scored by ``estimate_objective``
    on ``datasets`` along one ``WarmStart``. ``propose(mask)`` gives the next
    variable and the mutual information that chose it, if any. A candidate is
    kept only if its objective is strictly higher; the first that is not ends
    the search. A variable of None ends it too: with mutual information, which
    fell below the threshold, in a last unscored entry; without, as none is left.
    """
    warm = WarmStart()
    mask = start
    best = estimate_objective(mdp, mask, lam, params, seed, datasets, warm)
    trace = SearchTrace([TraceEntry(mask, None, True, best)], TERMINAL_EXHAUSTED)
    while True:
        j, mi = propose(mask)
        if j is None:
            if mi is not None:
                trace.entries.append(TraceEntry(mask, mi, False, None))
                trace.terminal_reason = TERMINAL_MI_BELOW_THRESHOLD
            return mask, trace
        candidate = mask.with_variable(j)
        score = estimate_objective(mdp, candidate, lam, params, seed, datasets, warm)
        accepted = score.objective > best.objective
        trace.entries.append(TraceEntry(candidate, mi, accepted, score))
        if not accepted:
            trace.terminal_reason = TERMINAL_OBJECTIVE_DECREASED
            return mask, trace
        mask, best = candidate, score


def mask_greedy(
    mdp: GenerativeMdp,
    lam: float,
    params: SearchParams | None = None,
    seed: int = 0,
) -> tuple[Mask, SearchTrace]:
    """Greedy forward selection in uniformly random variable order.

    Starts from the empty mask and adds one variable at a time while the
    objective keeps increasing; the first addition that fails to increase
    it ends the search and is not kept.
    """
    params = params or SearchParams()
    datasets = collect_search_datasets(mdp, params, seed)
    stream = np.random.SeedSequence(seed, spawn_key=(_STREAM_ORDER,))
    order = iter(np.random.default_rng(stream).permutation(mdp.m).tolist())
    propose = lambda mask: (next(order, None), None)
    return _forward(mdp, Mask(()), propose, lam, params, seed, datasets)


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
    start = estimate_reward_variables(
        mdp,
        variance_threshold,
        n_contexts,
        n_settings,
        seed=derive_seed(seed, _STREAM_PHASE1),
    )

    def propose(mask):
        remaining = [j for j in range(mdp.m) if j not in mask]
        if not remaining:
            return None, None
        mi = {
            j: transition_mutual_information(datasets.exo, mask, j)
            for j in remaining
        }
        j_star = max(remaining, key=lambda j: (mi[j], -j))
        return (None if mi[j_star] < mi_threshold else j_star), mi

    return _forward(mdp, start, propose, lam, params, seed, datasets)


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

    Raises ``UnsupportedMdpError`` for black-box MDPs.
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
    lifted = mdp.lift(v_reduced.space, v_reduced.values).reshape(-1)
    err_equality = float(np.abs(lifted - v_full.values).max())

    full_model = exact_reduced_model(mdp, Mask.full(mdp.m))
    star_plan = value_iteration(full_model, epsilon=vi_eps, timeout=600.0)
    v_star = exact_policy_evaluation(mdp, star_plan.policy, tol=eval_tol)
    err_optimal = float(np.abs(v_full.values - v_star.values).max())

    return err_equality < tol and err_optimal < tol
