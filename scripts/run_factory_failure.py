#!/usr/bin/env python3
"""Show the greedy failure mode on the task-stream domain.

Three task variables pay off only jointly, so greedy forward selection
from the empty mask never sees an improvement and quits with nothing,
while the variance screen (phase one of the correlational search) finds
all three at once. Prints task success counts for both masks.
"""

import argparse

from exomdp.domains import build_factory
from exomdp.estimation import estimate_reward_variables, fit_reduced_mdp
from exomdp.planner import count_positive_reward_steps, value_iteration
from exomdp.search import FitBudget, SearchParams, collect_search_datasets, mask_greedy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--rollouts", type=int, default=500)
    parser.add_argument("--lam", type=float, default=0.1)
    args = parser.parse_args()

    mdp = build_factory()
    params = SearchParams(
        n_rollouts=300,
        fit=FitBudget(
            n_exo_rollouts=500, exo_horizon=40, n_full_rollouts=500, full_horizon=40
        ),
    )
    greedy_mask, trace = mask_greedy(mdp, args.lam, params, args.seed)
    phase1_mask = estimate_reward_variables(mdp, 0.0)
    print(f"greedy mask:         {greedy_mask.included} "
          f"(stopped: {trace.terminal_reason})")
    print(f"variance-screen mask: {phase1_mask.included}")

    datasets = collect_search_datasets(mdp, params, args.seed)
    for name, mask in (("greedy", greedy_mask), ("variance-screen", phase1_mask)):
        model = fit_reduced_mdp(mdp, mask, datasets.exo, datasets.full)
        policy = value_iteration(model, params.vi_epsilon, 60.0).policy
        hits = count_positive_reward_steps(mdp, policy, args.rollouts, 40, seed=77)
        print(f"{name:16s} successes: {hits} across {args.rollouts} rollouts")


if __name__ == "__main__":
    main()
