#!/usr/bin/env python3
"""Learn crowd-domain masks for two goals and compare their shapes.

With a manipulable goal object, predicting where it will end up requires
tracking the agents that carry it, so the learned mask should include an
agent variable. With a static goal object the agents are irrelevant and
stay out of the mask.
"""

import argparse
from collections import Counter

from exomdp.domains import build_preset
from exomdp.experiment import modal_mask
from exomdp.search import FitBudget, SearchParams, mask_correlational


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--lam", type=float, default=0.05)
    parser.add_argument("--mi-threshold", type=float, default=0.02)
    args = parser.parse_args()

    params = SearchParams(
        n_rollouts=800,
        fit=FitBudget(
            n_exo_rollouts=1500, exo_horizon=60, n_full_rollouts=1000, full_horizon=50
        ),
    )
    for label, overrides in (
        ("manipulable goal", {}),
        ("static goal", {"goal_object": 1}),
    ):
        mdp = build_preset("crowd-desk", overrides, seed=0)
        agent_vars = set(mdp.agent_variable_ids())
        masks = []
        for trial in range(args.trials):
            mask, _ = mask_correlational(
                mdp, args.mi_threshold, 0.0, args.lam, params, seed=trial
            )
            masks.append(mask.included)
        modal = tuple(modal_mask(masks))
        print(f"{label}: modal mask {modal} over {args.trials} trials "
              f"({dict(Counter(masks))})")
        print(f"  includes agent variables: {bool(set(modal) & agent_vars)}")


if __name__ == "__main__":
    main()
