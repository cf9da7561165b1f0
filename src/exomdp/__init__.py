"""Mask learning and approximate model minimization for MDPs whose state
splits into an endogenous part and many exogenous variables."""

from .core import (
    DEFAULT_STATE_BUDGET,
    ExomdpError,
    GenerativeMdp,
    InsufficientDataError,
    InvalidMaskError,
    Mask,
    PlannerTimeoutError,
    ReducedSpace,
    StateSpaceTooLargeError,
    TabularFullMdp,
    UnsupportedMdpError,
    VariableSpec,
    truncation_horizon,
)
from .estimation import (
    ExoRolloutDataset,
    FullRolloutDataset,
    TabularReducedMdp,
    collect_exo_rollouts,
    collect_full_rollouts,
    estimate_reward_variables,
    exact_reduced_model,
    fit_reduced_mdp,
    transition_mutual_information,
)
from .planner import (
    PlanResult,
    Policy,
    ValueTable,
    exact_policy_evaluation,
    hoeffding_confidence,
    hoeffding_deviation,
    monte_carlo_value,
    value_iteration,
)
from .search import (
    ConditionReport,
    FitBudget,
    MaskScore,
    SearchParams,
    SearchTrace,
    check_reduction_conditions,
    estimate_objective,
    mask_brute_force,
    mask_correlational,
    mask_greedy,
    verify_reduction_value_equality,
)
from .domains import (
    CrowdSpec,
    FactorySpec,
    GridworldSpec,
    build_crowd,
    build_factory,
    build_gridworld,
    build_preset,
    list_presets,
    random_block_mdp,
)
from .experiment import ExperimentConfig, ResultRecord, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
