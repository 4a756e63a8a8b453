"""Variance-minimizing adaptive sampling for experience replay.

A replay buffer learns, online, which stored trajectories to sample so the
policy-gradient estimator has the smallest variance: per-slot squared
gradient losses feed square-root FTRL accumulators, the resulting closed-form
distribution is mixed with uniform for bounded feedback, and periodic resets
track buffer churn.  Closed-form competitor oracles, regret accounting, toy
tabular policy-gradient loops, and a deterministic experiment harness verify
the construction end to end.
"""

__version__ = "0.1.0"

from .envs import (
    TabularEnv,
    chain_env,
    exact_policy_value,
    gridworld_env,
    optimal_value,
    two_state_bandit_env,
)
from .gradients import (
    TrajectoryGradients,
    gradient_variance,
    replay_gradient,
    trajectory_gradients,
    trajectory_return,
    variance_objective,
)
from .metrics import MetricsRow, compute_metrics, moving_average
from .policies import LinearSoftmaxPolicy, TabularSoftmaxPolicy
from .regret import (
    CompetitorResult,
    LossBoundCheck,
    RegretLedger,
    best_static_cost,
    check_loss_bound,
    drifting_sequence,
    dynamic_competitor,
    min_step_cost,
    run_regret_experiment,
    scaled_noise_sequence,
    static_competitor,
    stationary_sequence,
)
from .sampler import SamplerConfig, SamplerState
from .simplex import OracleFailure, minimize_on_simplex, project_to_simplex
from .store import Episode, NotReadyError, Trajectory, TrajectoryBatch, WeightedStore
from .sumtree import SumTree
from .training import MODES, TrainingConfig, TrainingTrace, run_group, run_training

__all__ = [
    "CompetitorResult",
    "Episode",
    "LossBoundCheck",
    "LinearSoftmaxPolicy",
    "MODES",
    "MetricsRow",
    "NotReadyError",
    "OracleFailure",
    "RegretLedger",
    "SamplerConfig",
    "SamplerState",
    "SumTree",
    "TabularEnv",
    "TabularSoftmaxPolicy",
    "TrainingConfig",
    "TrainingTrace",
    "Trajectory",
    "TrajectoryBatch",
    "TrajectoryGradients",
    "WeightedStore",
    "best_static_cost",
    "chain_env",
    "check_loss_bound",
    "compute_metrics",
    "drifting_sequence",
    "dynamic_competitor",
    "exact_policy_value",
    "gradient_variance",
    "gridworld_env",
    "min_step_cost",
    "minimize_on_simplex",
    "moving_average",
    "optimal_value",
    "project_to_simplex",
    "replay_gradient",
    "run_group",
    "run_regret_experiment",
    "run_training",
    "scaled_noise_sequence",
    "static_competitor",
    "stationary_sequence",
    "trajectory_gradients",
    "trajectory_return",
    "two_state_bandit_env",
    "variance_objective",
]
