"""Restart strategies for run-until-threshold stochastic processes.

Models any seeded run-until-success computation as a Las Vegas algorithm,
diagnoses heavy-tailed runtime distributions, and computes and executes
restart schedules that cut the expected completion time. Ships a
from-scratch single-hidden-layer MLP trainer as the built-in case study.
"""

from .dataset import Dataset, FoldSplit, kfold_split, load_thyroid, save_thyroid, scale_min_max
from .errors import (
    AllTrialsFailedError,
    DegenerateTailError,
    InsufficientDataError,
    ParseError,
    RunLogFormatError,
)
from .mlp import MlpConfig, MlpProcess, MlpState, backprop_gradients, init_weights
from .runner import (
    LasVegasProcess,
    RunBlock,
    RunRecord,
    RunSample,
    SummaryStats,
    collect_runs,
    derive_seed,
    load_runs,
    save_runs,
    summary_stats,
)
from .strategies import (
    FixedSchedule,
    LubySchedule,
    McResult,
    RestartSchedule,
    StrategyOutcome,
    WalshSchedule,
    evaluate_strategy_mc,
    expected_time_curve,
    fixed_cutoff_expected_time,
    luby_term,
    optimal_cutoff,
    parse_schedule,
    run_schedules,
)
from .synth import (
    Constant,
    DiscretePareto,
    Geometric,
    SyntheticLaw,
    SyntheticProcess,
    TwoPoint,
    exact_ecdf,
    parse_law,
)
from .tailstats import (
    Ecdf,
    empirical_cdf,
    expected_remaining,
    hill_estimator,
    hill_from_values,
    loglog_tail_slope,
    remaining_time_profile,
    restart_profitable,
    survival_table,
)

__version__ = "0.1.0"
