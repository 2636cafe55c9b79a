"""Restart strategies for run-until-threshold stochastic processes.

Models any seeded run-until-success computation as a Las Vegas algorithm,
diagnoses heavy-tailed runtime distributions, and computes and executes
restart schedules that cut the expected completion time. Ships a
from-scratch single-hidden-layer MLP trainer as the built-in case study.

Each name below is imported from its submodule on first access (PEP 562),
so `import restartkit` loads neither the MLP nor the process pool, and
neither do the commands that only read a run log.
"""

import importlib

__version__ = "0.1.0"

# Largest censoring cap: a sample keeps its epochs in an int64 column. It is
# defined here, not in `runner`, so the CLI checks its flags without numpy.
MAX_CAP = 2**63 - 1

# The submodule that defines each exported name.
_EXPORTS = {
    name: module
    for module, names in {
        "dataset": "Dataset FoldSplit kfold_split load_thyroid save_thyroid scale_min_max",
        "errors": "AllTrialsFailedError DegenerateTailError InsufficientDataError ParseError "
        "RunLogFormatError",
        "mlp": "MlpConfig MlpProcess MlpState backprop_gradients init_weights",
        "runner": "LasVegasProcess RunBlock RunRecord RunSample SummaryStats collect_runs "
        "derive_seed load_runs save_runs summary_stats",
        "strategies": "FixedSchedule LubySchedule McResult RestartSchedule StrategyOutcome "
        "WalshSchedule evaluate_strategy_mc expected_time_curve fixed_cutoff_expected_time "
        "luby_term optimal_cutoff parse_schedule run_schedules",
        "synth": "Constant DiscretePareto Geometric SyntheticLaw SyntheticProcess TwoPoint "
        "exact_ecdf parse_law",
        "tailstats": "Ecdf empirical_cdf expected_remaining hill_estimator hill_from_values "
        "loglog_tail_slope remaining_time_profile restart_profitable survival_table",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # An unknown name raises AttributeError, which lets `from restartkit
    # import mlp` fall through to importing the submodule.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
