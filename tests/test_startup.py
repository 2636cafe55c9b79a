"""What a fresh interpreter loads: the package's lazy exports and each command's imports."""

import importlib
import os
import subprocess
import sys

import pytest

import restartkit
from restartkit.cli import main

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# Print what a fresh interpreter has loaded after `import restartkit` and,
# given arguments, after `cli.main` runs them, also when argparse exits.
_SCRIPT = """
import sys
import restartkit
try:
    if sys.argv[1:]:
        from restartkit.cli import main
        sys.exit(main(sys.argv[1:]))
finally:
    print(" ".join(sorted(sys.modules)))
"""

POOL = "concurrent.futures.process"


def loaded_modules(*argv: str, status: int = 0) -> set[str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == status, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def stub_log(tmp_path_factory):
    log = tmp_path_factory.mktemp("startup") / "runs.jsonl"
    argv = ["collect", "--stub", "discrete-pareto:0.8", "--runs", "300", "--seed", "5"]
    assert main([*argv, "--out", str(log)]) == 0
    return str(log)


def test_import_loads_no_submodule_that_computes():
    modules = loaded_modules()
    for name in ("dataset", "mlp", "runner", "strategies", "synth", "tailstats"):
        assert f"restartkit.{name}" not in modules
    assert POOL not in modules


@pytest.mark.parametrize("command", ["tail", "optimize"])
def test_log_commands_load_neither_mlp_nor_pool(stub_log, command):
    modules = loaded_modules(command, "--runs-file", stub_log)
    for name in ("restartkit.mlp", "restartkit.dataset", "restartkit.synth", POOL):
        assert name not in modules


@pytest.mark.parametrize(
    "argv, status",
    [(["--help"], 0), (["collect", "--stub", "constant:3", "--runs", "0", "--out", "x"], 2)],
    ids=["help", "usage-error"],
)
def test_help_and_usage_errors_load_no_numpy(argv, status):
    assert "numpy" not in loaded_modules(*argv, status=status)


def test_stub_collect_loads_no_mlp(tmp_path):
    log = str(tmp_path / "runs.jsonl")
    modules = loaded_modules("collect", "--stub", "geometric:0.1", "--runs", "5", "--out", log)
    assert "restartkit.synth" in modules
    assert "restartkit.mlp" not in modules and "restartkit.dataset" not in modules


# The package's exports, by the submodule that defines them.
EXPORTS = {
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
}


def test_every_export_is_its_submodules_object():
    by_name = {name: module for module, names in EXPORTS.items() for name in names.split()}
    assert len(by_name) == 56
    assert sorted(restartkit.__all__) == sorted(by_name)
    listed = set(dir(restartkit))
    for name, module in by_name.items():
        submodule = importlib.import_module(f"restartkit.{module}")
        assert getattr(restartkit, name) is getattr(submodule, name)
        assert name in listed
    with pytest.raises(AttributeError):
        restartkit.no_such_name  # noqa: B018
