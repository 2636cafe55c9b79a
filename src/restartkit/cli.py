"""Command-line surface for the restart toolkit.

Subcommands: `collect` (run a process many times and log the runs),
`tail` (heavy-tail diagnostics over a run log), `optimize` (best fixed
cutoff from a run log), `sweep` (Monte Carlo comparison of restart
schedules), and `restart-run` (trace a single strategy execution).

Every subcommand is deterministic given its flags: all randomness flows
from --seed. Reports go to stdout as tab-separated tables with a header
line; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

# Each command imports the modules it runs, so `tail` and `optimize` never
# load the MLP, and `--help` and argparse errors load no numpy.
from . import MAX_CAP
from .errors import AllTrialsFailedError, InsufficientDataError

_ERRORS = (AllTrialsFailedError, OSError, ValueError)


def _checked(convert, accept, requirement: str, kind: str):
    """Argparse type: `convert` the text, then require `accept(value)`."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1", "an integer")
_nonneg_int = _checked(int, lambda v: v >= 0, ">= 0", "an integer")
_cap = _checked(int, lambda v: 1 <= v <= MAX_CAP, "in [1, 2**63 - 1]", "an integer")
_positive_float = _checked(float, lambda v: v > 0.0, "> 0", "a number")
_fraction = _checked(float, lambda v: 0.0 < v < 1.0, "in (0,1)", "a number")


def _gamma_list(text: str) -> list[float]:
    try:
        gammas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad gamma list: {text!r}") from None
    if not gammas:
        raise argparse.ArgumentTypeError("gamma list is empty")
    for g in gammas:
        if not 1.0 < g < math.inf:
            raise argparse.ArgumentTypeError(f"gamma must be > 1 and finite, got {g}")
    return gammas


_STUB_CAP = 1_000_000


def _add_process_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--data", metavar="PATH", help="ann-format dataset file for the MLP process"
    )
    src.add_argument(
        "--stub",
        metavar="SPEC",
        help="synthetic process, e.g. two-point:0.5:1:10, geometric:0.1, "
        "discrete-pareto:1.5, constant:7",
    )
    # Each flag below applies to one source and defaults to None, so that
    # `_build_process` can reject it when given with the other.
    p.add_argument(
        "--stub-cap",
        type=_cap,
        help=f"censoring cap of plain stub runs, as in collect and sweep's none baseline "
        f"(default {_STUB_CAP}); restart attempts are bounded by --budget instead",
    )
    p.add_argument("--hidden", type=_positive_int, help="hidden units")
    p.add_argument("--delta", type=_positive_float, help="target training error")
    p.add_argument("--lr", type=_positive_float, help="learning rate")
    p.add_argument("--momentum", type=float, help="momentum term")
    p.add_argument("--init", type=float, help="half-width of the uniform weight init")
    p.add_argument(
        "--max-epochs",
        type=_cap,
        help="censoring cap of plain training runs, as in collect and sweep's none "
        "baseline; restart attempts are bounded by --budget instead",
    )
    p.add_argument(
        "--no-scale",
        action="store_true",
        default=None,
        help="skip min-max feature scaling",
    )
    p.add_argument(
        "--folds",
        type=_positive_int,
        default=None,
        help="number of cross-validation folds; train on one fold's training part",
    )
    p.add_argument(
        "--fold",
        type=_nonneg_int,
        default=None,
        help="which fold's training partition to use (needs --folds; default 0)",
    )


# The MlpConfig field each `--data` flag sets, by argparse dest.
_MLP_FIELDS = {
    "hidden": "n_hidden",
    "delta": "target_error",
    "lr": "learning_rate",
    "momentum": "momentum",
    "init": "init_half_width",
    "max_epochs": "max_epochs",
}
# Flags that only one source reads, by the source that reads them.
_DATA_ONLY = [*_MLP_FIELDS, "no_scale", "folds", "fold"]
_STUB_ONLY = ["stub_cap"]


def _build_process(args: argparse.Namespace) -> runner.LasVegasProcess:
    if args.fold is not None and args.folds is None:
        raise ValueError("--fold needs --folds")
    source, other = ("--stub", _DATA_ONLY) if args.stub is not None else ("--data", _STUB_ONLY)
    for dest in other:
        if getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} does not apply to {source}")
    if args.stub is not None:
        from . import synth

        cap = _STUB_CAP if args.stub_cap is None else args.stub_cap
        return synth.SyntheticProcess(law=synth.parse_law(args.stub), cap_epochs=cap)
    from . import dataset as ds
    from . import mlp

    data = ds.load_thyroid(args.data)
    notes = []
    if args.no_scale:
        notes.append("no-scale")
    else:
        data = ds.scale_min_max(data)
    if args.folds is not None:
        fold = 0 if args.fold is None else args.fold
        if fold >= args.folds:
            raise ValueError(f"--fold must be < --folds, got {fold}")
        split = ds.kfold_split(data.n_rows, args.folds, args.seed)[fold]
        data = data.subset(split.train_indices)
        notes.append(f"fold={fold}/{args.folds}")
    given = {
        field: getattr(args, dest)
        for dest, field in _MLP_FIELDS.items()
        if getattr(args, dest) is not None
    }
    cfg = mlp.MlpConfig(n_inputs=data.n_features, n_outputs=data.n_outputs, **given)
    if cfg.init_half_width == 0.0:
        raise ValueError("--init must be > 0: at 0 every seed trains the same run")
    return mlp.MlpProcess(cfg=cfg, data=data, note=",".join(notes))


def _budget(args: argparse.Namespace, process: runner.LasVegasProcess) -> int:
    """`--budget`, by default 20 cutoffs at the process cap (at most `MAX_CAP`)."""
    return args.budget if args.budget is not None else min(20 * process.cap, MAX_CAP)


def _write_table(path: str, header: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, *lines, ""]))


def cmd_collect(args: argparse.Namespace) -> int:
    from . import runner

    process = _build_process(args)
    sample = runner.collect_runs(process, args.runs, args.seed, n_jobs=args.jobs)
    runner.save_runs(sample, args.out)
    stats = _summary_or_none(sample)
    moments = (
        "n/a\tn/a\tn/a"
        if stats is None
        else f"{stats.mean:.3f}\t{stats.stddev:.3f}\t{100.0 * stats.ratio:.1f}%"
    )
    print("n_runs\tconverged\tcensored\tmean\tstddev\tratio")
    print(f"{sample.n_runs}\t{sample.n_converged}\t{sample.n_censored}\t{moments}")
    return 0


def _summary_or_none(sample: runner.RunSample) -> runner.SummaryStats | None:
    """Summary moments, or None when fewer than 2 runs converged."""
    from . import runner

    try:
        return runner.summary_stats(sample)
    except InsufficientDataError:
        return None


def cmd_tail(args: argparse.Namespace) -> int:
    from . import runner, tailstats

    sample = runner.load_runs(args.runs_file)
    m = sample.n_converged
    r = max(2, int(args.r_fraction * m))
    profitable = tailstats.restart_profitable(sample)
    print("statistic\tvalue")
    print(f"converged\t{m}")
    print(f"censored\t{sample.n_censored}")
    # Degenerate samples (e.g. constant epochs) still get a profitability
    # verdict; the affected estimators report why they are unavailable.
    try:
        alpha = tailstats.hill_estimator(sample, r)
        print(f"hill_alpha\t{alpha:.4f}")
        print(f"hill_mean_log_spacing\t{1.0 / alpha:.4f}")
    except ValueError as exc:
        print(f"hill_alpha\tn/a ({exc})")
    print(f"hill_r\t{r}")
    try:
        slope = tailstats.loglog_tail_slope(sample, args.tail_fraction)
        print(f"loglog_tail_slope\t{slope:.4f}")
    except InsufficientDataError as exc:
        print(f"loglog_tail_slope\tn/a ({exc})")
    if profitable:
        print(f"restart_profitable\tyes ({len(profitable)} tau values)")
        print(f"first_profitable_tau\t{profitable[0]}")
    else:
        print("restart_profitable\tno (no tau)")
    if args.survival_out or args.loglog_out:
        survival = tailstats.survival_table(tailstats.empirical_cdf(sample))
    if args.survival_out:
        _write_table(args.survival_out, "t\tsurvival", [f"{t}\t{s:.10g}" for t, s in survival])
    if args.loglog_out:
        lines = [f"{math.log(t):.10g}\t{math.log(s):.10g}" for t, s in survival if s > 0.0]
        _write_table(args.loglog_out, "log_t\tlog_survival", lines)
    if args.remaining_out:
        lines = [
            f"{tau}\t{mean:.6f}\t{n}\t{se:.6f}"
            for tau, mean, n, se in tailstats.remaining_time_profile(sample)
        ]
        _write_table(args.remaining_out, "tau\texpected_remaining\tn\tstderr", lines)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    from . import runner, strategies, tailstats

    sample = runner.load_runs(args.runs_file)
    ecdf = tailstats.empirical_cdf(sample)
    stats = _summary_or_none(sample)
    t_star, expected = strategies.optimal_cutoff(ecdf)
    baseline = (
        "n/a\t-"
        if stats is None
        else f"{stats.mean:.3f}\t{100.0 * (stats.mean - expected) / stats.mean:.1f}%"
    )
    print("t_star\texpected_epochs\tno_restart_mean\treduction")
    print(f"{t_star}\t{expected:.3f}\t{baseline}")
    if args.curve_out:
        lines = [f"{t}\t{e:.6f}" for t, e in strategies.expected_time_curve(ecdf)]
        _write_table(args.curve_out, "t\texpected_epochs", lines)
    return 0


def _sweep_schedules(args: argparse.Namespace) -> list[strategies.RestartSchedule]:
    from . import strategies

    scheds: list[strategies.RestartSchedule] = [
        strategies.WalshSchedule(gamma=g) for g in args.gammas
    ]
    if args.luby_unit is not None:
        scheds.append(strategies.LubySchedule(unit=args.luby_unit))
    if args.fixed is not None:
        scheds.append(strategies.FixedSchedule(t=args.fixed))
    return scheds


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import runner, strategies

    process = _build_process(args)
    budget = _budget(args, process)
    schedules = _sweep_schedules(args)
    # Every schedule reuses the same base seed: common random numbers make
    # the schedule comparison sharper than independent seeding would.
    # The trial tasks come first: they reject `--trials 1` before any training.
    trial_tasks, outcomes_of = strategies.trial_tasks(
        process, schedules, args.trials, args.seed, budget, args.jobs
    )
    # The baseline is the sample `collect --runs T --seed S` logs. Its blocks
    # hold the longest runs, so they lead the one pool's queue.
    run_tasks, sample_of = runner.collect_tasks(process, args.trials, args.seed, args.jobs)
    done = runner.parallel_map(run_tasks + trial_tasks, args.jobs)
    sample, trials = sample_of(done[: len(run_tasks)]), outcomes_of(done[len(run_tasks) :])
    baseline = _summary_or_none(sample)
    failure_rate = f"{sample.n_censored / sample.n_runs:.4f}"
    print("schedule\tmean_epochs\tstderr\tfailure_rate\treduction")
    if baseline is None:
        print(f"none\tn/a\tn/a\t{failure_rate}\t-")
    else:
        print(
            f"none\t{baseline.mean:.3f}\t"
            f"{baseline.stddev / math.sqrt(baseline.n_converged):.3f}\t"
            f"{failure_rate}\t0.0%"
        )
    for sched, outcomes in zip(schedules, trials):
        try:
            res = strategies.mc_result(outcomes, sched, budget)
        except AllTrialsFailedError:
            print(f"{sched.describe()}\tall-failed\t-\t1.0000\t-")
            continue
        stderr = "n/a" if math.isnan(res.stderr) else f"{res.stderr:.3f}"
        reduction = (
            "-"
            if baseline is None
            else f"{100.0 * (baseline.mean - res.mean_epochs) / baseline.mean:.1f}%"
        )
        print(
            f"{sched.describe()}\t{res.mean_epochs:.3f}\t{stderr}"
            f"\t{res.failure_rate:.4f}\t{reduction}"
        )
    return 0


def cmd_restart_run(args: argparse.Namespace) -> int:
    from . import strategies

    process = _build_process(args)
    schedule = strategies.parse_schedule(args.schedule)
    budget = _budget(args, process)
    (outcome,) = strategies.run_schedules(process, [schedule], args.seed, budget)
    print("attempt\tcutoff\tepochs_used")
    for i, (cutoff, used) in enumerate(outcome.per_attempt, start=1):
        print(f"{i}\t{cutoff}\t{used}")
    status = "succeeded" if outcome.succeeded else "budget-exhausted"
    print(
        f"# {status}: attempts={outcome.attempts} total_epochs={outcome.total_epochs}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restartkit",
        description="Model run-until-threshold processes as Las Vegas algorithms, "
        "diagnose heavy-tailed runtimes, and evaluate restart strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="run a process repeatedly and log the runs")
    _add_process_flags(p)
    p.add_argument("--runs", type=_positive_int, required=True)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", required=True, metavar="PATH", help="run-log path")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("tail", help="heavy-tail diagnostics over a run log")
    p.add_argument("--runs-file", required=True, metavar="PATH")
    p.add_argument("--r-fraction", type=_fraction, default=0.1)
    p.add_argument("--tail-fraction", type=_fraction, default=0.1)
    p.add_argument("--survival-out", metavar="PATH")
    p.add_argument("--loglog-out", metavar="PATH")
    p.add_argument("--remaining-out", metavar="PATH")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("optimize", help="optimal fixed cutoff from a run log")
    p.add_argument("--runs-file", required=True, metavar="PATH")
    p.add_argument("--curve-out", metavar="PATH")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="compare restart schedules by Monte Carlo")
    _add_process_flags(p)
    p.add_argument(
        "--gammas",
        type=_gamma_list,
        default=[float(g) for g in range(2, 11)],
        help="comma-separated Walsh gammas (default 2..10)",
    )
    p.add_argument("--luby-unit", type=_positive_int, default=None)
    p.add_argument("--fixed", type=_positive_int, default=None)
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--budget", type=_cap, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("restart-run", help="trace one strategy execution")
    _add_process_flags(p)
    p.add_argument("--schedule", required=True, help="fixed:t | walsh:gamma | luby:unit")
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--budget", type=_cap, default=None)
    p.set_defaults(func=cmd_restart_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"restartkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
