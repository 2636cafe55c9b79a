import math
import os
import subprocess
import sys

import pytest

from restartkit import (
    AllTrialsFailedError,
    collect_runs,
    evaluate_strategy_mc,
    load_runs,
    mlp,
)
from restartkit.cli import (
    _build_process,
    _summary_or_none,
    _sweep_schedules,
    build_parser,
    main,
)

DATA_PATH = os.path.join(os.path.dirname(__file__), "..", "data", "thyroidlike-train.data")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def walsh_expected_two_point(gamma, p=0.5, a=1, b=10):
    """Hand renewal computation of E[S_walsh] on the two-point law."""
    e_total = 0.0
    p_reach = 1.0
    i = 1
    while True:
        c = math.ceil(gamma ** (i - 1))
        if c >= b:
            e_total += p_reach * (p * a + (1 - p) * b)
            return e_total
        if c >= a:
            e_total += p_reach * (p * a + (1 - p) * c)
            p_reach *= 1 - p
        else:
            e_total += p_reach * c
        i += 1


def parse_table(out):
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


class TestCollect:
    def test_two_point_stub_stats(self, capsys, tmp_path):
        log = tmp_path / "runs.jsonl"
        code, out, err = run_cli(
            capsys,
            "collect",
            "--stub", "two-point:0.5:1:10",
            "--runs", "1000",
            "--seed", "7",
            "--out", str(log),
        )
        assert code == 0
        rows = parse_table(out)
        assert rows[0]["n_runs"] == "1000"
        # Mean within 3 stderr of the exact 5.5 (sd = 4.5).
        mean = float(rows[0]["mean"])
        assert abs(mean - 5.5) <= 3 * 4.5 / math.sqrt(1000)
        sample = load_runs(log)
        assert sample.n_runs == 1000

    @pytest.mark.parametrize(
        "stub, runs, row",
        [
            ("constant:3", "1", "1\t1\t0\tn/a\tn/a\tn/a"),
            ("constant:10", "3", "3\t0\t3\tn/a\tn/a\tn/a"),
        ],
        ids=["one-converged", "none-converged"],
    )
    def test_under_two_converged_runs_prints_na(self, capsys, tmp_path, stub, runs, row):
        log = tmp_path / "few.jsonl"
        code, out, err = run_cli(
            capsys,
            "collect",
            "--stub", stub,
            "--stub-cap", "5",
            "--runs", runs,
            "--out", str(log),
        )
        assert code == 0, err
        assert out == f"n_runs\tconverged\tcensored\tmean\tstddev\tratio\n{row}\n"
        assert load_runs(log).n_runs == int(runs)

    def test_zero_runs_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "collect",
                    "--stub", "constant:3",
                    "--runs", "0",
                    "--out", str(tmp_path / "x.jsonl"),
                ]
            )
        assert exc.value.code == 2

    def test_missing_source_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["collect", "--runs", "5", "--out", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2

    def test_bad_stub_spec_fails_cleanly(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "collect",
            "--stub", "nonsense:1",
            "--runs", "5",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 1
        assert "error" in err

    def test_collect_from_data_file_with_folds(self, capsys, tmp_path, thyroid_like_file):
        log = tmp_path / "mlp.jsonl"
        code, out, err = run_cli(
            capsys,
            "collect",
            "--data", str(thyroid_like_file),
            "--hidden", "2",
            "--delta", "0.3",
            "--init", "0.3",
            "--max-epochs", "50",
            "--runs", "4",
            "--seed", "3",
            "--folds", "3",
            "--fold", "0",
            "--out", str(log),
        )
        assert code == 0, err
        assert load_runs(log).n_runs == 4

    def test_fold_out_of_range(self, capsys, tmp_path, thyroid_like_file):
        code, out, err = run_cli(
            capsys,
            "collect",
            "--data", str(thyroid_like_file),
            "--runs", "2",
            "--folds", "3",
            "--fold", "3",
            "--seed", "1",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 1
        assert "--fold" in err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--init", "nan", "init_half_width"),
            ("--init", "inf", "init_half_width"),
            ("--momentum", "nan", "momentum"),
            ("--lr", "inf", "learning_rate"),
            ("--delta", "inf", "target_error"),
        ],
    )
    def test_non_finite_mlp_setting_fails_cleanly(
        self, capsys, tmp_path, thyroid_like_file, flag, value, field
    ):
        log = tmp_path / "x.jsonl"
        code, out, err = run_cli(
            capsys,
            "collect",
            "--data", str(thyroid_like_file),
            "--runs", "2",
            "--max-epochs", "5",
            flag, value,
            "--out", str(log),
        )
        assert code == 1
        assert err.startswith(f"restartkit: error: {field} must be") and value in err
        assert not log.exists()

    def test_mlp_log_same_for_any_jobs(self, capsys, tmp_path, monkeypatch):
        # 37 runs on 2 workers are blocks of 19 and 18 seeds, both wider
        # than the lockstep stack, so runs leave and join it mid-block.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        argv = ["collect", "--data", DATA_PATH, "--runs", "37", "--max-epochs", "600",
                "--seed", "5"]
        process = _build_process(build_parser().parse_args([*argv, "--out", "-"]))
        assert mlp._stack_width(process.cfg, process.data.n_rows) < 18
        logs = []
        for jobs in ("1", "2"):
            log = tmp_path / f"runs-{jobs}.jsonl"
            code, out, err = run_cli(capsys, *argv, "--jobs", jobs, "--out", str(log))
            assert code == 0, err
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]
        assert load_runs(tmp_path / "runs-1.jsonl").n_runs == 37

    def test_diverging_runs_write_nothing_to_stderr(self, tmp_path, thyroid_like_file):
        # Momentum near 1 drives the weights to inf, and inf - inf makes the
        # error NaN: a diverged record, with no numpy warning on the way.
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        log = tmp_path / "x.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "restartkit.cli", "collect", "--data", str(thyroid_like_file),
             "--lr", "1e308", "--momentum", "0.99", "--max-epochs", "300", "--runs", "2",
             "--jobs", "1", "--out", str(log)],
            capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert load_runs(log).diverged.all()

    def test_byte_budget_narrows_stack_for_large_hidden(self):
        args = ["collect", "--data", DATA_PATH, "--hidden", "200", "--runs", "4", "--out", "-"]
        process = _build_process(build_parser().parse_args(args))
        assert mlp._stack_width(process.cfg, process.data.n_rows) == 1
        seeds = [5, 6, 5, 7]
        assert process.attempt_many(seeds, 3) == [process.attempt(s, 3) for s in seeds]

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_data_field_fails_cleanly(self, capsys, tmp_path, token):
        # Before the check, a NaN column was zeroed by scaling and the runs
        # trained (exit 0); an infinite one made every run diverge.
        rows = [[f"0.{i}{j}" for j in range(21)] + [str(i % 3 + 1)] for i in range(4)]
        rows[3][4] = token
        data = tmp_path / "bad.data"
        data.write_text("".join(" ".join(row) + "\n" for row in rows), encoding="utf-8")
        log = tmp_path / "x.jsonl"
        code, out, err = run_cli(
            capsys,
            "collect",
            "--data", str(data),
            "--runs", "2",
            "--max-epochs", "5",
            "--out", str(log),
        )
        assert code == 1
        assert err == f"restartkit: error: {data}: line 4: non-finite field\n"
        assert not log.exists()

    def test_missing_data_file(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "collect",
            "--data", str(tmp_path / "absent.data"),
            "--runs", "2",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 1
        assert "error" in err


class TestTail:
    @pytest.fixture
    def pareto_log(self, capsys, tmp_path):
        log = tmp_path / "pareto.jsonl"
        code, _, _ = run_cli(
            capsys,
            "collect",
            "--stub", "discrete-pareto:1.5",
            "--runs", "30000",
            "--seed", "11",
            "--out", str(log),
        )
        assert code == 0
        return log

    def test_pareto_alpha_estimate(self, capsys, tmp_path, pareto_log):
        surv = tmp_path / "surv.tsv"
        loglog = tmp_path / "loglog.tsv"
        remaining = tmp_path / "rem.tsv"
        code, out, err = run_cli(
            capsys,
            "tail",
            "--runs-file", str(pareto_log),
            "--survival-out", str(surv),
            "--loglog-out", str(loglog),
            "--remaining-out", str(remaining),
        )
        assert code == 0
        stats = {r["statistic"]: r["value"] for r in parse_table(out)}
        alpha = float(stats["hill_alpha"])
        assert 1.4 <= alpha <= 1.6
        assert float(stats["hill_mean_log_spacing"]) == pytest.approx(
            1 / alpha, rel=1e-3
        )
        assert stats["restart_profitable"].startswith("yes")
        # Plot files: tab-separated with headers, survival decreasing.
        lines = surv.read_text().splitlines()
        assert lines[0] == "t\tsurvival"
        values = [float(ln.split("\t")[1]) for ln in lines[1:]]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert loglog.read_text().splitlines()[0] == "log_t\tlog_survival"
        assert remaining.read_text().splitlines()[0] == "tau\texpected_remaining\tn\tstderr"

    def test_constant_log_not_profitable(self, capsys, tmp_path):
        log = tmp_path / "const.jsonl"
        run_cli(
            capsys,
            "collect",
            "--stub", "constant:40",
            "--runs", "200",
            "--seed", "5",
            "--out", str(log),
        )
        code, out, err = run_cli(capsys, "tail", "--runs-file", str(log))
        assert code == 0
        stats = {r["statistic"]: r["value"] for r in parse_table(out)}
        assert stats["restart_profitable"] == "no (no tau)"
        assert stats["hill_alpha"].startswith("n/a")

    def test_missing_log(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "tail", "--runs-file", str(tmp_path / "none.jsonl")
        )
        assert code == 1


class TestOptimize:
    def test_two_point_log(self, capsys, tmp_path):
        log = tmp_path / "tp.jsonl"
        run_cli(
            capsys,
            "collect",
            "--stub", "two-point:0.5:1:10",
            "--runs", "2000",
            "--seed", "13",
            "--out", str(log),
        )
        curve = tmp_path / "curve.tsv"
        code, out, err = run_cli(
            capsys,
            "optimize",
            "--runs-file", str(log),
            "--curve-out", str(curve),
        )
        assert code == 0
        row = parse_table(out)[0]
        assert row["t_star"] == "1"
        assert float(row["expected_epochs"]) == pytest.approx(2.0, abs=0.15)
        reduction = float(row["reduction"].rstrip("%"))
        assert reduction == pytest.approx(100 * 3.5 / 5.5, abs=5.0)
        lines = curve.read_text().splitlines()
        assert lines[0] == "t\texpected_epochs"
        assert len(lines) == 3  # support {1, 10}

    def test_constant_log_no_gain(self, capsys, tmp_path):
        log = tmp_path / "c.jsonl"
        run_cli(
            capsys,
            "collect",
            "--stub", "constant:9",
            "--runs", "50",
            "--seed", "2",
            "--out", str(log),
        )
        code, out, err = run_cli(capsys, "optimize", "--runs-file", str(log))
        assert code == 0
        row = parse_table(out)[0]
        assert row["t_star"] == "9"
        assert float(row["reduction"].rstrip("%")) == 0.0


    def test_under_two_converged_runs_prints_na(self, capsys, tmp_path):
        log = tmp_path / "one.jsonl"
        run_cli(
            capsys,
            "collect", "--stub", "constant:3", "--runs", "1", "--out", str(log),
        )
        code, out, err = run_cli(capsys, "optimize", "--runs-file", str(log))
        assert code == 0, err
        assert out == "t_star\texpected_epochs\tno_restart_mean\treduction\n3\t3.000\tn/a\t-\n"


@pytest.mark.parametrize("command", ["tail", "optimize"])
def test_integer_error_beyond_float_range_is_an_error_line(capsys, tmp_path, command):
    log = tmp_path / "huge.jsonl"
    rec = '{"seed":%d,"epochs":2,"converged":true,"final_error":%s}'
    log.write_text(
        '{"cap":10}\n' + rec % (1, "0.5") + "\n" + rec % (2, "1" + "0" * 400) + "\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, command, "--runs-file", str(log))
    assert code == 1
    assert out == ""
    assert err == (
        "restartkit: error: line 3: 'final_error' is an integer beyond float range\n"
    )


def test_tail_sums_exact_past_int64(capsys, tmp_path):
    # Sums of these epochs overflow int64; 9e17 + 5.5 prints as 9e17 in float64.
    log = tmp_path / "big.jsonl"
    rec = '{"seed":%d,"epochs":%d,"converged":true,"final_error":0.0}'
    records = [rec % (i, 9 * 10**17 + i) for i in range(12)]
    log.write_text(f'{{"cap":{10**18}}}\n' + "\n".join(records) + "\n", encoding="utf-8")
    remaining = tmp_path / "rem.tsv"
    code, out, err = run_cli(
        capsys, "tail", "--runs-file", str(log), "--remaining-out", str(remaining)
    )
    assert code == 0, err
    stats = {r["statistic"]: r["value"] for r in parse_table(out)}
    assert stats["restart_profitable"] == "no (no tau)"
    rows = remaining.read_text().splitlines()
    assert rows[1] == "0\t900000000000000000.000000\t12\t1.040833"
    # Survivors 9e17+6..9e17+11 beyond tau = 9e17+5: T - tau is 1..6.
    assert rows[7] == f"{9 * 10**17 + 5}\t3.500000\t6\t0.763763"


@pytest.mark.parametrize("command", ["tail", "optimize"])
def test_cap_beyond_int64_is_an_error_line(capsys, tmp_path, command):
    log = tmp_path / "big.jsonl"
    rec = '{"seed":%d,"epochs":%d,"converged":true,"final_error":0.0}'
    log.write_text(
        f'{{"cap":{2**63}}}\n' + rec % (1, 2**63) + "\n" + rec % (2, 5) + "\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, command, "--runs-file", str(log))
    assert code == 1
    assert out == ""
    assert err == "restartkit: error: line 1: 'cap' must be an integer in [1, 2**63 - 1]\n"


def separate_pools_sweep(argv):
    """`sweep` stdout composed from serial parts: the baseline is the sample
    `collect --runs T --seed S` logs, and each schedule runs its own
    evaluate_strategy_mc, where the command walks all schedules in one pool."""
    args = build_parser().parse_args(argv)
    process = _build_process(args)
    budget = args.budget if args.budget is not None else 20 * process.cap
    sample = collect_runs(process, args.trials, args.seed)
    baseline = _summary_or_none(sample)
    lines = ["schedule\tmean_epochs\tstderr\tfailure_rate\treduction"]
    rate = f"{sample.n_censored / sample.n_runs:.4f}"
    if baseline is None:
        lines.append(f"none\tn/a\tn/a\t{rate}\t-")
    else:
        se = baseline.stddev / math.sqrt(baseline.n_converged)
        lines.append(f"none\t{baseline.mean:.3f}\t{se:.3f}\t{rate}\t0.0%")
    for sched in _sweep_schedules(args):
        try:
            res = evaluate_strategy_mc(process, sched, args.trials, args.seed, budget)
        except AllTrialsFailedError:
            lines.append(f"{sched.describe()}\tall-failed\t-\t1.0000\t-")
            continue
        reduction = (
            "-"
            if baseline is None
            else f"{100.0 * (baseline.mean - res.mean_epochs) / baseline.mean:.1f}%"
        )
        stderr = "n/a" if math.isnan(res.stderr) else f"{res.stderr:.3f}"
        lines.append(
            f"{sched.describe()}\t{res.mean_epochs:.3f}\t{stderr}"
            f"\t{res.failure_rate:.4f}\t{reduction}"
        )
    return "\n".join(lines) + "\n"


class TestSweep:
    @pytest.mark.parametrize(
        "source",
        [
            ["--stub", "discrete-pareto:0.5:50", "--stub-cap", "5000", "--gammas", "2,3",
             "--luby-unit", "40", "--fixed", "90", "--trials", "60", "--seed", "5"],
            ["--data", DATA_PATH, "--max-epochs", "1500", "--gammas", "2,4",
             "--luby-unit", "200", "--fixed", "600", "--trials", "3", "--seed", "11"],
        ],
        ids=["stub", "mlp"],
    )
    def test_equals_separate_pools(self, capsys, source):
        expected = separate_pools_sweep(["sweep", *source])
        for jobs in ("1", "2"):
            code, out, err = run_cli(capsys, "sweep", *source, "--jobs", jobs)
            assert code == 0, err
            assert out == expected, jobs

    def test_one_trial_is_an_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--stub", "constant:5", "--gammas", "2", "--trials", "1"
        )
        assert code == 1
        assert err == "restartkit: error: n_trials must be >= 2, got 1\n"
        assert out == ""

    def test_single_success_stderr_is_na(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--stub", "two-point:0.1:1:10",
            "--stub-cap", "5",
            "--trials", "2",
            "--gammas", "2",
            "--budget", "12",
            "--seed", "3",
        )
        assert code == 0, err
        rows = {r["schedule"]: r for r in parse_table(out)}
        assert list(rows["walsh:2"].values()) == ["walsh:2", "2.000", "n/a", "0.5000", "-"]

    def test_walsh_matches_renewal_oracle(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--stub", "two-point:0.5:1:10",
            "--stub-cap", "100",
            "--gammas", "2,4",
            "--fixed", "1",
            "--trials", "4000",
            "--seed", "21",
            "--budget", "100000",
        )
        assert code == 0
        rows = {r["schedule"]: r for r in parse_table(out)}
        assert set(rows) == {"none", "walsh:2", "walsh:4", "fixed:1"}
        for gamma in (2, 4):
            row = rows[f"walsh:{gamma}"]
            mean = float(row["mean_epochs"])
            stderr = float(row["stderr"])
            oracle = walsh_expected_two_point(gamma)
            assert abs(mean - oracle) <= 3 * stderr + 1e-9
        fixed = rows["fixed:1"]
        assert abs(float(fixed["mean_epochs"]) - 2.0) <= 3 * float(fixed["stderr"])
        assert float(rows["none"]["mean_epochs"]) == pytest.approx(
            5.5, abs=3 * 4.5 / math.sqrt(4000)
        )

    def test_all_failed_row_reported(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--stub", "constant:50",
            "--stub-cap", "100",
            "--gammas", "2",
            "--trials", "10",
            "--seed", "0",
            "--budget", "30",
        )
        assert code == 0
        rows = {r["schedule"]: r for r in parse_table(out)}
        assert rows["walsh:2"]["mean_epochs"] == "all-failed"

    def test_baseline_under_two_converged_runs(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep",
            "--stub", "two-point:0.1:1:10",
            "--stub-cap", "5",
            "--trials", "4",
            "--gammas", "2",
        )
        assert code == 0, err
        rows = {r["schedule"]: r for r in parse_table(out)}
        assert set(rows) == {"none", "walsh:2"}
        assert list(rows["none"].values()) == ["none", "n/a", "n/a", "1.0000", "-"]
        assert rows["walsh:2"]["reduction"] == "-"
        assert float(rows["walsh:2"]["mean_epochs"]) >= 1.0

    def test_rejects_gamma_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sweep",
                    "--stub", "constant:5",
                    "--gammas", "1,2",
                    "--trials", "10",
                ]
            )
        assert exc.value.code == 2


    @pytest.mark.parametrize("gammas", ["inf", "2,1e400"])
    def test_rejects_infinite_gamma(self, capsys, gammas):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--stub", "constant:5", "--gammas", gammas, "--trials", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "restartkit sweep: error: argument --gammas: "
            "gamma must be > 1 and finite, got inf"
        )


class TestValidators:
    # Parsing fails or stops before any file is opened, so "x" is never touched.
    COLLECT = ["collect", "--stub", "constant:3", "--out", "x"]
    TAIL = ["tail", "--runs-file", "x"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (COLLECT + ["--runs", "0"], "collect: error: argument --runs: must be >= 1, got 0"),
            (COLLECT + ["--runs", "1x"], "collect: error: argument --runs: not an integer: '1x'"),
            (COLLECT + ["--runs", "1", "--seed", "-1"], "collect: error: argument --seed: must be >= 0, got -1"),
            (COLLECT + ["--runs", "1", "--delta", "0"], "collect: error: argument --delta: must be > 0, got 0.0"),
            (COLLECT + ["--runs", "1", "--delta", "abc"], "collect: error: argument --delta: not a number: 'abc'"),
            (TAIL + ["--r-fraction", "0"], "tail: error: argument --r-fraction: must be in (0,1), got 0.0"),
            (TAIL + ["--r-fraction", "1"], "tail: error: argument --r-fraction: must be in (0,1), got 1.0"),
            # A sample keeps its epochs in int64, so a cap stops at 2**63 - 1.
            (COLLECT + ["--runs", "1", "--stub-cap", str(2**63)],
             f"collect: error: argument --stub-cap: must be in [1, 2**63 - 1], got {2**63}"),
            (COLLECT + ["--runs", "1", "--max-epochs", "0"],
             "collect: error: argument --max-epochs: must be in [1, 2**63 - 1], got 0"),
        ],
    )
    def test_rejected_value_and_message(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"restartkit {message}"

    @pytest.mark.parametrize(
        "argv, attr, value",
        [
            (COLLECT + ["--runs", "1"], "runs", 1),
            (COLLECT + ["--runs", "1", "--seed", "0"], "seed", 0),
            (COLLECT + ["--runs", "1", "--delta", "1e-9"], "delta", 1e-9),
            (TAIL + ["--r-fraction", "1e-9"], "r_fraction", 1e-9),
            (TAIL + ["--r-fraction", "0.999999"], "r_fraction", 0.999999),
            (COLLECT + ["--runs", "1", "--stub-cap", str(2**63 - 1)], "stub_cap", 2**63 - 1),
        ],
    )
    def test_accepted_boundary(self, argv, attr, value):
        assert getattr(build_parser().parse_args(argv), attr) == value


class TestRestartRun:
    def test_trace_success(self, capsys):
        code, out, err = run_cli(
            capsys,
            "restart-run",
            "--stub", "constant:3",
            "--schedule", "fixed:5",
            "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "attempt\tcutoff\tepochs_used"
        assert lines[1] == "1\t5\t3"
        assert lines[2] == "# succeeded: attempts=1 total_epochs=3"

    def test_trace_budget_exhaustion(self, capsys):
        code, out, err = run_cli(
            capsys,
            "restart-run",
            "--stub", "constant:3",
            "--schedule", "fixed:2",
            "--budget", "10",
            "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 5 + 1
        assert lines[-1] == "# budget-exhausted: attempts=5 total_epochs=10"

    def test_infinite_gamma_fails_cleanly(self, capsys):
        code, out, err = run_cli(
            capsys, "restart-run", "--stub", "constant:3", "--schedule", "walsh:inf"
        )
        assert code == 1 and out == ""
        assert err == (
            "restartkit: error: bad schedule spec 'walsh:inf': "
            "gamma must be > 1 and finite, got inf\n"
        )

    def test_luby_schedule_trace(self, capsys):
        code, out, err = run_cli(
            capsys,
            "restart-run",
            "--stub", "constant:7",
            "--schedule", "luby:2",
            "--seed", "4",
            "--budget", "200",
        )
        assert code == 0
        cutoffs = [
            int(ln.split("\t")[1]) for ln in out.strip().splitlines()[1:-1]
        ]
        expected = [2, 2, 4, 2, 2, 4, 8]
        assert cutoffs[: len(expected)] == expected


class TestDeterminism:
    def test_collect_is_byte_identical(self, capsys, tmp_path):
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            code, out, _ = run_cli(
                capsys,
                "collect",
                "--stub", "geometric:0.2",
                "--runs", "500",
                "--seed", "99",
                "--out", str(path),
            )
            assert code == 0
            logs.append((path.read_bytes(), out))
        assert logs[0] == logs[1]

    def test_reports_are_identical(self, capsys, tmp_path):
        log = tmp_path / "g.jsonl"
        run_cli(
            capsys,
            "collect",
            "--stub", "discrete-pareto:1.5",
            "--runs", "5000",
            "--seed", "3",
            "--out", str(log),
        )
        outputs = set()
        for _ in range(2):
            code, out, _ = run_cli(capsys, "tail", "--runs-file", str(log))
            assert code == 0
            outputs.add(out)
        for _ in range(2):
            code, out, _ = run_cli(capsys, "optimize", "--runs-file", str(log))
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 2  # one unique tail report, one optimize report
