import errno
import math
import os
import subprocess
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import astuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from restartkit import (
    AllTrialsFailedError,
    collect_runs,
    empirical_cdf,
    evaluate_strategy_mc,
    expected_remaining,
    hill_estimator,
    load_runs,
    loglog_tail_slope,
    mlp,
    remaining_time_profile,
    restart_profitable,
    runner,
    strategies,
    summary_stats,
    survival_table,
    tailstats,
)
from restartkit.cli import (
    _build_process,
    _summary_or_none,
    _sweep_schedules,
    build_parser,
    main,
)

from conftest import make_sample

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

    @pytest.mark.parametrize(
        "stub",
        [
            "constant:9223372036854775808",
            "two-point:0.5:1:9223372036854775808",
            "two-point:0.5:1:18446744073709551616",
        ],
    )
    def test_times_past_int64_are_censored_at_the_cap(self, capsys, tmp_path, stub):
        # A time past 2**63 - 1 saturates at 2**63, so its runs are censored
        # at the cap, as they are when that time is 10.
        logs = [tmp_path / "huge.jsonl", tmp_path / "ten.jsonl"]
        outs = []
        for spec, log in zip([stub, stub.rsplit(":", 1)[0] + ":10"], logs):
            argv = ["--stub", spec, "--stub-cap", "5", "--runs", "20", "--out", str(log)]
            code, out, err = run_cli(capsys, "collect", *argv)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        huge, ten = map(load_runs, logs)
        assert huge.records == ten.records
        assert huge.n_censored > 0

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

    @pytest.mark.parametrize(
        "flags, part",
        [
            (["--no-scale"], ",rows=3,no-scale)"),
            (["--lr", "80.0000001"], ",lr=80.0000001,"),
            (["--folds", "3", "--no-scale"], ",rows=2,no-scale,fold=0/3)"),
        ],
        ids=["no_scale", "lr_past_six_digits", "no_scale_with_folds"],
    )
    def test_metadata_tells_apart_settings_that_change_runs(
        self, capsys, tmp_path, thyroid_like_file, flags, part
    ):
        metadata = []
        for extra in ([], flags):
            log = tmp_path / "runs.jsonl"
            code, out, err = run_cli(
                capsys, "collect", "--data", str(thyroid_like_file), "--runs", "1",
                "--max-epochs", "2", *extra, "--out", str(log),
            )
            assert code == 0, err
            metadata.append(load_runs(log).metadata)
        assert part not in metadata[0] and part in metadata[1]

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

    @pytest.mark.parametrize("stub", [False, True], ids=["data", "stub"])
    def test_fold_without_folds_is_an_error(self, capsys, tmp_path, thyroid_like_file, stub):
        # Without --folds nothing reads --fold, so it would be silently ignored.
        log = tmp_path / "x.jsonl"
        source = ["--stub", "constant:3"] if stub else ["--data", str(thyroid_like_file)]
        code, out, err = run_cli(
            capsys, "collect", *source, "--runs", "2", "--max-epochs", "5",
            "--fold", "1", "--out", str(log),
        )
        assert (code, out) == (1, "")
        assert err == "restartkit: error: --fold needs --folds\n"
        assert not log.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--hidden", "9"],
            ["--delta", "0.1"],
            ["--lr", "5"],
            ["--momentum", "1.5"],
            ["--init", "0"],
            ["--max-epochs", "7"],
            ["--no-scale"],
            ["--folds", "3"],
            ["--folds", "3", "--fold", "7"],
        ],
        ids=lambda flags: "_".join(flags),
    )
    def test_mlp_flag_with_stub_is_an_error(self, capsys, tmp_path, flags):
        # A stub process reads none of these, so each would be silently ignored.
        log = tmp_path / "x.jsonl"
        code, out, err = run_cli(
            capsys, "collect", "--stub", "constant:3", "--runs", "2", *flags, "--out", str(log),
        )
        assert (code, out) == (1, "")
        assert err == f"restartkit: error: {flags[0]} does not apply to --stub\n"
        assert not log.exists()

    def test_stub_cap_with_data_is_an_error(self, capsys, tmp_path, thyroid_like_file):
        log = tmp_path / "x.jsonl"
        code, out, err = run_cli(
            capsys, "collect", "--data", str(thyroid_like_file), "--runs", "2",
            "--max-epochs", "5", "--stub-cap", "5", "--out", str(log),
        )
        assert (code, out) == (1, "")
        assert err == "restartkit: error: --stub-cap does not apply to --data\n"
        assert not log.exists()

    def test_zero_init_is_an_error(self, capsys, tmp_path, thyroid_like_file):
        # Every weight would start at 0, so every seed would train one run.
        log = tmp_path / "x.jsonl"
        code, out, err = run_cli(
            capsys, "collect", "--data", str(thyroid_like_file), "--runs", "2",
            "--max-epochs", "5", "--init", "0", "--out", str(log),
        )
        assert (code, out) == (1, "")
        assert err.startswith("restartkit: error: --init must be > 0")
        assert not log.exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--init", "nan", "init_half_width"),
            ("--init", "inf", "init_half_width"),
            ("--init", "1e+308", "init_half_width"),
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

    # The error names the log the user asked for, not the temporary file
    # beside it that `save_runs` writes first, and leaves neither behind.
    @pytest.mark.parametrize(
        "target, code", [("missing/x.jsonl", errno.ENOENT), ("dir", errno.EISDIR)]
    )
    def test_failed_write_names_the_log(self, capsys, tmp_path, target, code):
        (tmp_path / "dir").mkdir()
        log = tmp_path / target
        status, out, err = run_cli(
            capsys, "collect", "--stub", "two-point:0.5:1:10", "--runs", "5", "--out", str(log)
        )
        assert (status, out) == (1, "")
        assert err == f"restartkit: error: [Errno {code}] {os.strerror(code)}: {str(log)!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]
        assert list((tmp_path / "dir").iterdir()) == []

    def test_mlp_log_same_for_any_jobs(self, capsys, tmp_path, monkeypatch):
        # 37 runs on 2 workers are blocks of 19 and 18 seeds, both wider
        # than the lockstep stack, so runs leave and join it mid-block.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        argv = ["collect", "--data", DATA_PATH, "--runs", "37", "--max-epochs", "600",
                "--seed", "5"]
        process = _build_process(build_parser().parse_args([*argv, "--out", "-"]))
        kernel = mlp._Epoch(process.cfg.n_hidden, 37, process.data.features, process.data.targets)
        assert kernel.capacity < 18
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
        kernel = mlp._Epoch(process.cfg.n_hidden, 4, process.data.features, process.data.targets)
        assert kernel.capacity == 1
        seeds = [5, 6, 5, 7]
        block = process.attempt_many(seeds, 3)
        assert block.records(seeds) == [process.attempt(s, 3) for s in seeds]

    def test_wide_layer_log_ignores_the_blas_thread_count(self, tmp_path):
        # At --hidden 200 OpenBLAS splits a product over its threads, which
        # changes a run's bits; the command pins one thread before numpy
        # loads, whatever the caller set. Needs 2 or more cores to fail
        # without the pin.
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        logs = []
        for threads in ("2", "1"):
            env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
            log = tmp_path / f"threads-{threads}.jsonl"
            proc = subprocess.run(
                [sys.executable, "-m", "restartkit.cli", "collect", "--data", DATA_PATH,
                 "--hidden", "200", "--runs", "4", "--max-epochs", "300", "--seed", "7",
                 "--out", str(log)],
                capture_output=True, text=True, env=env,
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]

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


def test_means_past_2_53_agree_across_commands(capsys, tmp_path):
    # The converged epochs sum past 2**53, where a float64 sum drops digits.
    log = tmp_path / "pareto.jsonl"
    argv = ["--stub", "discrete-pareto:0.1", "--stub-cap", str(2**63 - 1), "--seed", "5"]
    code, out, err = run_cli(capsys, "collect", *argv, "--runs", "2000", "--out", str(log))
    assert code == 0, err
    (collected,) = parse_table(out)
    code, out, err = run_cli(capsys, "optimize", "--runs-file", str(log))
    assert code == 0, err
    (optimized,) = parse_table(out)
    remaining = tmp_path / "remaining.tsv"
    code, out, err = run_cli(
        capsys, "tail", "--runs-file", str(log), "--remaining-out", str(remaining)
    )
    assert code == 0, err
    tau, mean, n, stderr = remaining.read_text(encoding="utf-8").splitlines()[1].split("\t")
    code, out, err = run_cli(capsys, "sweep", *argv, "--trials", "2000", "--gammas", "2")
    assert code == 0, err
    baseline = parse_table(out)[0]
    assert float(mean) > 2**53 and (tau, n) == ("0", collected["converged"])
    assert collected["mean"] == optimized["no_restart_mean"] == baseline["mean_epochs"]
    assert collected["mean"] == f"{float(mean):.3f}"
    assert baseline["stderr"] == f"{float(stderr):.3f}"


def tsv(header: list[str], rows: list[tuple]) -> str:
    """A table as the plot files spell it: one tab-joined `str` line per row."""
    return "".join("\t".join(str(v) for v in row) + "\n" for row in [header, *rows])


@pytest.mark.parametrize(
    "stub, cap",
    [
        # Censored runs, and a last remaining-time row of one survivor (nan stderr).
        ("discrete-pareto:0.5:50", "300"),
        # No censored run: survival reaches 0, a point the log-log table drops.
        ("two-point:0.3:2:40", "40"),
    ],
)
def test_plot_files_hold_the_library_tables(capsys, tmp_path, stub, cap):
    log = tmp_path / "runs.jsonl"
    argv = ["--stub", stub, "--stub-cap", cap, "--runs", "400", "--seed", "3"]
    assert run_cli(capsys, "collect", *argv, "--out", str(log))[0] == 0
    paths = {name: tmp_path / f"{name}.tsv" for name in ("survival", "loglog", "remaining")}
    flags = [arg for name, path in paths.items() for arg in (f"--{name}-out", str(path))]
    assert run_cli(capsys, "tail", "--runs-file", str(log), *flags)[0] == 0
    paths["curve"] = curve = tmp_path / "curve.tsv"
    assert run_cli(capsys, "optimize", "--runs-file", str(log), "--curve-out", str(curve))[0] == 0
    sample = load_runs(log)
    ecdf = empirical_cdf(sample)
    survival = survival_table(ecdf)
    profile = remaining_time_profile(sample)
    assert (sample.n_censored > 0 and math.isnan(profile[-1][3])) or survival[-1][1] == 0.0
    expected = {
        "survival": tsv(["t", "survival"], [(t, f"{p:.10g}") for t, p in survival]),
        "loglog": tsv(
            ["log_t", "log_survival"],
            [(f"{math.log(t):.10g}", f"{math.log(p):.10g}") for t, p in survival if p > 0.0],
        ),
        "remaining": tsv(
            ["tau", "expected_remaining", "n", "stderr"],
            [(tau, f"{mean:.6f}", n, f"{se:.6f}") for tau, mean, n, se in profile],
        ),
        "curve": tsv(
            ["t", "expected_epochs"],
            [(t, f"{e:.6f}") for t, e in strategies.expected_time_curve(ecdf)],
        ),
    }
    assert {name: path.read_text(encoding="utf-8") for name, path in paths.items()} == expected


@pytest.mark.parametrize(
    "command, plot_flags",
    [
        ("tail", ["--survival-out", "--loglog-out", "--remaining-out"]),
        ("optimize", ["--curve-out"]),
    ],
    ids=["tail", "optimize"],
)
def test_log_without_converged_runs_is_one_error_line(capsys, tmp_path, command, plot_flags):
    log = tmp_path / "censored.jsonl"
    argv = ["--stub", "constant:7", "--stub-cap", "5", "--runs", "10", "--out", str(log)]
    assert run_cli(capsys, "collect", *argv)[0] == 0
    plots = [arg for i, flag in enumerate(plot_flags) for arg in (flag, str(tmp_path / f"{i}.tsv"))]
    code, out, err = run_cli(capsys, command, "--runs-file", str(log), *plots)
    assert (code, out, err) == (1, "", "restartkit: error: no converged runs\n")
    assert [path.name for path in tmp_path.iterdir()] == ["censored.jsonl"]


def test_tail_without_plot_files_builds_no_ecdf(capsys, tmp_path, monkeypatch):
    log = tmp_path / "runs.jsonl"
    argv = ["--stub", "discrete-pareto:1.5", "--stub-cap", "1000", "--runs", "400", "--seed", "3"]
    assert run_cli(capsys, "collect", *argv, "--out", str(log))[0] == 0
    remaining = ["--remaining-out", str(tmp_path / "remaining.tsv")]
    expect = run_cli(capsys, "tail", "--runs-file", str(log), *remaining)

    def refuse(*args, **kwargs):
        raise AssertionError("tail builds the ECDF only for --survival-out or --loglog-out")

    monkeypatch.setattr(tailstats, "empirical_cdf", refuse)
    monkeypatch.setattr(tailstats, "survival_table", refuse)
    assert run_cli(capsys, "tail", "--runs-file", str(log), *remaining) == expect
    assert expect[0] == 0 and "n/a" not in expect[1]


# Every statistic and summary that reads a sample's table. Their values are
# compared as `repr` spells them, so NaN stderrs compare equal.
TABLE_READERS = [
    lambda s: [column.tolist() for column in astuple(empirical_cdf(s))[:2]],
    lambda s: hill_estimator(s, 8),
    lambda s: loglog_tail_slope(s, 0.3),
    lambda s: expected_remaining(s, 4),
    remaining_time_profile,
    restart_profitable,
    summary_stats,
]


class TestOneTabulation:
    @pytest.mark.parametrize(
        "command, plot_flags",
        [
            ("tail", ["--survival-out", "--loglog-out", "--remaining-out"]),
            ("tail", []),
            ("optimize", ["--curve-out"]),
        ],
        ids=["tail-plots", "tail", "optimize"],
    )
    def test_each_command_tabulates_its_sample_once(
        self, capsys, tmp_path, monkeypatch, command, plot_flags
    ):
        log = tmp_path / "runs.jsonl"
        argv = ["--stub", "discrete-pareto:1.5", "--stub-cap", "1000", "--runs", "400", "--seed", "3"]
        assert run_cli(capsys, "collect", *argv, "--out", str(log))[0] == 0
        calls = []
        table = runner.RunSample.table.func
        monkeypatch.setattr(
            runner.RunSample.table, "func", lambda sample: calls.append(sample) or table(sample)
        )
        plots = [arg for i, flag in enumerate(plot_flags) for arg in (flag, str(tmp_path / f"{i}.tsv"))]
        code, out, _ = run_cli(capsys, command, "--runs-file", str(log), *plots)
        assert code == 0 and "n/a" not in out
        assert len(calls) == 1

    @given(st.permutations(range(len(TABLE_READERS))))
    def test_statistics_read_a_frozen_table_in_any_order(self, order):
        def sample():
            times = [1] * 40 + [2] * 30 + [3, 5, 5, 8, 13, 21, 34, 55, 89, 144]
            return make_sample(times, cap=200, censored=4)

        alone = [repr(read(sample())) for read in TABLE_READERS]
        shared = sample()
        for _ in range(2):
            assert [repr(TABLE_READERS[i](shared)) for i in order] == [alone[i] for i in order]
        support = empirical_cdf(shared).support
        with pytest.raises(ValueError, match="read-only"):
            support[0] = 2
        assert support.tolist() == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]


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
    def test_schedules_leave_the_parsed_gammas_alone(self):
        # The namespace is read, not extended: each call builds the same list.
        args = build_parser().parse_args(
            ["sweep", "--stub", "constant:5", "--gammas", "2,4", "--luby-unit", "5", "--fixed", "9"]
        )
        first = [s.describe() for s in _sweep_schedules(args)]
        assert first == ["walsh:2", "walsh:4", "luby:5", "fixed:9"]
        assert [s.describe() for s in _sweep_schedules(args)] == first
        assert [s.describe() for s in args.gammas] == ["walsh:2", "walsh:4"]

    @pytest.mark.parametrize(
        "source",
        [
            ["--stub", "discrete-pareto:0.5:50", "--stub-cap", "5000", "--gammas", "2,3",
             "--luby-unit", "40", "--fixed", "90", "--trials", "60", "--seed", "5"],
            ["--data", DATA_PATH, "--max-epochs", "1500", "--gammas", "2,4",
             "--luby-unit", "200", "--fixed", "600", "--trials", "3", "--seed", "11"],
            # 4 of the 7 baseline runs are censored; on 2 workers its blocks are 4 and 3 runs.
            ["--stub", "discrete-pareto:0.5:50", "--stub-cap", "500", "--gammas", "2,3",
             "--luby-unit", "40", "--fixed", "90", "--trials", "7", "--seed", "5"],
        ],
        ids=["stub", "mlp", "stub-censored"],
    )
    def test_equals_separate_pools(self, capsys, source):
        expected = separate_pools_sweep(["sweep", *source])
        for jobs in ("1", "2"):
            code, out, err = run_cli(capsys, "sweep", *source, "--jobs", jobs)
            assert code == 0, err
            assert out == expected, jobs

    def test_one_trial_is_an_error(self, capsys, monkeypatch):
        def train(*args):
            raise AssertionError("sweep trained before rejecting --trials 1")

        monkeypatch.setattr(mlp, "_train_runs", train)
        for source in (["--stub", "constant:5"], ["--data", DATA_PATH]):
            code, out, err = run_cli(capsys, "sweep", *source, "--gammas", "2", "--trials", "1")
            assert code == 1
            assert err == "restartkit: error: n_trials must be >= 2, got 1\n"
            assert out == ""

    SWEEP = ["sweep", "--stub", "geometric:0.01", "--stub-cap", "300", "--gammas", "2,4",
             "--fixed", "50", "--seed", "3", "--jobs", "2"]

    @staticmethod
    def queued(monkeypatch, pool_class):
        """The tasks queued on each pool started, in order; two CPUs, whatever the machine."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        queues = []

        class Recording(pool_class):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                queues.append([])

            def submit(self, fn, *args):
                queues[-1].append(fn)
                return super().submit(fn, *args)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recording)
        return queues

    def test_one_pool_baseline_first(self, capsys, monkeypatch):
        # Threads stand in for the pool so the pools are counted here.
        queues = self.queued(monkeypatch, ThreadPoolExecutor)
        code, out, err = run_cli(capsys, *self.SWEEP, "--trials", "40")
        assert code == 0, err
        assert len(queues) == 1
        args = build_parser().parse_args([*self.SWEEP, "--trials", "40"])
        process, schedules = _build_process(args), _sweep_schedules(args)
        baseline, _ = runner.collect_tasks(process, 40, 3, 2)
        trials, _ = strategies.trial_tasks(process, schedules, 40, 3, 20 * 300, 2)
        assert [(t.func.__name__, t.args) for t in queues[0]] == [
            (t.func.__name__, t.args) for t in baseline + trials
        ]
        assert [t.func.__name__ for t in queues[0][:2]] == ["attempt_many"] * 2

    def test_each_baseline_block_is_its_own_pool_task(self, capsys, monkeypatch):
        class Inline:
            """Runs each task in this thread as it is queued: no process starts."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        queues = self.queued(monkeypatch, Inline)
        code, out, err = run_cli(capsys, *self.SWEEP, "--trials", "200")
        assert code == 0, err
        # Each pool task's seeds: the baseline's runs, then blocks of trials.
        sizes = [(t.func.__name__, len(t.args[-2])) for t in queues[0]]
        assert sizes == [("attempt_many", 100)] * 2 + [("_trials", 12)] * 16 + [("_trials", 8)]

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
    SWEEP = ["sweep", "--stub", "constant:3"]
    RESTART = ["restart-run", "--stub", "constant:3", "--schedule", "fixed:5"]

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
            # Schedule cutoffs stay within the budget, so within 2**63 - 1 too.
            (SWEEP + ["--budget", str(2**63)],
             f"sweep: error: argument --budget: must be in [1, 2**63 - 1], got {2**63}"),
            (RESTART + ["--budget", str(2**63)],
             f"restart-run: error: argument --budget: must be in [1, 2**63 - 1], got {2**63}"),
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
            (RESTART + ["--budget", str(2**63 - 1)], "budget", 2**63 - 1),
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

    def test_default_budget_at_the_largest_cap(self, capsys):
        # 20 cutoffs at the cap would pass 2**63 - 1; the default budget
        # stops there, so the second cutoff, 10**19, is never attempted.
        code, out, err = run_cli(
            capsys,
            "restart-run",
            "--stub", "constant:3",
            "--stub-cap", str(2**63 - 1),
            "--schedule", "walsh:1e19",
        )
        assert code == 0, err
        assert out.splitlines()[1:] == ["1\t1\t1", "# budget-exhausted: attempts=1 total_epochs=1"]

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
