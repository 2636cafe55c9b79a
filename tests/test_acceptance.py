"""Acceptance suite: one test per release criterion.

Each test prints a PASS line once its assertions hold, so a verbose run
doubles as the acceptance report:

    pytest tests/test_acceptance.py -v -s

Criterion 6 trains the bundled case-study MLP a few hundred times and
takes a few minutes; everything else finishes in seconds.
"""

import math
import os

import numpy as np
import pytest

import restartkit as rk
from restartkit.cli import main as cli_main

from conftest import sample_from_times, tiny_dataset
from test_mlp import finite_difference_gradients

DATA_PATH = os.path.join(os.path.dirname(__file__), "..", "data", "thyroidlike-train.data")

COLLECT_SEED = 20260811
MC_SEED = 777


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_expected_time_oracle_equivalence():
    """Fixed-cutoff expectation formula vs renewal oracle and Monte Carlo."""
    law = rk.TwoPoint(0.5, 1, 10)
    ecdf = rk.exact_ecdf(law, cap=10)
    e1 = rk.fixed_cutoff_expected_time(ecdf, 1)
    e10 = rk.fixed_cutoff_expected_time(ecdf, 10)
    assert abs(e1 - 2.0) <= 1e-12
    assert abs(e10 - 5.5) <= 1e-12
    proc = rk.SyntheticProcess(law, cap_epochs=1000)
    res = rk.evaluate_strategy_mc(
        proc, rk.FixedSchedule(1), 100_000, base_seed=MC_SEED, budget=10_000
    )
    assert res.failure_rate == 0.0
    assert abs(res.mean_epochs - 2.0) <= 3 * res.stderr
    report(
        1,
        f"E[S_1]={e1} E[S_10]={e10} exact; MC {res.mean_epochs:.4f}"
        f"+-{res.stderr:.4f} within 3 stderr of 2.0",
    )


def test_criterion_2_optimal_cutoff_argmin():
    """optimal_cutoff minimizes the expected time over every support point."""
    laws = [
        (rk.TwoPoint(0.5, 1, 10), 10),
        (rk.TwoPoint(0.2, 3, 7), 7),
        (rk.Geometric(0.1), 200),
        (rk.DiscretePareto(1.5, 1), 1000),
        (rk.Constant(5), 5),
    ]
    for law, cap in laws:
        ecdf = rk.exact_ecdf(law, cap)
        t_star, best = rk.optimal_cutoff(ecdf)
        for t in ecdf.support:
            assert best <= rk.fixed_cutoff_expected_time(ecdf, int(t)) + 1e-12
    t_star, best = rk.optimal_cutoff(rk.exact_ecdf(rk.TwoPoint(0.5, 1, 10), 10))
    assert t_star == 1 and abs(best - 2.0) <= 1e-12
    report(2, f"argmin property on {len(laws)} laws; two-point t*=1, E=2.0")


def test_criterion_3_hill_estimator_recovery():
    """Hill estimate within 0.1 of the true index on Pareto samples."""
    m, r = 100_000, 10_000
    results = []
    for alpha, gen_seed in [(1.2, 101), (1.5, 102), (1.9, 103)]:
        rng = np.random.default_rng(gen_seed)
        continuous = (1.0 - rng.random(m)) ** (-1.0 / alpha)
        est = rk.hill_from_values(continuous, r)
        assert abs(est - alpha) <= 0.1
        # Same check through the RunSample interface; scaling by 1e6 makes
        # integer rounding negligible and Hill is scale-invariant.
        scaled = np.ceil(continuous * 1e6).astype(np.int64)
        sample = sample_from_times(scaled, cap=int(scaled.max()))
        est_int = rk.hill_estimator(sample, r)
        assert abs(est_int - alpha) <= 0.1
        results.append(f"alpha={alpha}: {est:.3f}/{est_int:.3f}")
    report(3, "; ".join(results))


def test_criterion_4_memorylessness_null_case():
    """Geometric samples show no genuine restart advantage; constant is empty."""
    law = rk.Geometric(0.1)
    times = law.sample_many(np.arange(100_000, dtype=np.uint64))
    sample = sample_from_times(times, cap=10_000_000)
    epochs = sample.converged_epochs()
    mean = epochs.mean()
    se_mean = epochs.std(ddof=1) / math.sqrt(epochs.size)
    for tau in (1, 5, 10, 20):
        beyond = epochs[epochs > tau] - tau
        se_cond = beyond.std(ddof=1) / math.sqrt(beyond.size)
        rem = rk.expected_remaining(sample, tau)
        assert abs(rem - mean) <= 3 * (se_cond + se_mean)
    # Any tau flagged profitable must be within noise of the baseline.
    profile = {row[0]: row for row in rk.remaining_time_profile(sample)}
    for tau in rk.restart_profitable(sample):
        _, cond_mean, n, stderr = profile[tau]
        if n >= 2 and math.isfinite(stderr):
            assert cond_mean - mean <= 3 * (stderr + se_mean)
    assert rk.restart_profitable(sample_from_times(np.full(500, 7), cap=100)) == []
    report(4, "geometric conditional means within noise; constant law empty")


def test_criterion_5_gradient_correctness():
    """Backprop vs central finite differences on 20 random instances."""
    rng = np.random.default_rng(515)
    worst = 0.0
    for trial in range(20):
        cfg = rk.MlpConfig(
            n_inputs=int(rng.integers(2, 8)),
            n_hidden=int(rng.integers(1, 6)),
            n_outputs=int(rng.integers(1, 4)),
            init_half_width=float(rng.uniform(0.2, 2.0)),
        )
        state = rk.init_weights(cfg, int(rng.integers(0, 10_000)))
        data = tiny_dataset(
            n_rows=int(rng.integers(1, 6)),
            n_features=cfg.n_inputs,
            n_outputs=cfg.n_outputs,
            seed=trial,
        )
        analytic = rk.backprop_gradients(state, data)
        numeric = finite_difference_gradients(state, data, h=1e-5)
        for a, n in zip(analytic, numeric):
            worst = max(worst, float(np.max(np.abs(a - n))))
    assert worst <= 1e-6
    report(5, f"max |backprop - central difference| = {worst:.2e} over 20 instances")


@pytest.fixture(scope="module")
def case_study():
    data = rk.scale_min_max(rk.load_thyroid(DATA_PATH))
    cfg = rk.MlpConfig()
    assert cfg.n_hidden == 3 and cfg.target_error == 0.02 and cfg.max_epochs == 20000
    process = rk.MlpProcess(cfg=cfg, data=data)
    sample = rk.collect_runs(process, 200, base_seed=COLLECT_SEED, n_jobs=2)
    return process, sample


def test_criterion_6a_case_study_dispersion(case_study):
    """Training-time deviation at least as large as the mean."""
    _, sample = case_study
    stats = rk.summary_stats(sample)
    assert stats.ratio >= 1.0
    report(
        "6a",
        f"{stats.n_converged} converged / {stats.n_censored} censored; "
        f"mean {stats.mean:.1f}, sd {stats.stddev:.1f}, ratio {stats.ratio:.2f}",
    )


def test_criterion_6b_case_study_profitability(case_study):
    """The conditional remaining time exceeds the mean somewhere."""
    _, sample = case_study
    profitable = rk.restart_profitable(sample)
    assert len(profitable) > 0
    report("6b", f"{len(profitable)} profitable tau values, first {profitable[0]}")


def test_criterion_6c_case_study_optimal_cutoff_gain(case_study):
    """Fresh Monte Carlo of the empirical-optimal cutoff cuts >= 20%."""
    process, sample = case_study
    stats = rk.summary_stats(sample)
    t_star, _ = rk.optimal_cutoff(rk.empirical_cdf(sample))
    res = rk.evaluate_strategy_mc(
        process,
        rk.FixedSchedule(t_star),
        200,
        base_seed=MC_SEED,
        budget=20 * process.cap,
        n_jobs=2,
    )
    reduction = (stats.mean - res.mean_epochs) / stats.mean
    assert reduction >= 0.20
    report(
        "6c",
        f"fixed({t_star}): {res.mean_epochs:.1f}+-{res.stderr:.1f} vs "
        f"no-restart {stats.mean:.1f} -> {100 * reduction:.1f}% reduction",
    )


def test_criterion_6d_case_study_walsh_gain(case_study):
    """Some Walsh gamma in 2..10 cuts the mean by >= 5%."""
    process, sample = case_study
    stats = rk.summary_stats(sample)
    reductions = {}
    for gamma in (2.0, 4.0, 8.0):
        res = rk.evaluate_strategy_mc(
            process,
            rk.WalshSchedule(gamma),
            200,
            base_seed=MC_SEED,
            budget=20 * process.cap,
            n_jobs=2,
        )
        reductions[gamma] = (stats.mean - res.mean_epochs) / stats.mean
    best = max(reductions.values())
    assert best >= 0.05
    report(
        "6d",
        "walsh reductions "
        + ", ".join(f"g={g:g}: {100 * r:.1f}%" for g, r in reductions.items()),
    )


def test_criterion_7_schedule_unit_values():
    """Exact cutoff sequences for the Walsh and Luby schedules."""
    walsh = rk.WalshSchedule(2.0)
    assert [walsh.cutoff(i) for i in range(1, 6)] == [1, 2, 4, 8, 16]
    luby = rk.LubySchedule(1)
    assert [luby.cutoff(i) for i in range(1, 8)] == [1, 1, 2, 1, 1, 2, 4]
    report(7, "walsh(2) -> 1,2,4,8,16; luby(1) -> 1,1,2,1,1,2,4")


def test_criterion_8_determinism(tmp_path, capsys):
    """Identical flags and seeds give byte-identical logs and reports."""
    # Library level: collection and evaluation are reproducible and
    # invariant under the degree of parallelism.
    proc = rk.SyntheticProcess(rk.DiscretePareto(1.5, 1), cap_epochs=100_000)
    s1 = rk.collect_runs(proc, 300, base_seed=5, n_jobs=1)
    s2 = rk.collect_runs(proc, 300, base_seed=5, n_jobs=2)
    assert s1 == s2
    m1 = rk.evaluate_strategy_mc(proc, rk.WalshSchedule(3.0), 100, 5, 10_000, n_jobs=1)
    m2 = rk.evaluate_strategy_mc(proc, rk.WalshSchedule(3.0), 100, 5, 10_000, n_jobs=2)
    assert m1 == m2

    # CLI level: every stage twice, comparing bytes.
    outputs = []
    for round_id in ("x", "y"):
        log = tmp_path / f"{round_id}.jsonl"
        surv = tmp_path / f"{round_id}-surv.tsv"
        curve = tmp_path / f"{round_id}-curve.tsv"
        stage_out = []
        for argv in (
            ["collect", "--stub", "discrete-pareto:1.5", "--runs", "3000",
             "--seed", "17", "--out", str(log)],
            ["tail", "--runs-file", str(log), "--survival-out", str(surv)],
            ["optimize", "--runs-file", str(log), "--curve-out", str(curve)],
            ["sweep", "--stub", "two-point:0.5:1:10", "--stub-cap", "50",
             "--gammas", "2,4", "--trials", "500", "--seed", "9",
             "--budget", "5000"],
            ["restart-run", "--stub", "geometric:0.05", "--stub-cap", "1000",
             "--schedule", "walsh:2", "--seed", "33", "--budget", "100000"],
        ):
            assert cli_main(argv) == 0
            stage_out.append(capsys.readouterr().out)
        stage_out.append(log.read_bytes())
        stage_out.append(surv.read_bytes())
        stage_out.append(curve.read_bytes())
        outputs.append(stage_out)
    assert outputs[0] == outputs[1]
    report(8, "all five pipeline stages byte-identical across re-runs")
