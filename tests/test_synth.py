import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from restartkit import (
    Constant,
    DiscretePareto,
    Geometric,
    RunRecord,
    SyntheticProcess,
    TwoPoint,
    collect_runs,
    exact_ecdf,
    parse_law,
    runner,
)
from restartkit.cli import main
from restartkit.runner import mix64


def seeds(n, offset=0):
    return np.arange(offset, offset + n, dtype=np.uint64)


class TestConstant:
    def test_sample_and_cdf(self):
        law = Constant(7)
        assert law.sample_many([123])[0] == 7
        assert law.cdf(6) == 0.0
        assert law.cdf(7) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Constant(0)


class TestTwoPoint:
    def test_law_of_large_numbers(self):
        law = TwoPoint(0.5, 1, 10)
        draws = law.sample_many(seeds(100_000))
        assert set(np.unique(draws)) == {1, 10}
        assert abs(np.mean(draws == 1) - 0.5) < 0.01

    def test_cdf_steps(self):
        law = TwoPoint(0.3, 2, 5)
        assert law.cdf(1) == 0.0
        assert law.cdf(2) == 0.3
        assert law.cdf(4) == 0.3
        assert law.cdf(5) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TwoPoint(0.0, 1, 10)
        with pytest.raises(ValueError):
            TwoPoint(0.5, 10, 10)


class TestGeometric:
    def test_mean_matches_one_over_p(self):
        law = Geometric(0.1)
        draws = law.sample_many(seeds(100_000))
        stderr = np.std(draws, ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 10.0) < 3 * stderr

    def test_textbook_cdf(self):
        law = Geometric(0.25)
        for t in (1, 2, 5, 20):
            assert law.cdf(t) == pytest.approx(1 - 0.75**t, rel=1e-12)
        assert law.cdf(0) == 0.0

    def test_min_value_is_one(self):
        law = Geometric(0.9)
        assert law.sample_many(seeds(10_000)).min() == 1


class TestDiscretePareto:
    def test_cdf_polynomial_decay(self):
        law = DiscretePareto(1.5, 1)
        for t in (1, 2, 10, 100):
            assert law.cdf(t) == pytest.approx(1 - t**-1.5, rel=1e-12)

    def test_ceil_coupling_frequencies(self):
        # Contract: draws must be distributed exactly as cdf() says.
        law = DiscretePareto(1.5, 1)
        draws = law.sample_many(seeds(1_000_000))
        for t in (1, 2, 3, 5, 10, 50):
            emp = np.mean(draws <= t)
            assert abs(emp - law.cdf(t)) < 0.005

    def test_samples_at_least_one(self):
        law = DiscretePareto(0.5, 1)
        assert law.sample_many(seeds(10_000)).min() >= 1


class TestDkwAgreement:
    @pytest.mark.parametrize(
        "law",
        [
            TwoPoint(0.5, 1, 10),
            Geometric(0.1),
            DiscretePareto(1.5, 1),
            Constant(4),
        ],
        ids=lambda law: law.describe(),
    )
    def test_empirical_cdf_within_dkw_band(self, law):
        draws = law.sample_many(seeds(100_000, offset=7))
        for t in range(1, 51):
            assert abs(np.mean(draws <= t) - law.cdf(t)) < 0.01


class TestScalarVectorConsistency:
    def test_sample_matches_sample_many(self):
        for law in (TwoPoint(0.5, 1, 10), Geometric(0.3), DiscretePareto(2.0, 3)):
            s = seeds(200, offset=31)
            bulk = law.sample_many(s)
            proc = SyntheticProcess(law)
            attempts = [proc.attempt(int(x), proc.cap).epochs for x in s]
            singles = [law.sample_many([int(x)])[0] for x in s]
            assert attempts == singles == bulk.tolist()


class TestExactEcdf:
    def test_two_point_support(self):
        e = exact_ecdf(TwoPoint(0.5, 1, 10), cap=10)
        assert e.support.tolist() == [1, 10]
        assert e.cum_prob.tolist() == [0.5, 1.0]
        assert e.censored_mass == 0.0

    def test_truncation_reports_censored_mass(self):
        law = Geometric(0.1)
        e = exact_ecdf(law, cap=20)
        assert e.support.tolist() == list(range(1, 21))
        assert e.censored_mass == pytest.approx(1 - law.cdf(20), abs=1e-12)

    def test_cap_below_support_rejected(self):
        with pytest.raises(ValueError):
            exact_ecdf(Constant(5), cap=4)


class TestSyntheticProcess:
    def test_attempt_respects_cutoff(self):
        proc = SyntheticProcess(TwoPoint(0.5, 1, 10), cap_epochs=100)
        for seed in range(50):
            rec = proc.attempt(seed, 5)
            drawn = proc.law.sample_many([seed])[0]
            if drawn <= 5:
                assert rec.converged and rec.epochs == drawn
            else:
                assert not rec.converged and rec.epochs == 5

    def test_higher_cutoff_preserves_convergence_epoch(self):
        # Las Vegas contract: converged at e under cutoff c implies the
        # same e under any cutoff >= e.
        proc = SyntheticProcess(Geometric(0.2), cap_epochs=1000)
        for seed in range(30):
            rec = proc.attempt(seed, 50)
            if rec.converged:
                for cutoff in (rec.epochs, rec.epochs + 1, 1000):
                    again = proc.attempt(seed, cutoff)
                    assert again.converged and again.epochs == rec.epochs

    def test_deterministic(self):
        proc = SyntheticProcess(DiscretePareto(1.5, 1), cap_epochs=10_000)
        assert proc.attempt(99, 500) == proc.attempt(99, 500)


LAWS = [Constant(5), TwoPoint(0.3, 2, 40), Geometric(0.1), DiscretePareto(1.2, 3)]
EDGE_SEEDS = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]


def one_seed_attempt(law, seed, cutoff):
    """A one-seed attempt as drawn before blocks existed: the seed mixed as
    a Python int, then inverted on a 1-element array."""
    t = int(law.quantile(np.array([mix64(int(seed)) / 2.0**64]))[0])
    if t <= cutoff:
        return RunRecord(seed=seed, epochs=t, converged=True, final_error=0.0)
    return RunRecord(seed=seed, epochs=cutoff, converged=False, final_error=1.0)


class TestAttemptMany:
    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.describe())
    def test_equals_one_seed_attempts(self, law):
        proc = SyntheticProcess(law, cap_epochs=1000)
        block = EDGE_SEEDS + seeds(400, offset=2**40).tolist()
        draws = law.sample_many(block)
        # Cutoffs below every draw, between draws, and above every draw.
        for cutoff in (1, int(np.median(draws)), int(draws.max())):
            batch = proc.attempt_many(block, cutoff)
            assert batch == [proc.attempt(s, cutoff) for s in block]
            assert batch == [one_seed_attempt(law, s, cutoff) for s in block]

    def test_cutoff_is_checked(self):
        with pytest.raises(ValueError, match="cutoff"):
            SyntheticProcess(Geometric(0.5)).attempt_many([1, 2], 0)

    def test_empty_block(self):
        assert SyntheticProcess(Geometric(0.5)).attempt_many([], 3) == []


def count_quantile_calls(monkeypatch, law_class) -> list[int]:
    """Log the size of every `law_class.quantile` call in the returned list."""
    calls = []
    quantile = law_class.quantile

    def counting(self, u):
        calls.append(len(u))
        return quantile(self, u)

    monkeypatch.setattr(law_class, "quantile", counting)
    return calls


class TestStubCollectBlocks:
    def test_parallel_equals_serial_on_ragged_blocks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        n = 203
        assert n % runner._task_size(n, 2) != 0
        proc = SyntheticProcess(DiscretePareto(0.5, 50), cap_epochs=5000)
        assert collect_runs(proc, n, 9, n_jobs=1) == collect_runs(proc, n, 9, n_jobs=2)

    def test_one_quantile_call_per_block(self, monkeypatch):
        # Threads stand in for the pool so the calls are counted here.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(runner, "ProcessPoolExecutor", ThreadPoolExecutor)
        calls = count_quantile_calls(monkeypatch, Geometric)
        sample = collect_runs(SyntheticProcess(Geometric(0.01)), 203, 4, n_jobs=2)
        assert sample.n_runs == 203
        assert sorted(calls) == [11] + [12] * 16

    def test_serial_cli_collect_draws_once(self, monkeypatch, tmp_path, capsys):
        calls = count_quantile_calls(monkeypatch, DiscretePareto)
        out = str(tmp_path / "runs.jsonl")
        argv = ["collect", "--stub", "discrete-pareto:0.5:50", "--stub-cap", "5000"]
        assert main([*argv, "--runs", "500", "--seed", "3", "--out", out]) == 0
        assert calls == [500]


class TestParseLaw:
    @pytest.mark.parametrize(
        "spec",
        ["constant:7", "two-point:0.5:1:10", "geometric:0.1", "discrete-pareto:1.5:2"],
    )
    def test_round_trip(self, spec):
        assert parse_law(spec).describe() == spec

    def test_pareto_default_xmin(self):
        law = parse_law("discrete-pareto:1.5")
        assert law == DiscretePareto(1.5, 1)

    @pytest.mark.parametrize(
        "spec",
        ["", "nope:1", "two-point:0.5:1", "constant:x", "geometric:2", "constant:-1"],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_law(spec)
