import math
import os
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from restartkit import (
    Constant,
    DiscretePareto,
    Geometric,
    RunRecord,
    SyntheticProcess,
    TwoPoint,
    collect_runs,
    exact_ecdf,
    load_runs,
    parse_law,
    runner,
)
from restartkit.cli import main
from restartkit.runner import mix64

from conftest import BAD_CAP_IDS, BAD_CAPS


NUMBER_PARAMS = st.integers(-1, 12) | st.integers() | st.sampled_from([1.0, 2.5, True, False])
FLOAT_PARAMS = st.floats(0, 3) | st.floats() | st.integers(-1, 12) | st.integers() | st.booleans()
# Each law's constructor and the kind of each parameter: "i" int, "f" float.
LAW_PARAMS = {Constant: "i", TwoPoint: "fii", Geometric: "f", DiscretePareto: "fi"}


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

    # `_saturated` would truncate 2.5 to 2 while `cdf` puts the mass at 3.
    @pytest.mark.parametrize(
        "c", [2.5, 3.0, True, np.int64(3)], ids=["float", "whole-float", "bool", "numpy-int"]
    )
    def test_rejects_non_int_time(self, c):
        message = f"constant time must be an integer, got {c!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Constant(c)


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

    # `_saturated` would draw 1 for a = 0.5 while `cdf` puts q(2) = 0.5.
    @pytest.mark.parametrize(
        "a, b", [(0.5, 3), (1, 3.0), (True, 3), (np.int64(1), 3)],
        ids=["float-a", "whole-float-b", "bool-a", "numpy-int-a"],
    )
    def test_rejects_non_int_times(self, a, b):
        message = f"a and b must be integers, got a={a!r}, b={b!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TwoPoint(0.5, a, b)


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
        assert 1.0 - e.cum_prob[-1] == 0.0

    def test_truncation_reports_censored_mass(self):
        law = Geometric(0.1)
        e = exact_ecdf(law, cap=20)
        assert e.support.tolist() == list(range(1, 21))
        assert 1.0 - e.cum_prob[-1] == pytest.approx(1 - law.cdf(20), abs=1e-12)

    def test_cap_below_support_rejected(self):
        with pytest.raises(ValueError):
            exact_ecdf(Constant(5), cap=4)

    @pytest.mark.parametrize("cap, problem", BAD_CAPS, ids=BAD_CAP_IDS)
    def test_rejects_a_cap_no_sample_holds(self, cap, problem):
        with pytest.raises(ValueError) as info:
            exact_ecdf(Constant(1), cap=cap)
        assert str(info.value) == f"cap {problem}"


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

    # A cap that no sample holds is refused where the process is built.
    @pytest.mark.parametrize("cap, problem", BAD_CAPS, ids=BAD_CAP_IDS)
    def test_rejects_a_cap_no_sample_holds(self, cap, problem):
        with pytest.raises(ValueError) as info:
            SyntheticProcess(Geometric(0.5), cap_epochs=cap)
        assert str(info.value) == f"cap_epochs {problem}"


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
            batch = proc.attempt_many(block, cutoff).records(block)
            assert batch == [proc.attempt(s, cutoff) for s in block]
            assert batch == [one_seed_attempt(law, s, cutoff) for s in block]

    def test_cutoff_is_checked(self):
        with pytest.raises(ValueError, match="cutoff"):
            SyntheticProcess(Geometric(0.5)).attempt_many([1, 2], 0)

    def test_empty_block(self):
        block = SyntheticProcess(Geometric(0.5)).attempt_many([], 3)
        assert [len(column) for column in block] == [0] * 4


def unmix64(z: int) -> int:
    """The seed that `mix64` maps to `z`: each step of the finalizer undone."""

    def unshift(z, k):  # inverse of z ^ (z >> k)
        x = z
        for _ in range(64 // k):
            x = z ^ (x >> k)
        return x

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return (unshift(z, 30) - 0x9E3779B97F4A7C15) % 2**64


# Its uniform mix64(seed) / 2**64 rounds to exactly 1.0, so the inverse CDF is infinite.
UNIT_SEED = unmix64(2**64 - 1)


class TestDrawsPastInt64:
    @pytest.mark.parametrize(
        "law", [Geometric(0.5), DiscretePareto(0.1), DiscretePareto(1.5, 3)], ids=str
    )
    def test_censored_at_the_largest_cutoff(self, law):
        assert mix64(np.array([UNIT_SEED], dtype=np.uint64))[0] / 2.0**64 == 1.0
        proc = SyntheticProcess(law, cap_epochs=runner.MAX_CAP)
        block = [UNIT_SEED, *range(1000)]
        records = proc.attempt_many(block, runner.MAX_CAP).records(block)
        assert records[0] == RunRecord(UNIT_SEED, runner.MAX_CAP, False, 1.0)
        assert records == [proc.attempt(seed, runner.MAX_CAP) for seed in block]

    def test_pareto_draw_is_exact_or_censored(self):
        # (1 - u)^-10 passes 2**63 for about 1.3% of the uniforms.
        law = DiscretePareto(0.1)
        block = list(range(1000))
        records = SyntheticProcess(law).attempt_many(block, runner.MAX_CAP).records(block)
        for r in records:
            x = ((1.0 - np.array([mix64(r.seed) / 2.0**64])) ** -10.0)[0]
            if x < 2.0**63:
                assert r.converged and r.epochs == math.ceil(x)
            else:
                assert not r.converged and r.epochs == runner.MAX_CAP
        assert 5 <= sum(not r.converged for r in records) <= 25

    def test_rejects_a_cutoff_past_the_largest_cap(self):
        # Seed 191 draws about 1.43e20; a cutoff past 2**63 would report it
        # converged at the saturated 2**63.
        proc = SyntheticProcess(parse_law("discrete-pareto:0.1"))
        with pytest.raises(ValueError, match=rf"cutoff must be <= 2\*\*63 - 1, got {2**70}$"):
            proc.attempt(191, 2**70)
        with pytest.raises(ValueError, match="cutoff must be >= 1, got 0"):
            proc.attempt(191, 0)
        assert proc.attempt(191, runner.MAX_CAP) == RunRecord(191, runner.MAX_CAP, False, 1.0)

    def test_cli_collect(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        argv = ["collect", "--stub", "discrete-pareto:0.1", "--runs", "1000", "--out", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.err == ""
        sample = load_runs(out)
        assert sample.n_runs == 1000 and 0 < sample.n_censored < 1000
        assert set(sample.epochs[~sample.converged].tolist()) == {1_000_000}


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
        assert n % math.ceil(n / 2) != 0
        proc = SyntheticProcess(DiscretePareto(0.5, 50), cap_epochs=5000)
        assert collect_runs(proc, n, 9, n_jobs=1) == collect_runs(proc, n, 9, n_jobs=2)

    def test_one_quantile_call_per_block(self, monkeypatch):
        # Threads stand in for the pool so the calls are counted here.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ThreadPoolExecutor)
        calls = count_quantile_calls(monkeypatch, Geometric)
        sample = collect_runs(SyntheticProcess(Geometric(0.01)), 203, 4, n_jobs=2)
        assert sample.n_runs == 203
        assert sorted(calls) == [101, 102]

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

    # Each law's constructor and its parameters: an int parameter may come as
    # any number, a bool among them, and a float parameter as any float, any
    # int or a bool.
    @given(
        st.sampled_from(list(LAW_PARAMS)).flatmap(
            lambda law: st.tuples(
                st.just(law),
                st.tuples(*(FLOAT_PARAMS if k == "f" else NUMBER_PARAMS for k in LAW_PARAMS[law])),
            )
        )
    )
    @example((DiscretePareto, (1.5, 2.5)))
    @example((DiscretePareto, (1.5, True)))
    @example((DiscretePareto, (1.5, 1.0)))
    @example((DiscretePareto, (2**53 + 1,)))
    @example((DiscretePareto, (True,)))
    @example((DiscretePareto, (10**400,)))
    @example((TwoPoint, (True, 1, 2)))
    def test_describe_parses_back(self, law_and_params):
        # `describe` labels run-log metadata, so every law that builds must
        # read back from its label as the same law, and a float parameter
        # given as a bool must not build.
        law, params = law_and_params
        try:
            built = law(*params)
        except ValueError:
            return
        assert not any(type(p) is bool for p, kind in zip(params, LAW_PARAMS[law]) if kind == "f")
        assert parse_law(built.describe()) == built

    def test_pareto_default_xmin(self):
        law = parse_law("discrete-pareto:1.5")
        assert law == DiscretePareto(1.5, 1)

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "nope:1",
            "two-point:0.5:1",
            "constant:x",
            "geometric:2",
            "constant:-1",
            # NaN passes `alpha <= 0`, and an infinite alpha draws x_min
            # every time although cdf(x_min) is 0.
            "discrete-pareto:nan",
            "discrete-pareto:inf",
            "discrete-pareto:-inf",
        ],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_law(spec)
