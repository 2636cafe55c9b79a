import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from restartkit import (
    DegenerateTailError,
    DiscretePareto,
    Ecdf,
    Geometric,
    InsufficientDataError,
    RunBlock,
    RunSample,
    empirical_cdf,
    expected_remaining,
    hill_estimator,
    hill_from_values,
    loglog_tail_slope,
    remaining_time_profile,
    restart_profitable,
    survival_table,
    tailstats,
)

from conftest import make_sample, sample_from_times


class TestEcdfChecks:
    @pytest.mark.parametrize(
        "support, cum_prob",
        [
            ([1, 2], [0.5, 1.5]),
            ([1, 2], [math.nan, math.nan]),
            ([1.5, 2.5], [0.5, 1.0]),
        ],
        ids=["probability-past-1", "nan-probabilities", "fractional-support"],
    )
    def test_rejects_what_is_no_distribution(self, support, cum_prob):
        with pytest.raises(ValueError):
            Ecdf(np.array(support), np.array(cum_prob), 5)

    def test_accepts_a_distribution_with_censored_mass(self):
        e = Ecdf(np.array([1, 2], dtype=np.uint64), np.array([0.25, 1.0 - 2**-53]), 5)
        assert e.support.tolist() == [1, 2]


class TestEmpiricalCdf:
    def test_counting(self):
        # q(2) = q(1): the step holds between support points.
        e = empirical_cdf(make_sample([1, 1, 3]))
        assert e.support.tolist() == [1, 3]
        assert e.cum_prob.tolist() == [2 / 3, 1.0]
        assert 1.0 - e.cum_prob[-1] == 0.0

    def test_counting_with_censoring(self):
        e = empirical_cdf(make_sample([1], censored=1))
        assert (e.support.tolist(), e.cum_prob.tolist()) == ([1], [0.5])
        assert 1.0 - e.cum_prob[-1] == 0.5

    def test_geometric_oracle(self):
        law = Geometric(0.1)
        times = law.sample_many(np.arange(100_000, dtype=np.uint64))
        e = empirical_cdf(sample_from_times(times, cap=10_000_000))
        assert e.support[:50].tolist() == list(range(1, 51))
        for t, q in zip(range(1, 51), e.cum_prob):
            assert abs(q - (1 - 0.9**t)) < 0.01

    def test_requires_converged_records(self):
        with pytest.raises(InsufficientDataError):
            empirical_cdf(make_sample([], censored=3))


class TestSurvival:
    def test_below_support_everything_survives(self):
        # The table starts at the first completion time: before it, Pr(T > t) = 1.
        e = empirical_cdf(make_sample([5, 9]))
        assert survival_table(e) == [(5, 0.5), (9, 0.0)]

    def test_at_cap_without_censoring(self):
        e = empirical_cdf(make_sample([3, 7], cap=7))
        assert survival_table(e)[-1] == (7, 0.0)

    def test_censored_mass_survives_beyond_cap(self):
        e = empirical_cdf(make_sample([3], cap=10, censored=1))
        assert survival_table(e) == [(3, 0.5)]

    def test_geometric_oracle(self):
        law = Geometric(0.1)
        times = law.sample_many(np.arange(100_000, dtype=np.uint64))
        e = empirical_cdf(sample_from_times(times, cap=10_000_000))
        table = dict(survival_table(e))
        for t in range(1, 51):
            assert abs(table[t] - 0.9**t) < 0.01

    def test_nonincreasing_and_complements_cdf(self):
        e = empirical_cdf(make_sample([2, 2, 5, 11, 30], censored=2))
        table = survival_table(e)
        values = [s for _, s in table]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert [t for t, _ in table] == e.support.tolist()
        for s, q in zip(values, e.cum_prob):
            assert s + q == pytest.approx(1.0, abs=1e-15)


class TestLogLogTailSlope:
    def test_exact_line_recovery(self):
        # Sample built so survival is exactly 0.5 * t^-1.5 on the support
        # {1, 4, 16, 64}: counts 512, 448, 56, 7 out of 1024, final point
        # 256 carries the last run (survival 0 there, dropped from the fit).
        epochs = [1] * 512 + [4] * 448 + [16] * 56 + [64] * 7 + [256]
        slope = loglog_tail_slope(make_sample(epochs), tail_fraction=0.999)
        assert slope == pytest.approx(-1.5, abs=1e-9)

    def test_discrete_pareto_recovers_alpha(self):
        law = DiscretePareto(1.5, 1)
        times = law.sample_many(np.arange(100_000, dtype=np.uint64))
        sample = sample_from_times(times, cap=10**9)
        slope = loglog_tail_slope(sample, tail_fraction=0.1)
        assert -1.8 <= slope <= -1.2

    def test_insufficient_tail(self):
        with pytest.raises(InsufficientDataError):
            loglog_tail_slope(make_sample([1, 2, 3, 4, 5]), tail_fraction=0.5)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            loglog_tail_slope(make_sample(range(1, 101)), tail_fraction=1.5)

    def test_builds_no_ecdf_or_survival_table(self, monkeypatch):
        sample = make_sample([1] * 40 + [2] * 30 + [3, 5, 5, 8, 13, 21, 34, 55, 89, 144], censored=4)
        expect = loglog_tail_slope(sample, tail_fraction=0.3)

        def refuse(*args, **kwargs):
            raise AssertionError("loglog_tail_slope reads the tabulation only")

        for name in ("Ecdf", "empirical_cdf", "survival_table"):
            monkeypatch.setattr(tailstats, name, refuse)
        assert loglog_tail_slope(sample, tail_fraction=0.3) == expect


class TestHillEstimator:
    def test_contrived_unit_spacing(self):
        # Top-2 mean log spacing is exactly 1: H = (2+2)/2 - 1 = 1.
        e = math.e
        values = np.array([1.0, e, e**2, e**2])
        assert hill_from_values(values, r=2) == pytest.approx(1.0, abs=1e-12)

    def test_integer_sample_exact(self):
        # Sorted [2,4,8,8], r=2: H = mean(ln 8, ln 8) - ln 4 = ln 2.
        alpha = hill_estimator(make_sample([8, 2, 8, 4]), r=2)
        assert alpha == pytest.approx(1.0 / math.log(2.0), abs=1e-12)

    def test_scale_invariance(self):
        values = np.array([3.0, 7.0, 21.0, 60.0, 200.0, 1000.0])
        a1 = hill_from_values(values, r=3)
        a2 = hill_from_values(values * 1000.0, r=3)
        assert a1 == pytest.approx(a2, rel=1e-12)

    def test_pareto_recovery(self):
        # Continuous Pareto(1.5) via an independent generator and inverse CDF.
        rng = np.random.default_rng(2024)
        u = rng.random(100_000)
        values = (1.0 - u) ** (-1.0 / 1.5)
        assert abs(hill_from_values(values, r=10_000) - 1.5) <= 0.1

    def test_degenerate_tail(self):
        with pytest.raises(DegenerateTailError):
            hill_from_values(np.array([1.0, 5.0, 5.0, 5.0]), r=2)

    def test_r_bounds(self):
        with pytest.raises(ValueError):
            hill_from_values(np.array([1.0, 2.0, 3.0]), r=1)
        with pytest.raises(ValueError):
            hill_from_values(np.array([1.0, 2.0, 3.0]), r=3)

    def test_requires_converged_runs(self):
        with pytest.raises(InsufficientDataError):
            hill_estimator(make_sample([], censored=5), r=2)


class TestExpectedRemaining:
    def test_deterministic_runtime(self):
        s = make_sample([9, 9, 9])
        for tau in (0, 3, 8):
            assert expected_remaining(s, tau) == pytest.approx(9 - tau)

    def test_single_survivor(self):
        assert expected_remaining(make_sample([2, 10]), 5) == pytest.approx(5.0)

    def test_tau_zero_equals_mean(self):
        s = make_sample([3, 5, 5, 40])
        assert expected_remaining(s, 0) == pytest.approx(53 / 4, abs=1e-12)

    def test_geometric_memorylessness(self):
        law = Geometric(0.1)
        times = law.sample_many(np.arange(100_000, dtype=np.uint64))
        s = sample_from_times(times, cap=10_000_000)
        epochs = s.converged_epochs()
        mean = epochs.mean()
        se_mean = epochs.std(ddof=1) / math.sqrt(epochs.size)
        for tau in (1, 5, 10, 20):
            beyond = epochs[epochs > tau] - tau
            se_cond = beyond.std(ddof=1) / math.sqrt(beyond.size)
            assert abs(expected_remaining(s, tau) - mean) < 3 * (se_cond + se_mean)

    def test_no_survivors(self):
        with pytest.raises(InsufficientDataError):
            expected_remaining(make_sample([2, 3]), 3)

    def test_numpy_tau_with_sums_past_int64(self):
        s = make_sample([2**62, 2**62 + 3, 2**62 + 3], cap=2**63 - 1)
        assert expected_remaining(s, np.int64(2**62)) == 3.0

    def test_no_converged_runs(self):
        with pytest.raises(InsufficientDataError, match="no converged runs"):
            expected_remaining(make_sample([], censored=3), 0)


class TestRemainingProfile:
    def test_first_row_is_plain_mean(self):
        s = make_sample([2, 4, 9])
        profile = remaining_time_profile(s)
        tau, mean, n, stderr = profile[0]
        assert tau == 0 and n == 3
        assert mean == pytest.approx(5.0)
        assert stderr == pytest.approx(np.std([2, 4, 9], ddof=1) / math.sqrt(3))

    def test_covers_support_with_survivors(self):
        s = make_sample([2, 4, 9])
        taus = [row[0] for row in remaining_time_profile(s)]
        assert taus == [0, 2, 4]


@st.composite
def small_samples(draw):
    """Small random run sample, censored runs included."""
    cap = draw(st.integers(min_value=1, max_value=200))
    epochs = draw(st.lists(st.integers(1, cap), min_size=1, max_size=40))
    censored = draw(st.integers(min_value=0, max_value=8))
    return make_sample(epochs, cap=cap, censored=censored)


class TestProfileOracle:
    @given(small_samples())
    def test_means_are_exact_integer_sums(self, s):
        epochs = sorted(int(e) for e in s.converged_epochs())
        for tau, mean, n, stderr in remaining_time_profile(s):
            beyond = [e - tau for e in epochs if e > tau]
            assert n == len(beyond)
            assert mean == sum(beyond) / n
            if n >= 2:
                assert stderr == pytest.approx(np.std(beyond, ddof=1) / math.sqrt(n), rel=1e-12)
            else:
                assert math.isnan(stderr)

    @given(
        st.lists(st.integers(1, 10**6), min_size=1, max_size=300),
        st.integers(0, 5),
    )
    def test_stderr_matches_numpy_std(self, epochs, censored):
        # O(support) sums of T and T^2 against np.std of each suffix slice.
        s = make_sample(epochs, cap=10**6, censored=censored)
        ordered = np.sort(s.converged_epochs())
        for tau, _, n, stderr in remaining_time_profile(s):
            if n < 2:
                assert math.isnan(stderr)
                continue
            expect = float(np.std(ordered[ordered > tau] - tau, ddof=1) / math.sqrt(n))
            assert stderr == pytest.approx(expect, rel=1e-12, abs=0.0)
            assert f"{stderr:.6f}" == f"{expect:.6f}"

    @given(st.lists(st.integers(1, 2**62), min_size=1, max_size=40))
    def test_exact_beyond_int64_sums(self, epochs):
        # Suffix sums of T (and T^2) here overflow int64; the rows stay exact.
        s = make_sample(epochs, cap=2**62)
        for tau, mean, n, stderr in remaining_time_profile(s):
            beyond = [e - tau for e in epochs if e > tau]
            assert n == len(beyond)
            assert mean == sum(beyond) / n
            if n >= 2:
                assert stderr == pytest.approx(
                    statistics.stdev(beyond) / math.sqrt(n), rel=1e-12, abs=0.0
                )

    @given(small_samples())
    def test_expected_remaining_is_exact_between_support_points(self, s):
        epochs = [int(e) for e in s.converged_epochs()]
        for tau in range(max(epochs)):
            beyond = [e - tau for e in epochs if e > tau]
            assert expected_remaining(s, tau) == sum(beyond) / len(beyond)
        for tau in (max(epochs), max(epochs) + 1, 10**30):
            with pytest.raises(InsufficientDataError):
                expected_remaining(s, tau)

    @given(small_samples())
    def test_profitable_matches_profile(self, s):
        profile = remaining_time_profile(s)
        expect = [tau for tau, mean, _, _ in profile[1:] if mean > profile[0][1]]
        assert restart_profitable(s) == expect


class TestRestartProfitable:
    def test_constant_sample_empty(self):
        assert restart_profitable(make_sample([6] * 10)) == []

    def test_hand_computed_example(self):
        # epochs (1,1,1,1,100): E[T] = 20.8, E[T-1 | T>1] = 99 > 20.8.
        s = make_sample([1, 1, 1, 1, 100])
        profitable = restart_profitable(s)
        assert 1 in profitable
        assert expected_remaining(s, 0) == pytest.approx(20.8)
        assert expected_remaining(s, 1) == pytest.approx(99.0)

    def test_discrete_pareto_mostly_profitable(self):
        law = DiscretePareto(1.5, 1)
        times = law.sample_many(np.arange(100_000, dtype=np.uint64))
        s = sample_from_times(times, cap=10**9)
        profitable = restart_profitable(s)
        support_size = len(np.unique(s.converged_epochs())) - 1
        assert len(profitable) > 0.5 * support_size


class TestSurvivalTable:
    def test_matches_pointwise_survival(self):
        # Pr(T > t) counts the runs past t, the censored one included, over all 5.
        s = make_sample([1, 1, 3, 8], censored=1)
        e = empirical_cdf(s)
        for t, surv in survival_table(e):
            past = sum(1 for x in (1, 1, 3, 8) if x > t) + 1
            assert surv == pytest.approx(past / 5)

    def test_python_values_of_the_ecdf_columns(self):
        e = empirical_cdf(make_sample([1, 1, 3, 8, 8, 40], censored=3))
        table = survival_table(e)
        assert table == [(int(t), 1.0 - float(q)) for t, q in zip(e.support, e.cum_prob)]
        assert all(type(t) is int and type(p) is float for t, p in table)


@st.composite
def mixed_samples(draw):
    """A run sample of converged (c), censored (_) and diverged (d) runs in
    any order, many of them tied, and a Hill r below the converged count."""
    cap = draw(st.integers(min_value=1, max_value=200))
    n_runs = draw(st.integers(min_value=1, max_value=150))
    kinds = draw(st.lists(st.sampled_from("cccc_d"), min_size=n_runs, max_size=n_runs))
    times = draw(st.lists(st.integers(1, cap), min_size=1, max_size=30))
    epochs = [cap if k == "_" else draw(st.sampled_from(times)) for k in kinds]
    runs = RunBlock(
        np.array(epochs, dtype=np.int64),
        np.array([k == "c" for k in kinds]),
        np.array([0.0 if k == "c" else 1.0 for k in kinds]),
        np.array([k == "d" for k in kinds]),
    )
    r = draw(st.integers(2, max(2, kinds.count("c") - 1)))
    return RunSample(range(len(kinds)), runs, cap), r


def reference_loglog(epochs: list[int], n_runs: int, tail_fraction: float) -> float:
    """The log-log slope from a sort, the threshold order statistic and a
    survival count over all runs at each distinct time at or past it."""
    m = len(epochs)
    n_tail = math.ceil(tail_fraction * m)
    if n_tail < tailstats.MIN_TAIL_RECORDS:
        raise InsufficientDataError("tail too small")
    threshold = epochs[m - n_tail]
    pts = []
    for t in sorted(set(epochs)):
        s = 1.0 - sum(e <= t for e in epochs) / n_runs
        if t >= threshold and s > 0.0:
            pts.append((math.log(t), math.log(s)))
    if len(pts) < 2:
        raise InsufficientDataError("too few points")
    xs, ys = zip(*pts)
    return float(np.polyfit(np.array(xs), np.array(ys), 1)[0])


def reference_hill(epochs: list[int], r: int) -> float:
    """1 / (mean of the top r log order statistics - log of the next one)."""
    m = len(epochs)
    if not 2 <= r < m:
        raise ValueError("r out of range")
    if epochs[-1] == epochs[m - r - 1]:
        raise DegenerateTailError("flat top")
    logs = np.log(np.array(epochs[m - r :], dtype=np.float64))
    return 1.0 / float(np.mean(logs) - np.log(float(epochs[m - r - 1])))


def outcome(f, *args):
    """`f(*args)` as a value, or the type of the error it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


class TestTabulationOracle:
    # The tail starts right after a tie: the m - n_tail = 15 times below it are the 1s.
    @example((make_sample([1] * 15 + [2] * 5 + [3] * 10, censored=5), 3), 0.5)
    @given(mixed_samples(), st.floats(0.01, 0.99))
    def test_statistics_match_references_from_the_sorted_epochs(self, sample_and_r, tail_fraction):
        s, r = sample_and_r
        epochs = sorted(int(e) for e in s.converged_epochs())
        if not epochs:
            calls = [(empirical_cdf,), (remaining_time_profile,), (hill_estimator, r)]
            for f, *args in [*calls, (loglog_tail_slope, tail_fraction)]:
                with pytest.raises(InsufficientDataError, match="^no converged runs$"):
                    f(s, *args)
            return
        support = sorted(set(epochs))
        e = empirical_cdf(s)
        assert e.support.dtype == np.int64 and e.support.tolist() == support
        assert [q.hex() for q in e.cum_prob.tolist()] == [
            (sum(x <= t for x in epochs) / s.n_runs).hex() for t in support
        ]
        for got, expect in [
            (outcome(hill_estimator, s, r), outcome(reference_hill, epochs, r)),
            (
                outcome(loglog_tail_slope, s, tail_fraction),
                outcome(reference_loglog, epochs, s.n_runs, tail_fraction),
            ),
        ]:
            if isinstance(expect, float):
                assert got.hex() == expect.hex()
            else:
                assert got is expect
        expect_rows = []
        for tau in [0, *support[:-1]]:
            beyond = [x - tau for x in epochs if x > tau]
            n = len(beyond)
            mean = Fraction(sum(beyond), n)
            var = sum((x - mean) ** 2 for x in beyond) / (n - 1) if n >= 2 else None
            se = math.nan if var is None else math.sqrt(float(var)) / math.sqrt(n)
            expect_rows.append((tau, float(mean).hex(), n, se.hex()))
        got_rows = [(tau, m.hex(), n, se.hex()) for tau, m, n, se in remaining_time_profile(s)]
        assert got_rows == expect_rows
