import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restartkit import (
    AllTrialsFailedError,
    Constant,
    FixedSchedule,
    Geometric,
    LubySchedule,
    SyntheticProcess,
    TwoPoint,
    WalshSchedule,
    derive_seed,
    empirical_cdf,
    evaluate_strategy_mc,
    exact_ecdf,
    expected_time_curve,
    fixed_cutoff_expected_time,
    luby_term,
    optimal_cutoff,
    parse_schedule,
    run_schedules,
)
from restartkit.runner import MAX_CAP, LasVegasProcess, RunRecord, mix64, parallel_map
from restartkit.strategies import StrategyOutcome, trial_tasks

from conftest import BAD_CAP_IDS, BAD_CAPS, ParityStub, block_of, make_sample

TWO_POINT = TwoPoint(0.5, 1, 10)


class TestSchedules:
    def test_walsh_gamma_two(self):
        s = WalshSchedule(2.0)
        assert [s.cutoff(i) for i in range(1, 6)] == [1, 2, 4, 8, 16]

    def test_luby_unit_sequence(self):
        s = LubySchedule(1)
        assert [s.cutoff(i) for i in range(1, 8)] == [1, 1, 2, 1, 1, 2, 4]

    def test_luby_longer_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby_term(i) for i in range(1, 16)] == expected

    @pytest.mark.parametrize("unit", [1, 7])
    def test_luby_walk_follows_the_recursion(self, unit):
        # L(2^k - 1) = (L(2^(k-1) - 1), L(2^(k-1) - 1), unit * 2^(k-1)).
        walked = list(itertools.islice(LubySchedule(unit).cutoffs(), 2**12 - 1))
        expected = [unit]
        for k in range(2, 13):
            expected = expected + expected + [unit * 2 ** (k - 1)]
        assert walked == expected

    def test_luby_scales_by_unit(self):
        s = LubySchedule(50)
        assert [s.cutoff(i) for i in range(1, 8)] == [50, 50, 100, 50, 50, 100, 200]

    def test_fixed_is_constant(self):
        s = FixedSchedule(418)
        assert all(s.cutoff(i) == 418 for i in (1, 2, 10, 1000))

    @given(st.integers(min_value=1, max_value=100_000))
    def test_luby_terms_are_powers_of_two(self, i):
        term = luby_term(i)
        assert term >= 1 and (term & (term - 1)) == 0

    @given(
        st.floats(min_value=1.01, max_value=16.0, allow_nan=False),
        st.integers(min_value=1, max_value=40),
    )
    def test_walsh_nondecreasing(self, gamma, i):
        s = WalshSchedule(gamma)
        assert s.cutoff(i + 1) >= s.cutoff(i) >= 1

    def test_walsh_huge_cutoff_is_exact(self):
        assert WalshSchedule(10.0).cutoff(400) == 10**399

    # `cutoff(i)` walks i terms, so the long ranges below walk `cutoffs()` once.
    @pytest.mark.parametrize("gamma", [1.01, 1.1, 1.5, 2, 2.5, 3, 10])
    def test_walsh_matches_float_power_below_1e12(self, gamma):
        for i, t in enumerate(WalshSchedule(gamma).cutoffs(), start=1):
            if (expected := math.ceil(gamma ** (i - 1))) > 1e12:
                break
            assert t == expected

    @pytest.mark.parametrize("gamma", [1.01, 1.0001, 1.3333, 2.0, 2.5, 10.0])
    def test_walsh_equals_exact_rational_ceiling(self, gamma):
        walked = itertools.islice(WalshSchedule(gamma).cutoffs(), 599)
        for i, t in enumerate(walked, start=1):
            assert t == math.ceil(Fraction(gamma) ** (i - 1))

    @pytest.mark.parametrize("gamma", [1.01, 1.5, 2.0, 10.0])
    def test_walsh_walk_equals_cutoff(self, gamma):
        s = WalshSchedule(gamma)
        walked = list(itertools.islice(s.cutoffs(), 2000))
        assert [walked[i - 1] for i in (1, 2, 3, 1000, 2000)] == [
            s.cutoff(i) for i in (1, 2, 3, 1000, 2000)
        ]

    @pytest.mark.parametrize("schedule", [FixedSchedule(7), LubySchedule(3)])
    def test_default_walk_equals_cutoff(self, schedule):
        walked = list(itertools.islice(schedule.cutoffs(), 100))
        assert walked == [schedule.cutoff(i) for i in range(1, 101)]

    def test_walsh_rejects_gamma_at_most_one(self):
        for gamma in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                WalshSchedule(gamma)

    def test_walsh_rejects_infinite_gamma(self):
        with pytest.raises(ValueError, match="finite"):
            WalshSchedule(math.inf)
        with pytest.raises(ValueError, match="finite"):
            parse_schedule("walsh:inf")

    def test_larger_gamma_reaches_threshold_sooner(self):
        # Minimal i with t_i >= t_star never increases with gamma.
        def attempts_to_reach(gamma, t_star):
            s = WalshSchedule(gamma)
            i = 1
            while s.cutoff(i) < t_star:
                i += 1
            return i

        for t_star in (10, 418, 5000):
            counts = [attempts_to_reach(g, t_star) for g in (2, 3, 4, 6, 8, 10)]
            assert counts == sorted(counts, reverse=True)

    def test_attempt_index_must_be_positive(self):
        with pytest.raises(ValueError):
            luby_term(0)
        with pytest.raises(ValueError):
            FixedSchedule(5).cutoff(0)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: FixedSchedule(3.7), "fixed cutoff"),
            (lambda: FixedSchedule(np.int64(4)), "fixed cutoff"),
            (lambda: FixedSchedule(True), "fixed cutoff"),
            (lambda: LubySchedule(2.5), "luby unit"),
            (lambda: fixed_cutoff_expected_time(exact_ecdf(TWO_POINT, cap=10), 3.5), "cutoff"),
        ],
        ids=["fixed-float", "fixed-numpy-int", "fixed-bool", "luby-float", "expected-time-float"],
    )
    def test_rejects_a_cutoff_no_process_takes(self, build, name):
        # Every process refuses a cutoff other than a Python int (`check_cap`).
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            build()

    def test_walsh_cutoffs_may_pass_the_largest_cap(self):
        # run_schedules stops before a cutoff past the budget, so none reaches a process.
        assert WalshSchedule(2.0).cutoff(65) == 2**64 > MAX_CAP

    @pytest.mark.parametrize("spec", ["fixed:418", "walsh:2", "luby:32"])
    def test_parse_round_trip(self, spec):
        assert parse_schedule(spec).describe() == spec

    @pytest.mark.parametrize("gamma", [1.0000001, 1.0000002, 12345678.0])
    def test_describe_reads_back_as_the_schedule(self, gamma):
        # `:g` alone keeps 6 significant digits: "walsh:1", "walsh:1.23457e+07".
        schedule = WalshSchedule(gamma)
        assert parse_schedule(schedule.describe()) == schedule

    # Each schedule's constructor and its parameter: an int one may come as
    # any number, a bool among them, and gamma as any float, any int or a bool.
    @given(
        st.one_of(
            st.tuples(
                st.sampled_from([FixedSchedule, LubySchedule]),
                st.integers(-1, 12) | st.integers() | st.sampled_from([1.0, 2.5, True]),
            ),
            st.tuples(
                st.just(WalshSchedule),
                st.floats(1, 3) | st.floats() | st.integers(-1, 12) | st.integers() | st.booleans(),
            ),
        )
    )
    @example((WalshSchedule, 2**53 + 1))
    @example((WalshSchedule, 10**400))
    @example((WalshSchedule, True))
    def test_describe_parses_back(self, schedule_and_param):
        schedule, param = schedule_and_param
        try:
            built = schedule(param)
        except ValueError:
            return
        assert not (schedule is WalshSchedule and type(param) is bool)
        assert parse_schedule(built.describe()) == built

    def test_close_gammas_get_distinct_labels(self):
        assert WalshSchedule(1.0000001).describe() != WalshSchedule(1.0000002).describe()

    def test_parse_rejects_garbage(self):
        for spec in ("", "fixed", "walsh:1", "luby:0", "geo:2", "fixed:x"):
            with pytest.raises(ValueError):
                parse_schedule(spec)


class TestFixedCutoffExpectedTime:
    def test_two_point_exact_values(self):
        e = exact_ecdf(TWO_POINT, cap=10)
        assert fixed_cutoff_expected_time(e, 1) == pytest.approx(2.0, abs=1e-12)
        assert fixed_cutoff_expected_time(e, 10) == pytest.approx(5.5, abs=1e-12)

    def test_cutoff_between_support_points(self):
        # Renewal oracle at t=5: success prob 0.5 costs 1, failure costs 5:
        # E = (0.5*1 + 0.5*5) / 0.5 = 6.
        e = exact_ecdf(TWO_POINT, cap=10)
        assert fixed_cutoff_expected_time(e, 5) == pytest.approx(6.0, abs=1e-12)

    def test_no_restart_equals_plain_mean(self):
        # Direct expectation oracle: 0.5*1 + 0.5*10 = 5.5.
        e = exact_ecdf(TWO_POINT, cap=10)
        assert fixed_cutoff_expected_time(e, 10) == pytest.approx(
            0.5 * 1 + 0.5 * 10, abs=1e-12
        )

    def test_deterministic_law(self):
        e = exact_ecdf(Constant(7), cap=7)
        assert fixed_cutoff_expected_time(e, 7) == pytest.approx(7.0, abs=1e-12)

    @pytest.mark.parametrize("t", [2**53, 10**18, 2**63 - 1])
    def test_two_point_far_past_the_support(self, t):
        # q = 1 from t = 10 on, so every cutoff past it is the plain mean.
        assert fixed_cutoff_expected_time(exact_ecdf(TWO_POINT, cap=10), t) == 5.5

    def test_deterministic_law_at_the_largest_cutoff(self):
        assert fixed_cutoff_expected_time(exact_ecdf(Constant(7), cap=7), 2**63 - 1) == 7.0

    def test_zero_mass_cutoff_is_infinite(self):
        e = exact_ecdf(Constant(7), cap=7)
        assert fixed_cutoff_expected_time(e, 3) == math.inf

    def test_rejects_nonpositive_cutoff(self):
        e = exact_ecdf(TWO_POINT, cap=10)
        with pytest.raises(ValueError):
            fixed_cutoff_expected_time(e, 0)


class TestOptimalCutoff:
    def test_two_point(self):
        t_star, expected = optimal_cutoff(exact_ecdf(TWO_POINT, cap=10))
        assert t_star == 1
        assert expected == pytest.approx(2.0, abs=1e-12)

    def test_deterministic_law_restarts_never_help(self):
        t_star, expected = optimal_cutoff(exact_ecdf(Constant(9), cap=9))
        assert (t_star, expected) == (9, pytest.approx(9.0))

    @pytest.mark.parametrize(
        "law,cap",
        [
            (TwoPoint(0.5, 1, 10), 10),
            (TwoPoint(0.2, 3, 7), 7),
            (Geometric(0.1), 100),
            (Constant(5), 5),
        ],
        ids=lambda v: str(v),
    )
    def test_argmin_property(self, law, cap):
        e = exact_ecdf(law, cap)
        _, best = optimal_cutoff(e)
        for t in e.support:
            assert best <= fixed_cutoff_expected_time(e, int(t)) + 1e-12

    def test_argmin_on_empirical_sample(self):
        s = make_sample([1, 1, 2, 5, 40, 100], censored=1)
        e = empirical_cdf(s)
        t_star, best = optimal_cutoff(e)
        for t in e.support:
            assert best <= fixed_cutoff_expected_time(e, int(t)) + 1e-12
        assert best == pytest.approx(fixed_cutoff_expected_time(e, t_star), abs=1e-12)

    def test_ties_break_toward_smaller_cutoff(self):
        # Uniform over {1, 2}: E[S_1] = (1 - 0)/0.5 = 2, E[S_2] = (2 - 0.5)/1
        # = 1.5; no tie here, so build one: constant law has a single point.
        # Two-point with p such that E[S_a] == E[S_b]: a=1, b=2, p solves
        # 1/p = 2 - p -> p = 1. Instead verify the scan order directly on a
        # crafted Ecdf with equal expectations.
        from restartkit import Ecdf

        e = Ecdf(support=np.array([1, 2], dtype=np.int64), cum_prob=np.array([0.5, 0.75]), cap=2)
        # E[S_1] = 1/0.5 = 2; E[S_2] = (2 - 0.5)/0.75 = 2 -> tie, pick 1.
        t_star, expected = optimal_cutoff(e)
        assert t_star == 1
        assert expected == pytest.approx(2.0)

    def test_expected_time_curve_matches_pointwise(self):
        e = exact_ecdf(Geometric(0.2), cap=30)
        for t, val in expected_time_curve(e):
            assert val == pytest.approx(fixed_cutoff_expected_time(e, t), abs=1e-12)


@st.composite
def small_ecdfs(draw):
    """ECDF of a small random sample, censored runs included."""
    cap = draw(st.integers(min_value=1, max_value=60))
    epochs = draw(st.lists(st.integers(1, cap), min_size=1, max_size=25))
    censored = draw(st.integers(min_value=0, max_value=5))
    return empirical_cdf(make_sample(epochs, cap=cap, censored=censored))


class TestExpectedTimeEngine:
    @given(small_ecdfs())
    def test_fixed_cutoff_matches_brute_force_prefix_sum(self, e):
        # q(u) for u = 0 .. cap + 1: each support point's cum_prob holds until the next.
        steps = dict(zip(e.support.tolist(), e.cum_prob.tolist()))
        qs = [0.0]
        for u in range(1, e.cap + 2):
            qs.append(steps.get(u, qs[-1]))
        for t in range(1, e.cap + 2):
            q = qs[t]
            got = fixed_cutoff_expected_time(e, t)
            if q == 0.0:
                assert got == math.inf
            else:
                below = sum(qs[1:t])
                assert got == pytest.approx((t - below) / q, rel=1e-12)

    @given(small_ecdfs())
    def test_curve_bit_equal_to_sequential_accumulation(self, e):
        support = [int(s) for s in e.support]
        cum = [float(c) for c in e.cum_prob]
        expect, running = [], 0.0
        for j, t in enumerate(support):
            expect.append((t, (t - running) / cum[j]))
            if j + 1 < len(support):
                running += cum[j] * (support[j + 1] - t)
        assert expected_time_curve(e) == expect
        assert all(math.isfinite(v) for _, v in expect)

    @given(small_ecdfs())
    def test_optimum_is_first_argmin_of_curve(self, e):
        curve = expected_time_curve(e)
        best = min(v for _, v in curve)
        assert optimal_cutoff(e) == next((t, v) for t, v in curve if v == best)


class StubAtThree(LasVegasProcess):
    """Converges at epoch 3 for every seed."""

    cap = 100

    def describe(self):
        return "stub-at-3"

    def attempt_many(self, seeds, cutoff):
        return block_of(
            [
                RunRecord(seed=seed, epochs=3, converged=True, final_error=0.0)
                if cutoff >= 3
                else RunRecord(seed=seed, epochs=cutoff, converged=False, final_error=1.0)
                for seed in seeds
            ]
        )


class TestRunWithStrategy:
    """One schedule executed alone, through `run_schedules`."""

    def test_first_attempt_succeeds(self):
        (outcome,) = run_schedules(StubAtThree(), [FixedSchedule(5)], 1, budget=100)
        assert outcome.succeeded
        assert outcome.attempts == 1
        assert outcome.total_epochs == 3
        assert outcome.per_attempt == [(5, 3)]

    def test_rejects_budget_past_the_largest_cap(self):
        # Every cutoff fits the budget, so this keeps cutoffs within 2**63 - 1.
        with pytest.raises(ValueError, match=rf"^budget must be <= 2\*\*63 - 1, got {2**63}$"):
            run_schedules(StubAtThree(), [FixedSchedule(5)], 1, budget=MAX_CAP + 1)
        assert run_schedules(StubAtThree(), [FixedSchedule(5)], 1, MAX_CAP)[0].succeeded

    # A budget bounds Python-int cutoff sums, so it is a cap by the same rule.
    @pytest.mark.parametrize("budget, problem", BAD_CAPS, ids=BAD_CAP_IDS)
    def test_rejects_a_budget_no_cutoff_sum_reaches(self, budget, problem):
        with pytest.raises(ValueError) as info:
            run_schedules(StubAtThree(), [FixedSchedule(5)], 1, budget=budget)
        assert str(info.value) == f"budget {problem}"

    def test_budget_exhaustion(self):
        (outcome,) = run_schedules(StubAtThree(), [FixedSchedule(2)], 1, budget=10)
        assert not outcome.succeeded
        assert outcome.attempts == 5
        assert outcome.total_epochs == 10
        assert outcome.per_attempt == [(2, 2)] * 5

    def test_budget_smaller_than_first_cutoff(self):
        (outcome,) = run_schedules(StubAtThree(), [FixedSchedule(50)], 1, budget=10)
        assert not outcome.succeeded
        assert outcome.attempts == 0
        assert outcome.total_epochs == 0

    def test_parity_stub_hand_simulation(self):
        # Replays the documented seeding discipline by hand.
        stub = ParityStub()
        base = 421
        (outcome,) = run_schedules(stub, [FixedSchedule(1)], base, budget=50)
        expected_attempts = 0
        total = 0
        for i in range(1, 51):
            expected_attempts += 1
            total += 1
            if derive_seed(base, i) % 2 == 0:
                break
        assert outcome.succeeded
        assert outcome.attempts == expected_attempts
        assert outcome.total_epochs == total

    def test_total_equals_per_attempt_sum(self):
        proc = SyntheticProcess(TWO_POINT, cap_epochs=100)
        for base in range(10):
            (outcome,) = run_schedules(proc, [WalshSchedule(2.0)], base, budget=500)
            assert outcome.total_epochs == sum(u for _, u in outcome.per_attempt)

    def test_trace_follows_schedule_cutoffs(self):
        # Every attempt below 1000 epochs is cut off; gamma 1.01 needs 696.
        proc = SyntheticProcess(Constant(1000), cap_epochs=1000)
        s = WalshSchedule(1.01)
        (outcome,) = run_schedules(proc, [s], 5, budget=10**6)
        assert outcome.succeeded and outcome.attempts == 696
        cutoffs = [t for t, _ in outcome.per_attempt]
        assert cutoffs == list(itertools.islice(s.cutoffs(), 696))

    def test_deterministic(self):
        proc = SyntheticProcess(Geometric(0.05), cap_epochs=1000)
        (a,) = run_schedules(proc, [LubySchedule(4)], 77, budget=10_000)
        (b,) = run_schedules(proc, [LubySchedule(4)], 77, budget=10_000)
        assert a == b


class LoggingProcess(LasVegasProcess):
    """Converges at epoch 2 iff the seed is even; logs every attempted seed."""

    cap = 50

    def __init__(self):
        self.log = []

    def describe(self):
        return "logging"

    def attempt_many(self, seeds, cutoff):
        self.log += [(seed, cutoff) for seed in seeds]
        return block_of(
            [
                RunRecord(seed=seed, epochs=2, converged=True, final_error=0.0)
                if seed % 2 == 0 and cutoff >= 2
                else RunRecord(seed=seed, epochs=cutoff, converged=False, final_error=1.0)
                for seed in seeds
            ]
        )


class TestRunTrials:
    """Monte Carlo trials: the `trial_tasks` blocks run through `parallel_map`."""

    def test_schedule_attempts_only_and_outcomes_per_trial(self):
        proc = LoggingProcess()
        schedules = [FixedSchedule(1), WalshSchedule(2.0), LubySchedule(3)]
        tasks, outcomes_of = trial_tasks(proc, schedules, 4, 7, 100)
        per_schedule = outcomes_of(parallel_map(tasks, 1))
        trial_seeds = [derive_seed(7, j) for j in range(4)]
        # No plain attempt at the cap: one task per trial, run in order, and
        # task j attempts only seeds derived from trial seed j.
        owner = {derive_seed(s, i): j for j, s in enumerate(trial_seeds) for i in range(1, 101)}
        assert all(seed in owner for seed, _ in proc.log)
        owners = [owner[seed] for seed, _ in proc.log]
        assert owners == sorted(owners) and set(owners) == {0, 1, 2, 3}
        assert all(cutoff < proc.cap for _, cutoff in proc.log)
        for schedule, outcomes in zip(schedules, per_schedule):
            fresh = [run_schedules(LoggingProcess(), [schedule], s, 100)[0] for s in trial_seeds]
            assert list(outcomes) == [(o.succeeded, o.total_epochs) for o in fresh]

    def test_one_schedule(self):
        tasks, outcomes_of = trial_tasks(ParityStub(50), [FixedSchedule(1)], 3, 0, 10)
        (outcomes,) = outcomes_of(parallel_map(tasks, 1))
        assert len(outcomes) == 3


class PrefixFake(LasVegasProcess):
    """Obeys the prefix contract; logs every attempted seed.

    Seed s converges, diverges, or never stops (by mix64(s ^ salt) mod 3),
    at epoch d in [1, max_d]; an attempt whose cutoff is below d is
    censored at the cutoff.
    """

    cap = 1000

    def __init__(self, salt, max_d):
        self.salt, self.max_d, self.log = salt, max_d, []

    def describe(self):
        return "prefix-fake"

    def attempt_many(self, seeds, cutoff):
        records = []
        for seed in seeds:
            self.log.append((seed, cutoff))
            z = mix64(seed ^ self.salt)
            kind, d = z % 3, 1 + (z >> 2) % self.max_d
            if kind == 2 or d > cutoff:
                records.append(
                    RunRecord(seed=seed, epochs=cutoff, converged=False, final_error=1.0)
                )
            else:
                records.append(
                    RunRecord(
                        seed=seed, epochs=d, converged=kind == 0, final_error=0.0,
                        diverged=kind == 1,
                    )
                )
        return block_of(records)


def sequential_run(process, schedule, base_seed, budget):
    """Reference: one schedule alone, every attempt at its own cutoff."""
    total = 0
    per_attempt = []
    cutoffs = schedule.cutoffs()
    i = 1
    while True:
        t_i = next(cutoffs)
        if total + t_i > budget:
            return StrategyOutcome(total, i - 1, False, per_attempt)
        record = process.attempt(derive_seed(base_seed, i), t_i)
        per_attempt.append((t_i, record.epochs))
        total += record.epochs
        if record.converged:
            return StrategyOutcome(total, i, True, per_attempt)
        i += 1


schedules_st = st.one_of(
    st.builds(FixedSchedule, st.integers(1, 60)),
    st.builds(WalshSchedule, st.sampled_from([1.01, 1.5, 2.0, 3.0, 10.0])),
    st.builds(LubySchedule, st.integers(1, 10)),
)


class TestRunSchedules:
    @settings(max_examples=300, deadline=None)
    @given(
        schedules=st.lists(schedules_st, min_size=1, max_size=4),
        budget=st.integers(1, 600),
        base_seed=st.integers(0, 2**64 - 1),
        salt=st.integers(0, 2**64 - 1),
        max_d=st.integers(1, 80),
    )
    @example(
        schedules=[FixedSchedule(5), FixedSchedule(40), WalshSchedule(2.0)],
        budget=200, base_seed=0, salt=0, max_d=30,
    )
    def test_equals_sequential_runs_and_attempts_each_seed_once(
        self, schedules, budget, base_seed, salt, max_d
    ):
        lockstep = PrefixFake(salt, max_d)
        got = run_schedules(lockstep, schedules, base_seed, budget)
        alone = [
            sequential_run(PrefixFake(salt, max_d), s, base_seed, budget)
            for s in schedules
        ]
        assert got == alone
        # Attempt i runs once, at the largest cutoff of the schedules that
        # made an attempt i.
        n = max(o.attempts for o in alone)
        assert lockstep.log == [
            (
                derive_seed(base_seed, i),
                max(o.per_attempt[i - 1][0] for o in alone if o.attempts >= i),
            )
            for i in range(1, n + 1)
        ]

    def test_diverged_attempt_costs_its_epochs(self):
        class DivergesAtThree(LasVegasProcess):
            cap = 100

            def attempt_many(self, seeds, cutoff):
                return block_of(
                    [
                        RunRecord(seed=seed, epochs=cutoff, converged=False, final_error=1.0)
                        if cutoff < 3
                        else RunRecord(
                            seed=seed, epochs=3, converged=False, final_error=1.0, diverged=True
                        )
                        for seed in seeds
                    ]
                )

        long, short = run_schedules(DivergesAtThree(), [FixedSchedule(5), FixedSchedule(2)], 0, 12)
        # The budget check charges the full cutoff: 9 + 5 > 12 stops it.
        assert long == StrategyOutcome(9, 3, False, [(5, 3)] * 3)
        assert short == StrategyOutcome(12, 6, False, [(2, 2)] * 6)

    def test_rejects_budget_below_one(self):
        with pytest.raises(ValueError, match="budget"):
            run_schedules(LoggingProcess(), [FixedSchedule(1)], 0, 0)


class TestEvaluateStrategyMc:
    def test_deterministic_stub_zero_spread(self):
        res = evaluate_strategy_mc(StubAtThree(), FixedSchedule(5), 100, 0, budget=100)
        assert res.mean_epochs == 3.0
        assert res.stderr == 0.0
        assert res.failure_rate == 0.0

    def test_two_point_matches_exact_formula(self):
        proc = SyntheticProcess(TWO_POINT, cap_epochs=100)
        res = evaluate_strategy_mc(proc, FixedSchedule(1), 20_000, 9, budget=10_000)
        assert abs(res.mean_epochs - 2.0) <= 3 * res.stderr

    def test_all_failed(self):
        proc = SyntheticProcess(Constant(10), cap_epochs=100)
        with pytest.raises(AllTrialsFailedError):
            evaluate_strategy_mc(proc, FixedSchedule(5), 10, 0, budget=50)

    def test_parallel_equals_sequential(self):
        proc = SyntheticProcess(Geometric(0.2), cap_epochs=1000)
        seq = evaluate_strategy_mc(proc, WalshSchedule(2.0), 200, 5, 10_000, n_jobs=1)
        par = evaluate_strategy_mc(proc, WalshSchedule(2.0), 200, 5, 10_000, n_jobs=2)
        assert seq == par

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            evaluate_strategy_mc(StubAtThree(), FixedSchedule(5), 1, 0, budget=100)

    def test_failure_rate_counts_budget_exhaustion(self):
        class Mixed(LasVegasProcess):
            cap = 100

            def describe(self):
                return "mixed"

            def attempt_many(self, seeds, cutoff):
                return block_of(
                    [
                        RunRecord(seed=seed, epochs=1, converged=True, final_error=0.0)
                        if seed % 2 == 0
                        else RunRecord(seed=seed, epochs=cutoff, converged=False, final_error=1.0)
                        for seed in seeds
                    ]
                )

        res = evaluate_strategy_mc(Mixed(), FixedSchedule(1), 500, 3, budget=1)
        assert 0.0 < res.failure_rate < 1.0
        assert res.n_succeeded == round(500 * (1 - res.failure_rate))
