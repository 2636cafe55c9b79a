import errno
import json
import math
import os
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from restartkit import mlp, runner
from restartkit import (
    Constant,
    DiscretePareto,
    Geometric,
    InsufficientDataError,
    LasVegasProcess,
    MlpConfig,
    MlpProcess,
    RunLogFormatError,
    RunRecord,
    RunSample,
    SyntheticProcess,
    TwoPoint,
    collect_runs,
    derive_seed,
    load_runs,
    save_runs,
    summary_stats,
)
from restartkit.strategies import FixedSchedule, mc_result, run_schedules
from restartkit.tailstats import remaining_time_profile

from conftest import FormulaStub, make_sample, reference_record_line, sample_of, tiny_dataset


def reference_mix(base: int, index: int) -> int:
    # Documented formula, written out independently of the implementation.
    mask = (1 << 64) - 1
    z = ((base ^ index) + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestDeriveSeed:
    def test_matches_pinned_formula(self):
        for base, idx in [(0, 0), (1, 0), (0, 1), (7, 3), (2**64 - 1, 12345)]:
            assert derive_seed(base, idx) == reference_mix(base, idx)

    def test_in_64_bit_range_and_distinct(self):
        seeds = [derive_seed(42, i) for i in range(1000)]
        assert all(0 <= s < 2**64 for s in seeds)
        assert len(set(seeds)) == 1000

    def test_deterministic(self):
        assert derive_seed(99, 5) == derive_seed(99, 5)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @example(2**64 - 1)
    @example(2**63)
    def test_array_matches_scalar(self, base):
        index = np.arange(300, dtype=np.uint64)
        seeds = derive_seed(base, index)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(base, i) for i in range(300)]

    def test_only_low_64_bits_of_base_matter(self):
        index = np.arange(5, dtype=np.uint64)
        assert derive_seed(2**64 + 7, index).tolist() == derive_seed(7, index).tolist()
        assert derive_seed(2**64 + 7, 3) == derive_seed(7, 3)


class TestWorkerCount:
    """Pure checks of the pool size; no process is started."""

    @pytest.mark.parametrize(
        "n_jobs, n_items, cpus, expected",
        [(1, 100, 8, 1), (2, 1, 8, 1), (2, 100, 8, 2), (16, 100, 2, 2), (4, 3, 8, 3)],
    )
    def test_bounded_by_jobs_items_and_affinity(self, monkeypatch, n_jobs, n_items, cpus, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert runner.worker_count(n_jobs, n_items) == expected

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert runner.worker_count(64, 100) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert runner.worker_count(64, 100) == 1

    def test_single_run_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        sample = collect_runs(FormulaStub(), 1, base_seed=5, n_jobs=2)
        assert sample.records == [FormulaStub().attempt(derive_seed(5, 0), 1000)]


class TestRunRecord:
    def test_rejects_bad_epochs(self):
        with pytest.raises(ValueError):
            RunRecord(seed=1, epochs=0, converged=True, final_error=0.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RunRecord(seed=-1, epochs=1, converged=True, final_error=0.0)


class TestCollectRuns:
    def test_singleton_equals_direct_attempt(self):
        stub = FormulaStub()
        sample = collect_runs(stub, 1, base_seed=5)
        direct = stub.attempt(derive_seed(5, 0), stub.cap)
        assert sample.records == [direct]
        assert sample.cap == stub.cap

    def test_deterministic(self):
        stub = FormulaStub()
        a = collect_runs(stub, 50, base_seed=123)
        b = collect_runs(stub, 50, base_seed=123)
        assert a == b

    def test_records_match_stub_formula(self):
        stub = FormulaStub(modulus=7)
        sample = collect_runs(stub, 100, base_seed=11)
        for i, rec in enumerate(sample.records):
            assert rec.epochs == (derive_seed(11, i) % 7) + 1
            assert rec.converged

    def test_parallel_equals_sequential(self):
        stub = FormulaStub()
        seq = collect_runs(stub, 40, base_seed=3, n_jobs=1)
        par = collect_runs(stub, 40, base_seed=3, n_jobs=2)
        assert seq == par

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            collect_runs(FormulaStub(), 0, base_seed=1)

    # A run count is a Python int, as a cap is: True is not one run.
    @pytest.mark.parametrize("n_runs", [True, 2.5], ids=["bool", "float"])
    def test_rejects_a_run_count_that_is_not_an_int(self, n_runs):
        with pytest.raises(ValueError) as info:
            collect_runs(FormulaStub(), n_runs, base_seed=1)
        assert str(info.value) == f"n_runs must be an integer, got {n_runs!r}"

    def test_attempt_error_propagates_from_collect_and_schedules(self):
        # A process reports divergence in its records; anything it raises
        # reaches the caller unchanged, whichever entry point attempted it.
        class Exploding(LasVegasProcess):
            cap = 10

            def describe(self):
                return "exploding"

            def attempt_many(self, seeds, cutoff):
                raise ArithmeticError(f"boom at cutoff {cutoff}")

        with pytest.raises(ArithmeticError, match="boom at cutoff 10"):
            collect_runs(Exploding(), 20, base_seed=0)
        with pytest.raises(ArithmeticError, match="boom at cutoff 5"):
            run_schedules(Exploding(), [FixedSchedule(5)], 0, budget=100)

    # A process refuses a bad cap where it is built, so no process holds one.
    def test_float_stub_cap_fails_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(Geometric, "sample_many", pytest.fail)
        with pytest.raises(ValueError, match=r"^cap_epochs must be an integer, got 50\.0$"):
            SyntheticProcess(Geometric(0.5), cap_epochs=50.0)

    def test_float_mlp_cap_fails_before_any_training(self, monkeypatch):
        monkeypatch.setattr(mlp, "_train_runs", pytest.fail)
        with pytest.raises(ValueError, match=r"^max_epochs must be an integer, got 30\.0$"):
            MlpConfig(n_inputs=4, n_hidden=2, n_outputs=2, max_epochs=30.0)

    @pytest.mark.parametrize("cutoff", [5.0, np.int64(5), True], ids=["float", "int64", "bool"])
    def test_check_cutoff_takes_python_ints_only(self, cutoff):
        problem = sample_problem(partial(runner.check_cap, "cutoff", cutoff))
        assert problem == f"cutoff must be an integer, got {cutoff!r}"


# Each stub law, and an MLP that converges, is censored or (momentum None)
# diverges within a few dozen epochs.
@st.composite
def processes(draw):
    kind = draw(st.sampled_from(["constant", "two-point", "geometric", "pareto", "mlp"]))
    if kind == "mlp":
        momentum = draw(st.sampled_from([0.0, 0.9, None]))
        cfg = MlpConfig(
            n_inputs=4, n_hidden=2, n_outputs=2, learning_rate=5.0, momentum=momentum or 0.0,
            target_error=0.09, max_epochs=draw(st.integers(1, 60)),
        )
        if momentum is None:
            cfg = replace(cfg, learning_rate=1e308, momentum=0.99, target_error=1e-9)
        return MlpProcess(cfg, tiny_dataset(6, 4, 2, seed=draw(st.integers(0, 3))))
    if kind == "constant":
        law = Constant(draw(st.integers(1, 80)))
    elif kind == "two-point":
        a = draw(st.integers(1, 50))
        law = TwoPoint(draw(st.floats(0.05, 0.95)), a, a + draw(st.integers(1, 50)))
    elif kind == "geometric":
        law = Geometric(draw(st.floats(0.01, 0.9)))
    else:
        law = DiscretePareto(draw(st.floats(0.1, 3.0)), draw(st.integers(1, 10)))
    return SyntheticProcess(law, cap_epochs=draw(st.integers(1, 60) | st.just(runner.MAX_CAP)))


def record_bits(r: RunRecord) -> tuple:
    return (r.seed, r.epochs, r.converged, r.final_error.hex(), r.diverged)


class TestBlocks:
    """`collect_runs` joins `attempt_many` blocks into columns; the sample
    and its log are those of one `attempt` per seed."""

    @settings(max_examples=40, deadline=None)
    @given(
        process=processes(),
        n_runs=st.integers(1, 40),
        base=st.integers(0, 2**64 - 1),
        jobs=st.sampled_from([1, 2]),
    )
    # In two pool blocks each: a draw past int64 (base 16 holds one) censored
    # at the largest cap, and MLP runs that diverge.
    @example(
        process=SyntheticProcess(DiscretePareto(0.1), cap_epochs=runner.MAX_CAP),
        n_runs=40, base=16, jobs=2,
    )
    @example(
        process=MlpProcess(
            MlpConfig(n_inputs=4, n_hidden=2, n_outputs=2, learning_rate=1e308, momentum=0.99,
                      target_error=1e-9, max_epochs=60),
            tiny_dataset(6, 4, 2),
        ),
        n_runs=9, base=0, jobs=2,
    )
    def test_equals_one_attempt_per_seed(self, tmp_path_factory, process, n_runs, base, jobs):
        sample = collect_runs(process, n_runs, base, n_jobs=jobs)
        records = [process.attempt(derive_seed(base, i), process.cap) for i in range(n_runs)]
        want = sample_of(records, process.cap, sample.metadata)
        assert list(map(record_bits, sample.records)) == list(map(record_bits, want.records))
        assert sample == want
        path = tmp_path_factory.mktemp("log") / "runs.jsonl"
        save_runs(sample, path)
        header = json.dumps({"cap": sample.cap, "metadata": sample.metadata}, separators=(",", ":"))
        lines = [header, *map(reference_record_line, records), ""]
        assert path.read_bytes() == "\n".join(lines).encode("utf-8")

    def test_stub_collect_save_and_load_build_no_record(self, tmp_path, monkeypatch):
        built = []
        check = RunRecord.__post_init__

        def counted(record):
            built.append(record)
            check(record)

        monkeypatch.setattr(RunRecord, "__post_init__", counted)
        process = SyntheticProcess(DiscretePareto(0.5, 50), cap_epochs=100_000)
        sample = collect_runs(process, 2000, base_seed=7)
        save_runs(sample, tmp_path / "runs.jsonl")
        loaded = load_runs(tmp_path / "runs.jsonl")
        assert built == []
        assert 0 < loaded.n_censored < loaded.n_converged == sample.n_converged
        # The counter sees the records that are built: `attempt` makes one.
        process.attempt(sample.seeds[0], process.cap)
        assert len(built) == 1

    @pytest.mark.parametrize(
        "row, message",
        [
            ((0, True, 0.0, False), "epochs must be >= 1, got 0"),
            ((11, True, 0.0, False), "record 3: epochs 11 exceeds cap 10"),
            ((4, False, 1.0, False), "record 3: censored run must carry epochs == cap"),
            ((4, True, 0.0, True), "record 3: run is both converged and diverged"),
        ],
    )
    def test_bad_block_names_its_record(self, row, message):
        class OneBadRow(FormulaStub):
            def attempt_many(self, seeds, cutoff):
                block = super().attempt_many(seeds, cutoff)
                for column, value in zip(block, row):
                    column[3] = value
                return block

        with pytest.raises(ValueError, match=message) as raised:
            collect_runs(OneBadRow(cap_epochs=10), 8, base_seed=1)
        assert str(raised.value).startswith("record 3: ")


class TestSummaryStats:
    def test_constant_sample(self):
        stats = summary_stats(make_sample([4, 4, 4]))
        assert stats.mean == 4.0
        assert stats.stddev == 0.0
        assert stats.ratio == 0.0

    def test_two_point_hand_computation(self):
        stats = summary_stats(make_sample([2, 4]))
        assert stats.mean == pytest.approx(3.0, abs=1e-12)
        assert stats.stddev == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert stats.ratio == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)

    def test_censored_excluded_and_counted(self):
        stats = summary_stats(make_sample([2, 4], censored=3))
        assert stats.mean == pytest.approx(3.0)
        assert stats.n_converged == 2
        assert stats.n_censored == 3

    def test_insufficient_converged(self):
        with pytest.raises(InsufficientDataError):
            summary_stats(make_sample([5], censored=4))


def fraction_moments(values: list[int]) -> tuple[float, float]:
    """The mean and the sample standard deviation of `values`, the mean and
    the variance as exact fractions, each rounded to float once."""
    mean = Fraction(sum(values), len(values))
    variance = sum((value - mean) ** 2 for value in values) / (len(values) - 1)
    return float(mean), math.sqrt(float(variance))


class TestMomentsOracle:
    """Every mean and spread the commands print comes from exact integer sums."""

    @given(
        st.lists(
            st.one_of(st.integers(1, 100), st.integers(1, 2**62), st.integers(2**62 - 99, 2**62)),
            min_size=2,
            max_size=40,
        ),
        st.integers(0, 3),
    )
    # Three draws of 1 and seven of 2**53: the sum is past 2**53, the mean
    # 6305039478318694.7, which float64 sums round down to ...694.
    @example([1] * 3 + [2**53] * 7, 0)
    def test_summary_mc_and_profile_match_fractions(self, values, censored):
        mean, stddev = fraction_moments(values)
        n = len(values)
        sample = make_sample(values, cap=2**62, censored=censored)
        stats = summary_stats(sample)
        assert (stats.mean, stats.stddev, stats.ratio) == (mean, stddev, stddev / mean)
        assert (stats.n_converged, stats.n_censored) == (n, censored)
        outcomes = [(True, value) for value in values] + [(False, 2**62)] * censored
        res = mc_result(outcomes, FixedSchedule(1), 2**63 - 1)
        assert (res.mean_epochs, res.stderr) == (mean, stddev / math.sqrt(n))
        assert (res.n_trials, res.n_succeeded) == (n + censored, n)
        assert res.failure_rate == censored / (n + censored)
        assert remaining_time_profile(sample)[0] == (0, mean, n, stddev / math.sqrt(n))


class TestRunLog:
    def test_round_trip_exact(self, tmp_path):
        records = [
            RunRecord(seed=2**63 + 1, epochs=17, converged=True, final_error=0.1 + 0.2),
            RunRecord(seed=0, epochs=100, converged=False, final_error=1e-300),
            RunRecord(
                seed=5, epochs=3, converged=False, final_error=float("nan"), diverged=True
            ),
        ]
        sample = sample_of(records, cap=100, metadata="round trip")
        path = tmp_path / "runs.jsonl"
        save_runs(sample, path)
        loaded = load_runs(path)
        assert loaded.cap == sample.cap
        assert loaded.metadata == sample.metadata
        assert len(loaded.records) == 3
        for a, b in zip(loaded.records, records):
            assert (a.seed, a.epochs, a.converged, a.diverged) == (
                b.seed,
                b.epochs,
                b.converged,
                b.diverged,
            )
            if math.isnan(b.final_error):
                assert math.isnan(a.final_error)
            else:
                assert a.final_error == b.final_error

    def test_save_is_byte_deterministic(self, tmp_path):
        sample = make_sample([1, 5, 9], censored=1)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_runs(sample, p1)
        save_runs(sample, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_existing_log(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.jsonl"
        save_runs(make_sample([2, 4]), path)
        before = path.read_bytes()
        written = []

        class DiskFull:
            """A file whose write stores half the text, then runs out of space."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                written.append(os.path.getsize(self.fh.name))
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(runner, "open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_runs(make_sample([1, 5, 9, 12]), path)
        assert written and written[0] > 0
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.jsonl"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InsufficientDataError):
            load_runs(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.jsonl"
        path.write_text('{"cap":10,"metadata":""}\n', encoding="utf-8")
        with pytest.raises(InsufficientDataError):
            load_runs(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(
            {"seed": 1, "epochs": 2, "converged": True, "final_error": 0.0}
        )
        bad = json.dumps({"seed": 2, "epochs": 3, "final_error": 0.0})
        path.write_text(
            '{"cap":10,"metadata":""}\n' + good + "\n" + bad + "\n", encoding="utf-8"
        )
        with pytest.raises(RunLogFormatError, match="line 3.*converged"):
            load_runs(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"cap":10,"metadata":""}\n{not json\n', encoding="utf-8")
        with pytest.raises(RunLogFormatError, match="line 2"):
            load_runs(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"metadata":"x"}\n', encoding="utf-8")
        with pytest.raises(RunLogFormatError, match="cap"):
            load_runs(path)

    @pytest.mark.parametrize("metadata", ["null", '["a"]', "3", "{}"])
    def test_metadata_must_be_a_string(self, tmp_path, metadata):
        path = tmp_path / "bad.jsonl"
        rec = '{"seed":1,"epochs":3,"converged":true,"final_error":0.0}'
        path.write_text(f'{{"cap":10,"metadata":{metadata}}}\n{rec}\n', encoding="utf-8")
        with pytest.raises(RunLogFormatError, match="^line 1: 'metadata' must be a string$"):
            load_runs(path)

    def test_missing_metadata_reads_as_empty(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        rec = '{"seed":1,"epochs":3,"converged":true,"final_error":0.0}'
        path.write_text('{"cap":10}\n' + rec + "\n", encoding="utf-8")
        assert load_runs(path).metadata == ""

    def test_wrong_types_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = json.dumps(
            {"seed": 1, "epochs": "2", "converged": True, "final_error": 0.0}
        )
        path.write_text('{"cap":10,"metadata":""}\n' + rec + "\n", encoding="utf-8")
        with pytest.raises(RunLogFormatError, match="line 2.*epochs"):
            load_runs(path)

    @pytest.mark.parametrize("flag", ['"false"', '"true"', "0", "1", "null"])
    def test_diverged_must_be_boolean(self, tmp_path, flag):
        path = tmp_path / "bad.jsonl"
        rec = '{"seed":1,"epochs":10,"converged":false,"final_error":1.0,"diverged":%s}'
        path.write_text('{"cap":10}\n' + rec % flag + "\n", encoding="utf-8")
        with pytest.raises(RunLogFormatError, match="line 2.*diverged"):
            load_runs(path)

    def test_converged_and_diverged_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        ok = '{"seed":1,"epochs":3,"converged":true,"final_error":0.0}'
        both = '{"seed":2,"epochs":3,"converged":true,"final_error":0.0,"diverged":true}'
        path.write_text(f'{{"cap":10}}\n{ok}\n{both}\n', encoding="utf-8")
        with pytest.raises(RunLogFormatError, match="line 3.*diverged.*converged"):
            load_runs(path)

    def test_diverged_flag_round_trips(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        rec = '{"seed":%d,"epochs":10,"converged":false,"final_error":1.0,"diverged":%s}'
        path.write_text(
            '{"cap":10}\n' + rec % (1, "true") + "\n" + rec % (2, "false") + "\n",
            encoding="utf-8",
        )
        assert [r.diverged for r in load_runs(path).records] == [True, False]

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"seed":3,"epochs":0,"converged":true,"final_error":0.0}', "line 3: 'epochs'.*got 0"),
            ('{"seed":-1,"epochs":2,"converged":true,"final_error":0.0}', "line 3: 'seed'.*got -1"),
            ('{"seed":3,"epochs":11,"converged":true,"final_error":0.0}', "line 3: 'epochs'.*cap=10.*got 11"),
            ('{"seed":3,"epochs":4,"converged":false,"final_error":1.0}', "line 3: censored.*cap=10"),
        ],
    )
    def test_out_of_range_record_names_line(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        ok = '{"seed":1,"epochs":3,"converged":true,"final_error":0.0}'
        path.write_text(f'{{"cap":10}}\n{ok}\n{record}\n', encoding="utf-8")
        with pytest.raises(RunLogFormatError, match=message):
            load_runs(path)

    def test_integer_error_beyond_float_range_names_line(self, tmp_path):
        path = tmp_path / "huge.jsonl"
        ok = '{"seed":1,"epochs":3,"converged":true,"final_error":7}'
        huge = '{"seed":2,"epochs":3,"converged":true,"final_error":1%s}' % ("0" * 400)
        path.write_text(f'{{"cap":10}}\n{ok}\n{huge}\n', encoding="utf-8")
        with pytest.raises(RunLogFormatError, match="line 3: 'final_error'.*float range"):
            load_runs(path)

    def test_duplicate_seed_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rec = '{"seed":%d,"epochs":3,"converged":true,"final_error":0.0}'
        path.write_text(
            '{"cap":10}\n' + "\n".join(rec % s for s in (1, 2, 1)) + "\n", encoding="utf-8"
        )
        with pytest.raises(RunLogFormatError, match="line 4: seed 1 repeats line 2"):
            load_runs(path)

    def test_cap_beyond_int64_names_line_1(self, tmp_path):
        path = tmp_path / "big.jsonl"
        rec = '{"seed":1,"epochs":%d,"converged":true,"final_error":0.0}'
        path.write_text(f'{{"cap":{2**63}}}\n' + rec % 2**63 + "\n", encoding="utf-8")
        with pytest.raises(RunLogFormatError, match=r"^line 1: 'cap'.*2\*\*63"):
            load_runs(path)
        path.write_text(f'{{"cap":{2**63 - 1}}}\n' + rec % (2**63 - 1) + "\n", encoding="utf-8")
        assert load_runs(path).converged_epochs().tolist() == [2**63 - 1]

    @pytest.mark.parametrize(
        "header, record, line",
        [
            ('{"cap":10,"n":1%s}', '{"seed":1,"epochs":3,"converged":true,"final_error":0.0}', 1),
            ('{"cap":10}', '{"seed":1,"epochs":3,"converged":true,"final_error":1%s}', 2),
        ],
        ids=["header", "record"],
    )
    def test_integer_past_digit_limit_names_line(self, tmp_path, header, record, line):
        # 5,001 digits: past the int/str conversion limit of Python >= 3.11.
        digits = "0" * 5000
        path = tmp_path / "digits.jsonl"
        text = (header + "\n" + record + "\n").replace("%s", digits)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(RunLogFormatError, match=f"^line {line}: "):
            load_runs(path)

    @pytest.mark.parametrize(
        "header, record, line",
        [
            ('{"cap":10,"x":%s}', '{"seed":1,"epochs":3,"converged":true,"final_error":0.0}', 1),
            ('{"cap":10}', '{"seed":1,"epochs":3,"converged":true,"final_error":0.0,"x":%s}', 2),
        ],
        ids=["header", "record"],
    )
    def test_nesting_past_recursion_limit_names_line(self, tmp_path, header, record, line):
        # json's decoder raises RecursionError, not ValueError, this deep.
        path = tmp_path / "deep.jsonl"
        text = (header + "\n" + record + "\n").replace("%s", "[" * 100_000)
        path.write_text(text, encoding="utf-8")
        kind = "header" if line == 1 else "record"
        with pytest.raises(RunLogFormatError, match=f"^line {line}: invalid {kind}: "):
            load_runs(path)


def assert_columns_hold(sample: RunSample, records: list[RunRecord]) -> None:
    """`sample`'s columns hold `records` field by field, in order."""
    assert sample.seeds == [r.seed for r in records]
    assert all(type(s) is int for s in sample.seeds)
    assert sample.epochs.dtype == np.int64
    assert sample.epochs.tolist() == [r.epochs for r in records]
    assert sample.converged.dtype == bool and sample.diverged.dtype == bool
    assert sample.converged.tolist() == [r.converged for r in records]
    assert sample.diverged.tolist() == [r.diverged for r in records]
    assert sample.final_error.dtype == np.float64
    assert [x.hex() for x in sample.final_error.tolist()] == [
        float(r.final_error).hex() for r in records
    ]
    assert not any(
        a.flags.writeable
        for a in (sample.epochs, sample.converged, sample.diverged, sample.final_error)
    )
    assert sample.n_runs == len(records)
    assert sample.n_converged == sum(r.converged for r in records)
    assert sample.n_censored == sum(not r.converged for r in records)
    assert sample.converged_epochs().tolist() == [r.epochs for r in records if r.converged]


def reference_first_bad(rows: list[tuple], cap: int) -> str | None:
    """The first refusal among (seed, epochs, converged, diverged) rows, one
    record at a time, each rule in the order `_parse_record` checks a line."""
    first: dict[int, int] = {}
    for i, (seed, epochs, converged, diverged) in enumerate(rows):
        if type(seed) is not int:
            return f"record {i}: seed must be an integer, got {seed!r}"
        if seed < 0:
            return f"record {i}: seed must be >= 0, got {seed}"
        if type(epochs) is not int:
            return f"record {i}: epochs must be an integer, got {epochs!r}"
        if epochs < 1:
            return f"record {i}: epochs must be >= 1, got {epochs}"
        if epochs > cap:
            return f"record {i}: epochs {epochs} exceeds cap {cap}"
        if converged and diverged:
            return f"record {i}: run is both converged and diverged"
        if not converged and not diverged and epochs != cap:
            return f"record {i}: censored run must carry epochs == cap, got {epochs} != {cap}"
        if seed in first:
            return f"record {i}: seed {seed} repeats record {first[seed]}"
        first[seed] = i
    return None


def sample_of_rows(rows: list[tuple], cap: int) -> RunSample:
    """The sample over (seed, epochs, converged, diverged) rows as columns,
    epochs in an object column and every error 0.5."""
    seeds, epochs, converged, diverged = zip(*rows)
    runs = runner.RunBlock(
        np.array(epochs, dtype=object),
        np.array(converged),
        np.full(len(rows), 0.5),
        np.array(diverged),
    )
    return RunSample(seeds, runs, cap)


def sample_problem(build) -> str | None:
    """The ValueError message of `build()`, or None when it returns."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


MIXED_RECORDS = [
    RunRecord(seed=2**64 - 1, epochs=3, converged=True, final_error=0.1 + 0.2),
    RunRecord(seed=0, epochs=10, converged=False, final_error=-0.0),
    RunRecord(seed=5, epochs=2, converged=False, final_error=math.nan, diverged=True),
    RunRecord(seed=6, epochs=10, converged=False, final_error=math.inf, diverged=True),
    RunRecord(seed=7, epochs=1, converged=True, final_error=5e-324),
]


class TestColumns:
    def test_collected(self):
        sample = collect_runs(FormulaStub(modulus=40, cap_epochs=30), 200, base_seed=9)
        assert 0 < sample.n_censored < sample.n_runs
        assert_columns_hold(sample, sample.records)

    def test_hand_built_keeps_its_records(self):
        sample = sample_of(MIXED_RECORDS, cap=10)
        assert_columns_hold(sample, MIXED_RECORDS)

    def test_caller_list_is_not_held(self):
        records = MIXED_RECORDS[:2]
        sample = sample_of(records, cap=10)
        shown = repr(sample)
        records.append(MIXED_RECORDS[4])
        records[0] = RunRecord(seed=1, epochs=4, converged=False, final_error=1.0)
        assert sample.records == MIXED_RECORDS[:2]
        assert sample == sample_of(MIXED_RECORDS[:2], cap=10)
        assert repr(sample) == shown
        assert_columns_hold(sample, MIXED_RECORDS[:2])

    def test_equality_compares_columns(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        save_runs(sample_of(MIXED_RECORDS, cap=10, metadata="m"), path)
        assert math.isnan(load_runs(path).final_error[2])
        assert load_runs(path) == load_runs(path)
        positive_zero = replace(MIXED_RECORDS[1], final_error=0.0)
        assert sample_of([MIXED_RECORDS[1]], cap=10) == sample_of([positive_zero], cap=10)
        changed = [
            MIXED_RECORDS[:4],
            [*MIXED_RECORDS[:4], replace(MIXED_RECORDS[4], epochs=2)],
            [*MIXED_RECORDS[:2], replace(MIXED_RECORDS[2], final_error=0.5), *MIXED_RECORDS[3:]],
        ]
        assert load_runs(path) != sample_of(MIXED_RECORDS, cap=10)
        for records in changed:
            assert load_runs(path) != sample_of(records, cap=10, metadata="m")

    def test_empty(self):
        assert_columns_hold(sample_of([], cap=5), [])

    # A seed past 64 bits loads back as the Python int it was.
    @pytest.mark.parametrize("first_seed", [2**64 - 1, 10**30])
    def test_loaded(self, tmp_path, first_seed):
        records = [replace(MIXED_RECORDS[0], seed=first_seed), *MIXED_RECORDS[1:]]
        path = tmp_path / "runs.jsonl"
        save_runs(sample_of(records, cap=10, metadata="m"), path)
        loaded = load_runs(path)
        assert_columns_hold(loaded, records)
        assert_columns_hold(loaded, loaded.records)
        assert (loaded.cap, loaded.metadata) == (10, "m")

    def test_rejects_cap_beyond_int64(self):
        with pytest.raises(ValueError, match=rf"^cap must be <= 2\*\*63 - 1, got {2**63}$"):
            sample_of([], cap=2**63)
        top = RunRecord(seed=1, epochs=2**63 - 1, converged=True, final_error=0.0)
        assert sample_of([top], cap=2**63 - 1).epochs.tolist() == [2**63 - 1]

    # `save_runs` would write each of these caps as a header `load_runs`
    # refuses (10.0), or not write it at all (np.int64).
    @pytest.mark.parametrize("cap", [10.0, np.int64(10), True], ids=["float", "int64", "bool"])
    def test_rejects_cap_that_is_not_an_int(self, cap):
        problem = sample_problem(partial(sample_of, MIXED_RECORDS[:1], cap))
        assert problem == f"cap must be an integer, got {cap!r}"

    # Epochs come as any integer sequence, like the other columns; an
    # integer past int64 is still refused by value, not by a TypeError,
    # and one beside a negative epoch is named exactly.
    @pytest.mark.parametrize("column", [list, tuple])
    def test_epochs_may_be_any_integer_sequence(self, column):
        def sample(epochs):
            n = len(epochs)
            runs = runner.RunBlock(column(epochs), column([True] * n), [0.0] * n, [False] * n)
            return RunSample(range(n), runs, 10)

        assert sample([3, 4]).epochs.tolist() == [3, 4]
        assert sample([3, 4]).epochs.dtype == np.int64
        records = [RunRecord(0, 3, True, 0.0), RunRecord(1, 4, True, 0.0)]
        assert sample([3, 4]) == sample_of(records, 10)
        for epochs, problem in [
            ([3, 2**63], f"record 1: epochs {2**63} exceeds cap 10"),
            ([2**64, 3], f"record 0: epochs {2**64} exceeds cap 10"),
            ([2**63 + 1, -1], f"record 0: epochs {2**63 + 1} exceeds cap 10"),
            ([3, 0], "record 1: epochs must be >= 1, got 0"),
        ]:
            assert sample_problem(partial(sample, epochs)) == problem

    # A float or bool epoch is refused by type, not truncated to an int; an
    # int64 column needs no element-wise check, an object column gets one.
    @pytest.mark.parametrize(
        "epochs, shown",
        [
            (np.array([3.5]), "3.5"),
            ([3.5], "3.5"),
            (np.array([3.0]), "3.0"),
            (np.array([True]), "True"),
            ([True], "True"),
        ],
        ids=["float-array", "float-list", "whole-float-array", "bool-array", "bool-list"],
    )
    def test_refuses_epochs_that_are_not_integers(self, epochs, shown):
        runs = runner.RunBlock(epochs, [True], [0.0], [False])
        problem = sample_problem(partial(RunSample, [1], runs, 10))
        assert problem == f"record 0: epochs must be an integer, got {shown}"

    def test_epoch_type_is_checked_in_record_order(self):
        def problem(seeds, epochs):
            n = len(seeds)
            runs = runner.RunBlock(epochs, [True] * n, [0.0] * n, [False] * n)
            return sample_problem(partial(RunSample, seeds, runs, 10))

        assert problem([1, 2, 3], [3, 2.5, 11]) == "record 1: epochs must be an integer, got 2.5"
        assert problem([1, 2, 3], [3, 11, 2.5]) == "record 1: epochs 11 exceeds cap 10"
        assert problem([1, -2], [3, 2.5]) == "record 1: seed must be >= 0, got -2"
        assert problem([1, 1], [3, 2.5]) == "record 1: epochs must be an integer, got 2.5"
        assert problem([1, 1, 2], [3, 4, 2.5]) == "record 1: seed 1 repeats record 0"
        big = np.array([3, 2**63], dtype=object)
        assert problem([1, 2], big) == f"record 1: epochs {2**63} exceeds cap 10"
        numpy_int = np.array([3, np.int64(4)], dtype=object)  # its repr varies with numpy
        assert problem([1, 2], numpy_int).startswith("record 1: epochs must be an integer, got ")

    def test_first_bad_record_is_named(self):
        off_cap = RunRecord(seed=1, epochs=4, converged=False, final_error=1.0)
        huge = RunRecord(seed=2, epochs=2**64, converged=True, final_error=0.0)
        with pytest.raises(ValueError, match="record 0: censored"):
            sample_of([off_cap, huge], cap=10)
        with pytest.raises(ValueError, match=f"record 0: epochs {2**64} exceeds cap 10"):
            sample_of([huge, off_cap], cap=10)
        both = RunRecord(seed=3, epochs=2, converged=True, final_error=0.0, diverged=True)
        with pytest.raises(ValueError, match="record 5: run is both converged and diverged"):
            sample_of([*MIXED_RECORDS, both], cap=10)
        with pytest.raises(ValueError, match="record 5: seed 0 repeats record 1"):
            sample_of([*MIXED_RECORDS, replace(MIXED_RECORDS[1], seed=0)], cap=10)

    @given(
        st.lists(
            st.tuples(
                st.integers(-1, 3) | st.sampled_from([1.5, True, np.uint64(2)]),
                st.sampled_from([0, 1, 2, 3, 4, 5, 2**64, 3.0, 4.5, True]),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @example([(1, 4, True, False), (2, 0, False, False)])
    @example([(1, 4, False, False), (2, 2**64, True, False), (1, 4, False, False)])
    @example([(1, 3, False, False), (1, 4, False, False)])
    @example([(1, 4, True, False), (-1, 0, False, False)])
    @example([(0, 4, True, False), (0, 0, True, False), (-1, 4, True, False)])
    # A float seed saves a record `load_runs` refuses, a bool one that is not
    # JSON, and a numpy int would stay a numpy scalar in `seeds`.
    @example([(1, 4, True, False), (True, 0, False, False)])
    @example([(-1, 4, True, False), (1.5, 4, True, False)])
    @example([(1, 4, True, False), (1.5, 4, True, False), ([1], 4, True, False)])
    @example([(2, 4, True, False), (np.uint64(2), 4, True, False)])
    def test_one_check_matches_per_record_reference(self, rows):
        # Each way in must refuse what the reference refuses, with its
        # message. Columns with an object epochs column carry every row;
        # an int64 block column cannot hold 2**64, and `collect_runs`
        # derives its own seeds, so it takes the rows it can carry.
        cap = 4
        assert sample_problem(lambda: sample_of_rows(rows, cap)) == reference_first_bad(rows, cap)
        if all(type(epochs) is int and epochs < 2**63 for _, epochs, _, _ in rows):

            class Rows(FormulaStub):
                def attempt_many(self, seeds, cutoff):
                    _, epochs, converged, diverged = zip(*rows)
                    return runner.RunBlock(
                        np.array(epochs, dtype=np.int64),
                        np.array(converged),
                        np.full(len(rows), 0.5),
                        np.array(diverged),
                    )

            seeds = [derive_seed(1, i) for i in range(len(rows))]
            derived = [(seed, *row[1:]) for seed, row in zip(seeds, rows)]
            collect = partial(collect_runs, Rows(cap_epochs=cap), len(rows), base_seed=1)
            assert sample_problem(collect) == reference_first_bad(derived, cap)

    @given(
        st.lists(
            st.tuples(
                st.integers(-1, 3) | st.sampled_from([1.5, True]),
                st.integers(1, 5),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @example([(1, 2, True, True)])
    @example([(1, 4, True, False), (1.5, 4, True, False)])
    @example([(True, 4, True, False)])
    @example([(1, 4, False, False), (1, 4, False, False)])
    @example([(1, 2, True, False), (-1, 4, False, False)])
    def test_accepts_what_load_runs_accepts(self, tmp_path_factory, rows):
        # A sample exists exactly when a log of its runs loads back.
        keys = ("seed", "epochs", "converged", "diverged")
        records = (json.dumps({**dict(zip(keys, row)), "final_error": 0.5}) for row in rows)
        path = tmp_path_factory.mktemp("log") / "runs.jsonl"
        path.write_text("\n".join(['{"cap":4,"metadata":""}', *records]) + "\n", encoding="utf-8")
        try:
            loaded = load_runs(path)
        except RunLogFormatError:
            loaded = None
        try:
            sample = sample_of_rows(rows, 4)
        except ValueError:
            sample = None
        assert (sample is None) == (loaded is None)
        if sample is not None:
            assert loaded.records == sample.records


# Epochs as callers may pass them: mostly Python ints in [1, 4], and now and
# then a bool, a float, a numpy int or a nested list.
epoch_values = st.sampled_from([1, 2, 3, 4] * 4 + [True, 2.0, 3.5, np.int64(2), [2], [[3]]])


@st.composite
def epochs_columns(draw):
    """An epochs column: a list, a tuple, or an int64, uint64 or object array."""
    values = draw(st.lists(epoch_values, min_size=1, max_size=4))
    kind = draw(st.sampled_from([list, tuple, np.int64, np.uint64, object]))
    if kind in (list, tuple):
        return kind(values)
    try:
        return np.array(values, dtype=kind)
    except (ValueError, TypeError):  # a ragged list no integer array holds
        assume(False)


lengthen = st.sampled_from([0] * 10 + [-1, 1])


class TestSampleRoundTrip:
    # The columns a sample must refuse: a bool among ints, a nested column,
    # more seeds than rows, and a diverged column of one row on two runs.
    @given(epochs=epochs_columns(), extra=st.lists(lengthen, min_size=4, max_size=4))
    @example(epochs=[3, True], extra=[0, 0, 0, 0])
    @example(epochs=[[1], [2]], extra=[0, 0, 0, 0])
    @example(epochs=[3, 4], extra=[1, 0, 0, 0])
    @example(epochs=[3, 4], extra=[0, 0, 0, -1])
    def test_sample_exists_only_if_its_log_loads_back(self, tmp_path_factory, epochs, extra):
        # `extra` lengthens or shortens the seeds and the other three columns.
        rows = len(epochs)
        seeds, converged, errors, diverged = (rows + more for more in extra)
        runs = runner.RunBlock(epochs, [True] * converged, [0.5] * errors, [False] * diverged)
        try:
            sample = RunSample(range(seeds), runs, 4)
        except ValueError:
            return
        # A sample holds its epochs as given, each a Python int.
        typed = isinstance(epochs, np.ndarray) and epochs.dtype != object
        expected = epochs.tolist() if typed else list(epochs)
        assert list(map(repr, sample.epochs.tolist())) == list(map(repr, expected))
        path = tmp_path_factory.mktemp("log") / "runs.jsonl"
        save_runs(sample, path)
        assert load_runs(path) == sample

    @pytest.mark.parametrize(
        "seeds, epochs, diverged, message",
        [
            ([1, 2], [3, True], [False] * 2, "record 1: epochs must be an integer, got True"),
            ([1, 2], [[1], [2]], [False] * 2, "epochs must be 1-D with one row per seed, "
             "got shape (2, 1) for 2 seeds"),
            ([1, 2, 3], [3, 4], [False] * 2, "epochs must be 1-D with one row per seed, "
             "got shape (2,) for 3 seeds"),
            ([1, 2], [3, 4], [False], "diverged must be 1-D with one row per seed, "
             "got shape (1,) for 2 seeds"),
        ],
        ids=["bool-among-ints", "nested", "more-seeds-than-rows", "short-diverged"],
    )
    def test_refuses_columns_its_log_cannot_hold(self, seeds, epochs, diverged, message):
        runs = runner.RunBlock(epochs, [True, True], [0.0, 0.0], diverged)
        assert sample_problem(partial(RunSample, seeds, runs, 10)) == message

    def test_refuses_an_error_beyond_float_range(self):
        # The line reader refuses the same record: "'final_error' is an
        # integer beyond float range".
        runs = runner.RunBlock([3], [True], [10**400], [False])
        message = "final_error holds an integer beyond float range"
        assert sample_problem(partial(RunSample, [1], runs, 10)) == message
