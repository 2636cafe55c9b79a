import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from restartkit import runner
from restartkit import (
    DivergenceError,
    InsufficientDataError,
    LasVegasProcess,
    RunLogFormatError,
    RunRecord,
    RunSample,
    collect_runs,
    derive_seed,
    load_runs,
    save_runs,
    summary_stats,
)

from conftest import FormulaStub, make_sample


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

        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
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

    def test_divergence_recorded_not_raised(self):
        class ExplodingStub(LasVegasProcess):
            cap = 10

            def describe(self):
                return "exploding"

            def attempt(self, seed, cutoff):
                if seed % 2 == 0:
                    raise DivergenceError("boom")
                return RunRecord(seed=seed, epochs=1, converged=True, final_error=0.0)

        sample = collect_runs(ExplodingStub(), 20, base_seed=0)
        assert sample.n_runs == 20
        diverged = [r for r in sample.records if r.diverged]
        assert diverged, "some derived seeds should be even"
        for rec in diverged:
            assert not rec.converged
            assert rec.epochs == 10
            assert math.isnan(rec.final_error)


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


class TestRunLog:
    def test_round_trip_exact(self, tmp_path):
        records = [
            RunRecord(seed=2**63 + 1, epochs=17, converged=True, final_error=0.1 + 0.2),
            RunRecord(seed=0, epochs=100, converged=False, final_error=1e-300),
            RunRecord(
                seed=5, epochs=3, converged=False, final_error=float("nan"), diverged=True
            ),
        ]
        sample = RunSample(records=records, cap=100, metadata="round trip")
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
        record_line = runner._record_line
        calls = []

        def fail_third(r):
            calls.append(r)
            if len(calls) == 3:
                raise RuntimeError("disk gone")
            return record_line(r)

        monkeypatch.setattr(runner, "_record_line", fail_third)
        with pytest.raises(RuntimeError, match="disk gone"):
            save_runs(make_sample([1, 5, 9, 12]), path)
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
        sample = RunSample(records=MIXED_RECORDS, cap=10)
        assert sample.records is MIXED_RECORDS
        assert_columns_hold(sample, MIXED_RECORDS)

    def test_empty(self):
        assert_columns_hold(RunSample(records=[], cap=5), [])

    # A seed past 20 digits is not canonical, so the second log is read line by line.
    @pytest.mark.parametrize("first_seed", [2**64 - 1, 10**30])
    def test_loaded(self, tmp_path, first_seed):
        records = [replace(MIXED_RECORDS[0], seed=first_seed), *MIXED_RECORDS[1:]]
        path = tmp_path / "runs.jsonl"
        save_runs(RunSample(records=records, cap=10, metadata="m"), path)
        loaded = load_runs(path)
        assert_columns_hold(loaded, records)
        assert_columns_hold(loaded, loaded.records)
        assert (loaded.cap, loaded.metadata) == (10, "m")

    def test_rejects_cap_beyond_int64(self):
        with pytest.raises(ValueError, match=r"cap must be in \[1, 2\*\*63 - 1\]"):
            RunSample(records=[], cap=2**63)
        top = RunRecord(seed=1, epochs=2**63 - 1, converged=True, final_error=0.0)
        assert RunSample(records=[top], cap=2**63 - 1).epochs.tolist() == [2**63 - 1]

    def test_first_bad_record_is_named(self):
        off_cap = RunRecord(seed=1, epochs=4, converged=False, final_error=1.0)
        huge = RunRecord(seed=2, epochs=2**64, converged=True, final_error=0.0)
        with pytest.raises(ValueError, match="record 0: censored"):
            RunSample(records=[off_cap, huge], cap=10)
        with pytest.raises(ValueError, match=f"record 0: epochs {2**64} exceeds cap 10"):
            RunSample(records=[huge, off_cap], cap=10)
        both = RunRecord(seed=3, epochs=2, converged=True, final_error=0.0, diverged=True)
        with pytest.raises(ValueError, match="record 5: run is both converged and diverged"):
            RunSample(records=[*MIXED_RECORDS, both], cap=10)
        with pytest.raises(ValueError, match="record 5: seed 0 repeats record 1"):
            RunSample(records=[*MIXED_RECORDS, replace(MIXED_RECORDS[1], seed=0)], cap=10)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 5), st.booleans(), st.booleans()),
            min_size=1,
            max_size=5,
        )
    )
    @example([(1, 2, True, True)])
    @example([(1, 4, False, False), (1, 4, False, False)])
    def test_accepts_what_load_runs_accepts(self, tmp_path_factory, rows):
        # A sample exists exactly when the log `save_runs` would write for
        # its records loads back.
        records = [RunRecord(s, e, c, 0.5, diverged=d) for s, e, c, d in rows]
        path = tmp_path_factory.mktemp("log") / "runs.jsonl"
        lines = ['{"cap":4,"metadata":""}', *map(runner._record_line, records)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            loaded = load_runs(path)
        except RunLogFormatError:
            loaded = None
        try:
            sample = RunSample(records=records, cap=4)
        except ValueError:
            sample = None
        assert (sample is None) == (loaded is None)
        if sample is not None:
            assert loaded.records == sample.records
