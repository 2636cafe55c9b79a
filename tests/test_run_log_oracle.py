"""Run-log writer and reader against the plain `json` implementations they
replace: the writer must give the same bytes, the reader the same sample or
the same error on the same line."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restartkit import (
    InsufficientDataError,
    RunLogFormatError,
    RunRecord,
    collect_runs,
    load_runs,
    runner,
    save_runs,
)
from restartkit.synth import SyntheticProcess, parse_law

from conftest import reference_record_line, sample_of

CAP = 3
HEADER = '{"cap":3,"metadata":"oracle"}'


# ----------------------------------------------------------- reference copies


def reference_parse_record(obj: dict, lineno: int, cap: int) -> RunRecord:
    for key in ("seed", "epochs", "converged", "final_error"):
        if key not in obj:
            raise RunLogFormatError(f"line {lineno}: missing field '{key}'")
    seed, epochs, conv = obj["seed"], obj["epochs"], obj["converged"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise RunLogFormatError(f"line {lineno}: 'seed' must be an integer >= 0, got {seed!r}")
    if not isinstance(epochs, int) or isinstance(epochs, bool) or not 1 <= epochs <= cap:
        raise RunLogFormatError(
            f"line {lineno}: 'epochs' must be an integer in [1, cap={cap}], got {epochs!r}"
        )
    if not isinstance(conv, bool):
        raise RunLogFormatError(f"line {lineno}: 'converged' must be a boolean")
    err = obj["final_error"]
    if not isinstance(err, (int, float)) or isinstance(err, bool):
        raise RunLogFormatError(f"line {lineno}: 'final_error' must be numeric")
    diverged = obj.get("diverged", False)
    if not isinstance(diverged, bool) or (conv and diverged):
        raise RunLogFormatError(f"line {lineno}: 'diverged' must be a boolean, false if converged")
    if not conv and not diverged and epochs != cap:
        raise RunLogFormatError(f"line {lineno}: censored run must carry epochs == cap={cap}")
    return RunRecord(
        seed=seed, epochs=epochs, converged=conv, final_error=float(err), diverged=diverged
    )


def reference_load_body(lines: list[str], cap: int) -> list[RunRecord]:
    """The record loop of the `json.loads`-based reader."""
    records = []
    seed_lines: dict[int, int] = {}
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RunLogFormatError(f"line {lineno}: invalid record: {exc}") from exc
        if not isinstance(obj, dict):
            raise RunLogFormatError(f"line {lineno}: record must be an object")
        record = reference_parse_record(obj, lineno, cap)
        if record.seed in seed_lines:
            raise RunLogFormatError(
                f"line {lineno}: seed {record.seed} repeats line {seed_lines[record.seed]}"
            )
        seed_lines[record.seed] = lineno
        records.append(record)
    if not records:
        raise InsufficientDataError("no records")
    return records


# ------------------------------------------------------------------- helpers


def record_key(r: RunRecord) -> tuple:
    err = "nan" if math.isnan(r.final_error) else float.hex(r.final_error)
    return (r.seed, r.epochs, r.converged, err, r.diverged, type(r.final_error))


def outcome(load):
    try:
        return [record_key(r) for r in load()]
    except (RunLogFormatError, InsufficientDataError) as exc:
        # The empty-log message names the path, which differs; keep the type.
        if isinstance(exc, InsufficientDataError):
            return "InsufficientDataError"
        return f"RunLogFormatError: {exc}"


def check_same(tmp_path, lines: list[str]) -> None:
    path = tmp_path / "runs.jsonl"
    text = "\n".join([HEADER, *lines]) + "\n"
    path.write_text(text, encoding="utf-8")
    body = path.read_text(encoding="utf-8").splitlines()[1:]
    assert outcome(lambda: load_runs(path).records) == outcome(
        lambda: reference_load_body(body, CAP)
    )


# -------------------------------------------------------------------- writer

finals = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [float("nan"), math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308]
)


@st.composite
def records(draw):
    converged = draw(st.booleans())
    return RunRecord(
        seed=draw(st.integers(0, 2**64 - 1)),
        epochs=draw(st.integers(1, 10**12)),
        converged=converged,
        final_error=draw(finals),
        diverged=not converged and draw(st.booleans()),
    )


class TestWriterOracle:
    @given(records())
    @example(RunRecord(seed=2**64 - 1, epochs=1, converged=False, final_error=-0.0))
    @example(RunRecord(seed=0, epochs=7, converged=True, final_error=5e-324))
    @example(RunRecord(seed=3, epochs=2, converged=False, final_error=math.nan, diverged=True))
    @example(RunRecord(seed=4, epochs=2, converged=False, final_error=math.inf, diverged=True))
    @example(RunRecord(seed=5, epochs=2, converged=False, final_error=-math.inf))
    def test_line_bytes_equal(self, record):
        sample = sample_of([record], cap=record.epochs)
        assert runner._record_lines(sample) == [reference_record_line(record)]

    @pytest.mark.parametrize("err", [np.float64(0.1), 0, 7, np.float64("nan")])
    def test_non_plain_float_errors_equal(self, err):
        # The writer reads the sample's float64 column, so an int error is
        # spelled as the float it is stored as.
        record = RunRecord(seed=1, epochs=2, converged=True, final_error=err)
        sample = sample_of([record], cap=2)
        assert runner._record_lines(sample) == [
            reference_record_line(replace(record, final_error=float(err)))
        ]

    @settings(max_examples=25)
    @given(
        st.lists(records(), min_size=1, max_size=20, unique_by=lambda r: r.seed),
        st.text(max_size=20),
    )
    def test_file_bytes_equal(self, tmp_path_factory, recs, metadata):
        cap = max(r.epochs for r in recs)
        recs = [r if r.converged or r.diverged else replace(r, epochs=cap) for r in recs]
        sample = sample_of(recs, cap=cap, metadata=metadata)
        path = tmp_path_factory.mktemp("w") / "runs.jsonl"
        save_runs(sample, path)
        header = json.dumps({"cap": cap, "metadata": metadata}, separators=(",", ":"))
        expected = header + "\n" + "".join(reference_record_line(r) + "\n" for r in recs)
        assert path.read_bytes() == expected.encode("utf-8")


# -------------------------------------------------------------------- reader

@st.composite
def record_object(draw):
    """A valid record object, or one with a single field broken or missing."""
    converged = draw(st.booleans())
    small_seed = draw(st.integers(0, 9)) == 0  # repeats a seed now and then
    obj = {
        "seed": draw(st.integers(0, 3) if small_seed else st.integers(0, 2**64 - 1)),
        "epochs": draw(st.integers(1, CAP)) if converged else CAP,
        "converged": converged,
        "final_error": draw(finals | st.integers(-(10**20), 10**20)),
    }
    if not converged and draw(st.booleans()):
        obj["diverged"] = draw(st.booleans())
    if draw(st.booleans()):
        obj["note"] = draw(st.integers() | st.text(max_size=3) | st.none())
    if draw(st.integers(0, 5)) == 0:
        key = draw(st.sampled_from(["seed", "epochs", "converged", "final_error", "diverged"]))
        bad = draw(st.sampled_from([None, -1, 0, CAP + 1, 2**64, 1.5, "1", True, False, []]))
        if bad is None and key in obj:
            del obj[key]
        else:
            obj[key] = bad
    return obj


@st.composite
def record_text(draw):
    """One record object spelled as a writer other than ours might spell it."""
    items = draw(st.permutations(list(draw(record_object()).items())))
    seps = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,", " :")]))
    return json.dumps(dict(items), separators=seps)


@st.composite
def record_lines(draw):
    """Record lines with whitespace, trailing data, two objects on a line,
    objects split over two lines, and blank lines mixed in."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        text = draw(record_text())
        kind = draw(
            st.sampled_from(["plain"] * 8 + ["pad"] * 3 + ["blank"] * 2 + ["trail", "pair", "split"])
        )
        if kind == "pad":
            pad = st.sampled_from(["", " ", "\t", "  "])
            text = draw(pad) + text + draw(pad)
        elif kind == "trail":
            text += draw(st.sampled_from([" 1", "x", "}", "{}", ",", " []", "\t"]))
        elif kind == "pair":
            text += draw(st.sampled_from(["", " "])) + draw(record_text())
        elif kind == "split":
            cut = draw(st.integers(1, len(text) - 1))
            lines.append(text[:cut])
            text = text[cut:]
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        lines.append(text)
    return lines


class TestReaderOracle:
    @settings(max_examples=300)
    @given(lines=record_lines())
    def test_same_sample_or_same_error(self, tmp_path_factory, lines):
        check_same(tmp_path_factory.mktemp("r"), lines)

    @pytest.mark.parametrize(
        "lines",
        [
            # Two objects on one line next to one object split over two:
            # one JSON array would take both, the line reader takes neither.
            ['{"seed":1,"epochs":3,"converged":false,"final_error":1.0}'
             '{"seed":2,"epochs":3,"converged":false,"final_error":1.0}',
             '{"seed":3,"epochs":3,',
             '"converged":false,"final_error":1.0}'],
            ['{"seed":1,"epochs":3,', '"converged":false,"final_error":1.0}'],
            ['  {"seed":1,"epochs":3,"converged":false,"final_error":1.0}\t'],
            ['{"final_error":7,"converged":true,"epochs":2,"seed":1,"extra":[1]}'],
            ['{"seed":1,"epochs":2,"converged":true,"final_error":0.0} x'],
            ['', '{"seed":1,"epochs":2,"converged":true,"final_error":0.0}', '  ',
             '{"seed":1,"epochs":1,"converged":true,"final_error":0.0}'],
            ['{"seed":1,"epochs":2,"converged":true,"final_error":NaN}'],
            ['{"seed":1,"epochs":2,"converged":true,"final_error":-Infinity}'],
            ['{"seed":1,"seed":2,"epochs":2,"converged":true,"final_error":0}'],
            ['[1]'],
            ['"seed"'],
            ["\ufeff" '{"seed":1,"epochs":2,"converged":true,"final_error":0.0}'],
            # Two records on one line, then one record over two lines that
            # each open with "{": one array reads three rows from three
            # lines, where the line reader refuses the first line. Only the
            # "{" inside the extra key gives it away...
            ['{"seed":1,"epochs":3,"converged":false,"final_error":1.0},'
             '{"seed":2,"epochs":3,"converged":false,"final_error":1.0}',
             '{"seed":3,"epochs":3,"converged":false,"final_error":1.0,"x":[{"a":1}',
             '{"b":2}]}'],
            # ...or inside a repeated key, which leaves the row with the four
            # fields and no other key.
            ['{"seed":1,"epochs":3,"converged":false,"final_error":1.0},'
             '{"seed":2,"epochs":3,"converged":false,"final_error":1.0,"seed":[{"a":1}',
             '{"b":2}],"seed":3}'],
        ],
    )
    def test_named_cases(self, tmp_path, lines):
        check_same(tmp_path, lines)


# ------------------------------------------------- canonical and mixed logs


@st.composite
def canonical_line(draw):
    """A record line spelled exactly as `save_runs` writes it; now and then
    one that fails a check: epochs past the cap, converged and diverged,
    censored off the cap, or (from the small seeds) a repeated seed."""
    converged = draw(st.booleans())
    diverged = not converged and draw(st.booleans())
    epochs = draw(st.integers(1, CAP)) if converged or diverged else CAP
    fault = draw(st.sampled_from([None] * 12 + ["epochs", "both", "off-cap"]))
    if fault == "epochs":
        epochs = draw(st.integers(CAP + 1, 10**18))
    elif fault == "both":
        converged = diverged = True
    elif fault == "off-cap":
        converged = diverged = False
        epochs = draw(st.integers(1, CAP - 1))
    small_seed = draw(st.integers(0, 9)) == 0
    record = RunRecord(
        seed=draw(st.integers(0, 3) if small_seed else st.integers(0, 2**64 - 1)),
        epochs=epochs,
        converged=converged,
        final_error=draw(finals),
        diverged=diverged,
    )
    return reference_record_line(record)


@st.composite
def mixed_lines(draw):
    """Canonical lines with other spellings of valid and broken records,
    padded and blank lines inserted among them, each line ended by \\n or
    \\r\\n."""
    lines = draw(st.lists(canonical_line(), min_size=1, max_size=25))
    for _ in range(draw(st.integers(0, 4))):
        other = draw(
            st.one_of(
                record_text(),
                st.sampled_from(["", "  ", "\t"]),
                canonical_line().map(lambda line: f" {line}\t"),
            )
        )
        # Position len(lines) puts the line, possibly a broken record, after
        # every canonical line.
        lines.insert(draw(st.integers(0, len(lines))), other)
    n = len(lines)
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=n, max_size=n))
    return "".join(line + end for line, end in zip(lines, endings))


class TestCanonicalReader:
    @settings(max_examples=300)
    @given(body=mixed_lines())
    @example(body='{"seed":1,"epochs":3,"converged":false,"final_error":1.0}\n')
    @example(
        body='{"seed":1,"epochs":2,"converged":true,"final_error":0.5}\r\n'
        '{"seed":2,"epochs":3,"converged":false,"final_error":NaN,"diverged":true}\n'
        '{"seed":3, "epochs":2,"converged":true,"final_error":7}\n'
    )
    @example(
        body='{"seed":1,"epochs":2,"converged":true,"final_error":0.5}\n'
        '{"seed":2,"epochs":2,"converged":true,"final_error":0.5}\n'
        '{"seed":3,"epochs":2,"converged":true,"final_error":0.5,"diverged":true}\n'
    )
    @example(
        body='{"seed":1,"epochs":2,"converged":true,"final_error":1e400}\n'
        '{"seed":1,"epochs":3,"converged":false,"final_error":-Infinity}\n'
    )
    def test_same_sample_or_same_error(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("c") / "runs.jsonl"
        path.write_bytes((HEADER + "\n" + body).encode("utf-8"))
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert outcome(lambda: load_runs(path).records) == outcome(
            lambda: reference_load_body(lines, CAP)
        )

    def test_save_runs_output_takes_the_canonical_path(self, tmp_path, monkeypatch):
        # `analyze-stub`'s law and cap: a log with censored runs.
        pareto = SyntheticProcess(parse_law("discrete-pareto:0.5:50"), cap_epochs=5000)
        logs = [
            sample_of(
                [
                    RunRecord(seed=2**64 - 1, epochs=3, converged=True, final_error=0.1),
                    RunRecord(seed=0, epochs=3, converged=False, final_error=-0.0),
                    RunRecord(
                        seed=9, epochs=2, converged=False, final_error=math.nan, diverged=True
                    ),
                ],
                cap=CAP,
            ),
            collect_runs(pareto, n_runs=2000, base_seed=11),
        ]
        assert logs[1].n_censored > 0

        def no_strict(lines, cap):
            raise AssertionError("a save_runs log was read line by line")

        monkeypatch.setattr(runner, "_strict_columns", no_strict)
        for i, sample in enumerate(logs):
            path = tmp_path / f"runs{i}.jsonl"
            save_runs(sample, path)
            assert [record_key(r) for r in load_runs(path).records] == [
                record_key(r) for r in sample.records
            ]

    # Canonical lines but for epochs that only their type, or a range past
    # int64, puts out of bounds. The one-pass columns take them, so it is
    # `RunSample` that must refuse them and leave the line to the strict
    # reader. A nested epoch on every line makes a 2-D column.
    @pytest.mark.parametrize("epochs", ["true", "3.0", "[3]", str(2**63)])
    @pytest.mark.parametrize("bad", [[2], [4], [2, 3, 4]], ids=["first", "last", "every"])
    def test_bad_epochs_name_their_line(self, tmp_path, epochs, bad):
        lines = [
            reference_record_line(RunRecord(seed, 3, converged=False, final_error=1.0))
            for seed in range(3)
        ]
        for lineno in bad:
            lines[lineno - 2] = lines[lineno - 2].replace('"epochs":3', f'"epochs":{epochs}')
        message = (
            f"line {bad[0]}: 'epochs' must be an integer in [1, cap=3], "
            f"got {json.loads(epochs)!r}"
        )
        assert outcome(lambda: reference_load_body(lines, CAP)) == f"RunLogFormatError: {message}"
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join([HEADER, *lines, ""]), encoding="utf-8")
        with pytest.raises(RunLogFormatError) as error:
            load_runs(path)
        assert str(error.value) == message


# ------------------------------------------------------ re-spelled whole logs


def reference_load(path):
    """The whole `json.loads`-based reader: `splitlines`, the header, then
    `reference_load_body`. Returns (cap, metadata, records)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InsufficientDataError("empty")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise RunLogFormatError(f"line 1: invalid header: {exc}") from exc
    if not isinstance(header, dict) or "cap" not in header:
        raise RunLogFormatError("line 1: header must carry 'cap'")
    cap = header["cap"]
    if type(cap) is not int or not 1 <= cap <= 2**63 - 1:
        raise RunLogFormatError("line 1: 'cap' must be an integer in [1, 2**63 - 1]")
    metadata = header.get("metadata", "")
    if not isinstance(metadata, str):
        raise RunLogFormatError("line 1: 'metadata' must be a string")
    return cap, metadata, reference_load_body(lines[1:], cap)


def log_outcome(load):
    try:
        cap, metadata, records = load()
    except RunLogFormatError as exc:
        return f"RunLogFormatError: {exc}"
    return cap, metadata, [record_key(r) for r in records]


def loaded_parts(path):
    sample = load_runs(path)
    return sample.cap, sample.metadata, sample.records


RESPELLED_RECORDS = [
    RunRecord(seed=2**64 - 1, epochs=3, converged=True, final_error=0.1),
    RunRecord(seed=0, epochs=5, converged=False, final_error=-0.0),
    RunRecord(seed=9, epochs=2, converged=False, final_error=math.nan, diverged=True),
    RunRecord(seed=4, epochs=1, converged=True, final_error=5e-324),
]
METADATA = "process=stub(thyroïde ✓) n_runs=4"


def non_ascii_header(text: str) -> str:
    header = {"cap": 5, "metadata": METADATA}
    return json.dumps(header, ensure_ascii=False, separators=(",", ":")) + text[text.index("\n") :]


def inside_line(char: str, where: str):
    """Put `char` inside the header's metadata or inside the second record line."""
    if where == "header":
        return lambda text: non_ascii_header(text).replace("✓", char, 1)
    return lambda text: text.replace('"epochs":5,', f'"epochs":5,{char}', 1)


class TestRespelledLogs:
    """A `save_runs` log re-spelled so that the one-pass reader may not take
    it: the reader gives the sample or the error (message and line) that the
    whole `json.loads` reader gives."""

    @pytest.mark.parametrize(
        "respell, loads",
        [
            (lambda text: text.replace("\n", "\r\n"), True),
            (inside_line("\u2028", "record"), False),
            (inside_line("\u2028", "header"), False),
            (inside_line("\x85", "record"), False),
            (inside_line("\x85", "header"), False),
            # A line break that `splitlines` takes and "\n" does not.
            (lambda text: text.replace("\n", "\x85", 2).replace("\x85", "\n", 1), True),
            (lambda text: text + "\n", True),
            (lambda text: text + "  \n\t", True),
            (non_ascii_header, True),
            (lambda text: '{"cap":5,"metadata":null}' + text[text.index("\n") :], False),
        ],
        ids=[
            "crlf", "u2028-in-record", "u2028-in-header", "x85-in-record",
            "x85-in-header", "x85-line-end", "blank-last-line", "blank-tail",
            "non-ascii-metadata", "null-metadata",
        ],
    )
    def test_same_as_whole_json_reader(self, tmp_path, respell, loads):
        path = tmp_path / "runs.jsonl"
        save_runs(sample_of(RESPELLED_RECORDS, cap=5, metadata=METADATA), path)
        plain = log_outcome(lambda: loaded_parts(path))
        text = respell(path.read_text(encoding="utf-8"))
        path.write_bytes(text.encode("utf-8"))
        got = log_outcome(lambda: loaded_parts(path))
        assert got == log_outcome(lambda: reference_load(path))
        assert (got == plain) == loads
        if not loads:
            assert got.startswith("RunLogFormatError: line ")
