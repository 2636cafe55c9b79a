"""Las Vegas process contract, bulk run collection, and run-log persistence.

A Las Vegas process is anything that can be attempted under an epoch cutoff
and reports back how long it ran and whether it hit its goal. Runs are
collected under per-index derived seeds so a whole batch is reproducible
from a single base seed, regardless of execution order or parallelism.
"""

from __future__ import annotations

import json
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Protocol

import numpy as np

from .errors import InsufficientDataError, RunLogFormatError

_MASK64 = (1 << 64) - 1


def mix64(z):
    """SplitMix64 finalizer, all arithmetic mod 2**64.

    Takes a Python int or a uint64 array and returns the same type. Pinned
    so run logs are reproducible across implementations:

        z = z + 0x9E3779B97F4A7C15
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        out = z ^ (z >> 31)
    """
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index):
    """Seed for run `index` of a batch started from `base_seed`: mix64(base ^ index).

    `index` is a Python int or a uint64 array of indices (then the result
    is a uint64 array). Only the low 64 bits of `base_seed` matter.
    """
    return mix64((base_seed & _MASK64) ^ index)


def worker_count(n_jobs: int, n_items: int) -> int:
    """Workers worth starting: at most `n_jobs`, the items, and the usable CPUs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(n_jobs, n_items, cpus))


def parallel_map(tasks: list, n_jobs: int) -> list:
    """[task() for task in tasks], in order, on one process pool when that helps.

    Each task is one pool task, taken in list order by whichever worker
    frees up first, so callers sharing a pool queue their longest tasks
    first. Runs serially when one worker suffices (see `worker_count`). The
    tasks must pickle, e.g. a `functools.partial` of a bound method.
    """
    workers = worker_count(n_jobs, len(tasks))
    if workers == 1:
        return [task() for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]


@dataclass(frozen=True)
class RunRecord:
    """One completion-time observation of a Las Vegas process.

    `epochs` is the observed running time T when `converged`, otherwise the
    cutoff the run was censored at. `diverged` flags runs aborted by a
    numeric failure; for those, `epochs` is the epoch the run diverged at,
    not the cutoff, and `final_error` is the last finite objective.
    """

    seed: int
    epochs: int
    converged: bool
    final_error: float
    diverged: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be unsigned, got {self.seed}")


class LasVegasProcess(Protocol):
    """Behavioral contract for a restartable randomized process.

    `attempt_many(seeds, cutoff)` runs each seed for at most `cutoff`
    epochs, a cutoff in [1, `MAX_CAP`], and returns one record per seed in
    seed order. It is a pure function of its arguments: the same seed gives
    the same record wherever it sits in the block, even repeated. A
    numeric failure is a diverged record, never an exception. `cap` is the
    default censoring cutoff for plain (no-restart) runs; `collect_runs`
    calls `attempt_many` once per block of seeds, and processes that
    subclass the protocol inherit `attempt`, a block of one.

    Attempts obey the prefix contract: a seed's trajectory does not depend
    on the cutoff. If an attempt converges or diverges at epoch e, any
    attempt with the same seed and cutoff >= e does so at the same e, and
    one with cutoff t < e is censored at t. `strategies.run_schedules`
    relies on it to serve several cutoffs of one seed from one attempt.
    """

    @property
    def cap(self) -> int: ...

    def describe(self) -> str: ...

    def attempt_many(self, seeds: list[int], cutoff: int) -> list[RunRecord]: ...

    def attempt(self, seed: int, cutoff: int) -> RunRecord:
        return self.attempt_many([seed], cutoff)[0]


# Largest censoring cap: a sample keeps its epochs in an int64 column.
MAX_CAP = 2**63 - 1


def check_cutoff(cutoff: int) -> None:
    """Reject a cutoff outside [1, `MAX_CAP`], the range `attempt_many` takes."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if cutoff > MAX_CAP:
        raise ValueError(f"cutoff must be <= 2**63 - 1, got {cutoff}")


class RunSample:
    """An ordered collection of runs sharing one censoring cap.

    The runs are held as columns, one entry per run in record order:
    `seeds` (a list of Python ints, so any non-negative seed round-trips),
    `epochs` (int64), `converged` and `diverged` (bool) and `final_error`
    (float64); the arrays are read-only. `records` builds the `RunRecord`s
    on first read, except that a sample built from records keeps that list.
    The runs obey the checks `load_runs` makes (see `_valid_columns`), so
    every sample's `save_runs` log loads back.
    """

    def __init__(self, records: list[RunRecord], cap: int, metadata: str = "") -> None:
        if not 1 <= cap <= MAX_CAP:
            raise ValueError(f"cap must be in [1, 2**63 - 1], got {cap}")
        epochs = [r.epochs for r in records]
        # Checked first: past the cap an epochs value may not fit int64.
        if max(epochs, default=1) > cap:
            _raise_first_bad(records, cap)
        self._set_columns(
            [r.seed for r in records],
            epochs,
            [r.converged for r in records],
            [r.final_error for r in records],
            [r.diverged for r in records],
            cap,
            metadata,
        )
        if not _valid_columns(self.seeds, self.epochs, self.converged, self.diverged, cap):
            _raise_first_bad(records, cap)
        self._records = records

    @classmethod
    def _from_columns(cls, seeds, epochs, converged, final_error, diverged, cap, metadata):
        """A sample over columns that already passed `load_runs`'s checks."""
        sample = cls.__new__(cls)
        sample._set_columns(seeds, epochs, converged, final_error, diverged, cap, metadata)
        sample._records = None
        return sample

    def _set_columns(self, seeds, epochs, converged, final_error, diverged, cap, metadata):
        self.seeds = seeds
        self.epochs = _frozen(epochs, np.int64)
        self.converged = _frozen(converged, bool)
        self.diverged = _frozen(diverged, bool)
        self.final_error = _frozen(final_error, np.float64)
        self.cap = cap
        self.metadata = metadata
        self.n_converged = int(np.count_nonzero(self.converged))

    @property
    def records(self) -> list[RunRecord]:
        if self._records is None:
            self._records = list(
                map(
                    RunRecord,
                    self.seeds,
                    self.epochs.tolist(),
                    self.converged.tolist(),
                    self.final_error.tolist(),
                    self.diverged.tolist(),
                )
            )
        return self._records

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunSample):
            return NotImplemented
        return (self.records, self.cap, self.metadata) == (other.records, other.cap, other.metadata)

    def __repr__(self) -> str:
        return f"RunSample(records={self.records!r}, cap={self.cap!r}, metadata={self.metadata!r})"

    @property
    def n_runs(self) -> int:
        return len(self.seeds)

    @property
    def n_censored(self) -> int:
        return self.n_runs - self.n_converged

    def converged_epochs(self) -> np.ndarray:
        """Completion times of converged runs, in record order (int64)."""
        return self.epochs[self.converged]


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _valid_columns(seeds, epochs, converged, diverged, cap: int) -> bool:
    """Whether the columns obey what `load_runs` asks of a log's records:
    epochs <= cap, censored runs carry epochs == cap, no run is both
    converged and diverged, and no seed repeats."""
    return not (
        np.any(epochs > cap)
        or np.any((converged & diverged) | (~(converged | diverged) & (epochs != cap)))
        or len(set(seeds)) != len(seeds)
    )


def _raise_first_bad(records: list[RunRecord], cap: int) -> None:
    first: dict[int, int] = {}
    for i, r in enumerate(records):
        if r.epochs > cap:
            raise ValueError(f"record {i}: epochs {r.epochs} exceeds cap {cap}")
        if r.converged and r.diverged:
            raise ValueError(f"record {i}: run is both converged and diverged")
        if not r.converged and not r.diverged and r.epochs != cap:
            raise ValueError(
                f"record {i}: censored run must carry epochs == cap, got {r.epochs} != {cap}"
            )
        if r.seed in first:
            raise ValueError(f"record {i}: seed {r.seed} repeats record {first[r.seed]}")
        first[r.seed] = i


@dataclass(frozen=True)
class SummaryStats:
    """Sample mean/deviation of completion time over converged runs."""

    mean: float
    stddev: float
    ratio: float
    n_converged: int
    n_censored: int


def collect_tasks(process: LasVegasProcess, n_runs: int, base_seed: int, n_jobs: int = 1):
    """`collect_runs` as the pool tasks it queues, one `attempt_many` call per
    contiguous block of ceil(n_runs / workers) seeds (one block when serial),
    and the function that builds its sample from their results, in order."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    cap = process.cap
    seeds = derive_seed(base_seed, np.arange(n_runs, dtype=np.uint64)).tolist()
    size = -(-n_runs // worker_count(n_jobs, n_runs))
    blocks = [seeds[i : i + size] for i in range(0, n_runs, size)]
    meta = f"process={process.describe()} base_seed={base_seed} n_runs={n_runs}"
    tasks = [partial(process.attempt_many, block, cap) for block in blocks]
    return tasks, lambda results: RunSample([r for rs in results for r in rs], cap, meta)


def collect_runs(
    process: LasVegasProcess,
    n_runs: int,
    base_seed: int,
    n_jobs: int = 1,
) -> RunSample:
    """Run `process` `n_runs` times under derived seeds and collect records.

    records[i] uses seed ``derive_seed(base_seed, i)`` and the process cap
    as cutoff. The result is identical for any `n_jobs`: records are keyed
    by index, and attempts share no mutable state.

    The pool gets one task per worker (see `collect_tasks`; `sweep` queues
    the same tasks ahead of its restart trials, in one pool).
    """
    tasks, sample = collect_tasks(process, n_runs, base_seed, n_jobs)
    return sample(parallel_map(tasks, n_jobs))


def summary_stats(sample: RunSample) -> SummaryStats:
    """Mean, sample standard deviation, and their ratio over converged runs.

    Censored runs are excluded from the moments; their count is reported so
    the exclusion is always visible.
    """
    epochs = sample.converged_epochs()
    if epochs.size < 2:
        raise InsufficientDataError(
            f"need >= 2 converged runs for summary statistics, have {epochs.size}"
        )
    mean = float(np.mean(epochs))
    stddev = float(np.std(epochs, ddof=1))
    return SummaryStats(
        mean=mean,
        stddev=stddev,
        ratio=stddev / mean,
        n_converged=int(epochs.size),
        n_censored=sample.n_censored,
    )


def _json_number(x) -> str:
    """`x` spelled as `json.dumps` spells it, without its per-call cost:
    `float.__repr__` for a finite float, `NaN` or `[-]Infinity` otherwise."""
    if isinstance(x, float) and x - x == 0.0:
        return float.__repr__(x)
    return json.dumps(x)


def _record_line(r: RunRecord) -> str:
    converged = "true" if r.converged else "false"
    end = ',"diverged":true}' if r.diverged else "}"
    return (
        f'{{"seed":{r.seed},"epochs":{r.epochs},"converged":{converged},'
        f'"final_error":{_json_number(r.final_error)}{end}'
    )


def save_runs(sample: RunSample, path) -> None:
    """Write a run log: a JSON header line, then one JSON record per line.

    The lines go to a temporary file beside `path`, which is then renamed
    onto it, so a write that fails midway leaves any earlier log intact.
    """
    header = json.dumps(
        {"cap": sample.cap, "metadata": sample.metadata}, separators=(",", ":")
    )
    text = "\n".join([header, *map(_record_line, sample.records), ""])
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_record(obj: dict, lineno: int, cap: int) -> tuple:
    """(seed, epochs, converged, final_error, diverged) of one decoded record."""
    # Values come from json, so `type(v) is int` excludes exactly the bools.
    try:
        seed, epochs, conv, err = obj["seed"], obj["epochs"], obj["converged"], obj["final_error"]
    except KeyError as exc:
        raise RunLogFormatError(f"line {lineno}: missing field '{exc.args[0]}'") from None
    if type(seed) is not int or seed < 0:
        raise RunLogFormatError(f"line {lineno}: 'seed' must be an integer >= 0, got {seed!r}")
    if type(epochs) is not int or not 1 <= epochs <= cap:
        raise RunLogFormatError(
            f"line {lineno}: 'epochs' must be an integer in [1, cap={cap}], got {epochs!r}"
        )
    if type(conv) is not bool:
        raise RunLogFormatError(f"line {lineno}: 'converged' must be a boolean")
    if type(err) is not float and type(err) is not int:
        raise RunLogFormatError(f"line {lineno}: 'final_error' must be numeric")
    try:
        err = float(err)
    except OverflowError:
        raise RunLogFormatError(
            f"line {lineno}: 'final_error' is an integer beyond float range"
        ) from None
    diverged = obj.get("diverged", False)
    if type(diverged) is not bool or (conv and diverged):
        raise RunLogFormatError(f"line {lineno}: 'diverged' must be a boolean, false if converged")
    if not conv and not diverged and epochs != cap:
        raise RunLogFormatError(f"line {lineno}: censored run must carry epochs == cap={cap}")
    return seed, epochs, conv, err, diverged


# One line exactly as `save_runs` writes it. The digit bounds keep every
# epochs value inside int64 and every integer far below `int`'s digit limit;
# a longer number, like any other spelling, takes the line-by-line path.
_CANONICAL_RECORD = re.compile(
    r'^\{"seed":(0|[1-9][0-9]{0,19}),"epochs":([1-9][0-9]{0,17}),"converged":(true|false),'
    r'"final_error":(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)'
    r'|NaN|-?Infinity)'
    r'(,"diverged":true)?\}$',
    re.MULTILINE | re.ASCII,
)


def _canonical_columns(lines: list[str], cap: int) -> tuple | None:
    """The record columns, when every line is canonical and passes every check.

    One regex pass extracts the fields; `float` parses each error as `json`
    does. Anything else returns None.
    """
    rows = _CANONICAL_RECORD.findall("\n".join(lines))
    if not rows or len(rows) != len(lines):
        return None
    seeds, epochs, converged, final_error, diverged = zip(*rows)
    seeds = list(map(int, seeds))
    epochs = np.array(list(map(int, epochs)), dtype=np.int64)
    converged = np.fromiter(map(len, converged), np.int64, len(rows)) == 4  # "true"
    diverged = np.fromiter(map(bool, diverged), bool, len(rows))
    if not _valid_columns(seeds, epochs, converged, diverged, cap):
        return None
    return seeds, epochs, converged, list(map(float, final_error)), diverged


def _strict_columns(lines: list[str], cap: int) -> tuple:
    """The record columns, decoding each line with `json` and checking it."""
    parsed = []
    seed_lines: dict[int, int] = {}
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or int's digit limit
            raise RunLogFormatError(f"line {lineno}: invalid record: {exc}") from exc
        if not isinstance(obj, dict):
            raise RunLogFormatError(f"line {lineno}: record must be an object")
        row = _parse_record(obj, lineno, cap)
        if row[0] in seed_lines:
            raise RunLogFormatError(
                f"line {lineno}: seed {row[0]} repeats line {seed_lines[row[0]]}"
            )
        seed_lines[row[0]] = lineno
        parsed.append(row)
    seeds, epochs, converged, final_error, diverged = zip(*parsed) if parsed else ((),) * 5
    return list(seeds), epochs, converged, final_error, diverged


def load_runs(path) -> RunSample:
    """Read a run log written by `save_runs` (lossless round trip).

    A log whose records are all spelled as `save_runs` spells them and pass
    every check is read in one regex pass into columns. Any other log goes
    line by line through `json`, so it is accepted or rejected, with the
    same message and line, exactly as that decoder and `_parse_record` decide.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InsufficientDataError(f"run log {path} is empty")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:  # JSONDecodeError, or int's digit limit
        raise RunLogFormatError(f"line 1: invalid header: {exc}") from exc
    if not isinstance(header, dict) or "cap" not in header:
        raise RunLogFormatError("line 1: header must carry 'cap'")
    cap = header["cap"]
    if type(cap) is not int or not 1 <= cap <= MAX_CAP:
        raise RunLogFormatError("line 1: 'cap' must be an integer in [1, 2**63 - 1]")
    columns = _canonical_columns(lines[1:], cap) or _strict_columns(lines[1:], cap)
    if not columns[0]:
        raise InsufficientDataError(f"run log {path} has no records")
    metadata = str(header.get("metadata", ""))
    return RunSample._from_columns(*columns, cap=cap, metadata=metadata)
