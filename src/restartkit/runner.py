"""Las Vegas process contract, bulk run collection, and run-log persistence.

A Las Vegas process is anything that can be attempted under an epoch cutoff
and reports back how long it ran and whether it hit its goal. Runs are
collected under per-index derived seeds so a whole batch is reproducible
from a single base seed, regardless of execution order or parallelism.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Protocol

import numpy as np

from . import MAX_CAP
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
    # Imported here, not at the top: a serial run never pays for the pool.
    from concurrent.futures import ProcessPoolExecutor

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


class RunBlock(NamedTuple):
    """One run per seed, in seed order, as columns: what `attempt_many`
    returns and a `RunSample` holds. `records(seeds)` reads them back as
    `RunRecord`s."""

    epochs: np.ndarray  # int64
    converged: np.ndarray  # bool
    final_error: np.ndarray  # float64
    diverged: np.ndarray  # bool

    def records(self, seeds: list[int]) -> list[RunRecord]:
        return list(map(RunRecord, seeds, *(column.tolist() for column in self)))


class LasVegasProcess(Protocol):
    """Behavioral contract for a restartable randomized process.

    `attempt_many(seeds, cutoff)` runs each seed for at most `cutoff`
    epochs, a Python int in [1, `MAX_CAP`], and returns a `RunBlock` whose
    row i is the run of seeds[i]. It is a pure function of its arguments:
    the same seed gives the same row wherever it sits in the block, even
    repeated. A numeric failure is a diverged row, never an exception.
    `cap`, a Python int too, is the censoring cutoff for plain (no-restart)
    runs; `collect_runs` calls `attempt_many` once per block of seeds and joins
    the blocks' columns into its sample. Processes that subclass the
    protocol inherit `attempt`, row 0 of a block of one, as a `RunRecord`.

    Attempts obey the prefix contract: a seed's trajectory does not depend
    on the cutoff. If an attempt converges or diverges at epoch e, any
    attempt with the same seed and cutoff >= e does so at the same e, and
    one with cutoff t < e is censored at t. `strategies.run_schedules`
    relies on it to serve several cutoffs of one seed from one attempt.
    """

    @property
    def cap(self) -> int: ...

    def describe(self) -> str: ...

    def attempt_many(self, seeds: list[int], cutoff: int) -> RunBlock: ...

    def attempt(self, seed: int, cutoff: int) -> RunRecord:
        return self.attempt_many([seed], cutoff).records([seed])[0]


def format_float(x: float) -> str:
    """`x` for a label or a header: `:g` where it reads back as `x`, else `repr`."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def check_positive(name: str, value: int) -> None:
    """Reject a `value` other than a Python int >= 1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def check_cutoff(cutoff: int) -> None:
    """Reject a cutoff other than a Python int in [1, `MAX_CAP`], as `attempt_many` takes."""
    check_positive("cutoff", cutoff)
    if cutoff > MAX_CAP:
        raise ValueError(f"cutoff must be <= 2**63 - 1, got {cutoff}")


class RunSample:
    """An ordered collection of runs sharing one censoring cap, a Python int.

    `seeds[i]`, a Python int, is the seed of row i of `runs`, a `RunBlock`
    whose epochs are an int64 array (object when a value may not fit int64)
    and whose other columns may be any sequences. The sample keeps `seeds`
    as a list, so any non-negative seed round-trips, and `runs` as
    read-only arrays: `epochs` (int64), `converged` and `diverged` (bool)
    and `final_error` (float64), also readable by name. It never holds its
    caller's sequences. `records` builds `RunRecord`s from the columns on
    each read. Before a sample exists its runs pass `_first_bad`, the one
    statement of the rules a log's records obey, so every sample's
    `save_runs` log loads back.
    """

    def __init__(self, seeds, runs: RunBlock, cap: int, metadata: str = "") -> None:
        if type(cap) is not int:
            raise ValueError(f"cap must be an integer, got {cap!r}")
        if not 1 <= cap <= MAX_CAP:
            raise ValueError(f"cap must be in [1, 2**63 - 1], got {cap}")
        seeds = list(seeds)
        converged, diverged = _frozen(runs.converged, bool), _frozen(runs.diverged, bool)
        if (problem := _first_bad(seeds, runs.epochs, converged, diverged, cap)) is not None:
            raise ValueError(problem)
        self.seeds = seeds
        epochs, final_error = _frozen(runs.epochs, np.int64), _frozen(runs.final_error, float)
        self.runs = RunBlock(epochs, converged, final_error, diverged)
        self.epochs, self.converged, self.final_error, self.diverged = self.runs
        self.cap = cap
        self.metadata = metadata
        self.n_converged = int(np.count_nonzero(converged))

    @property
    def records(self) -> list[RunRecord]:
        return self.runs.records(self.seeds)

    def __eq__(self, other) -> bool:
        """Same cap, metadata and columns, with NaN errors equal."""
        if not isinstance(other, RunSample):
            return NotImplemented
        if (self.cap, self.metadata, self.seeds) != (other.cap, other.metadata, other.seeds):
            return False
        return all(map(partial(np.array_equal, equal_nan=True), self.runs, other.runs))

    def __repr__(self) -> str:
        return f"RunSample({self.seeds!r}, {self.runs!r}, {self.cap!r}, {self.metadata!r})"

    @property
    def n_runs(self) -> int:
        return len(self.seeds)

    @property
    def n_censored(self) -> int:
        return self.n_runs - self.n_converged

    def converged_epochs(self) -> np.ndarray:
        """Completion times of converged runs, in record order (int64)."""
        return self.epochs[self.converged]

    @cached_property
    def table(self) -> tuple:
        """The converged runs tabulated, once, on the first read: the distinct
        times (increasing, int64) and each one's run count, both read-only,
        then the suffix rows as tuples of exact Python ints: each tau (0, then
        every time but the last) and the count n, sum S1 of T and sum S2 of
        T^2 of the converged runs with T > tau. Row 0 sums every converged run."""
        epochs = self.converged_epochs()
        if epochs.size == 0:
            raise InsufficientDataError("no converged runs")
        times, counts = np.unique(epochs, return_counts=True)
        times.flags.writeable = counts.flags.writeable = False
        values, runs = times.tolist()[::-1], counts.tolist()[::-1]
        n = tuple(accumulate(runs))[::-1]
        s1 = tuple(accumulate(map(mul, runs, values)))[::-1]
        s2 = tuple(accumulate(c * v * v for c, v in zip(runs, values)))[::-1]
        return times, counts, (0, *values[:0:-1]), n, s1, s2


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _first_bad(seeds: list, epochs: np.ndarray, converged, diverged, cap: int) -> str | None:
    """The message for the first run a log's records may not hold, or None:
    one whose seed is not a Python int (a bool or numpy int either) or is
    negative, epochs outside [1, cap], both converged and diverged, censored
    off the cap, or repeating an earlier seed, checked in that order, as
    `_parse_record` and `_strict_columns` check a line. `epochs` is int64,
    or object when a value may not fit int64."""
    off_cap = ~(converged | diverged) & (epochs != cap)
    bad = np.flatnonzero((epochs < 1) | (epochs > cap) | (converged & diverged) | off_cap)
    end = int(bad[0]) if bad.size else len(seeds)
    if set(map(type, seeds)) - {int} or (seeds and min(seeds) < 0):
        end = min(end, next(i for i, seed in enumerate(seeds) if type(seed) is not int or seed < 0))
    if len(set(seeds[:end])) < end:
        first: dict[int, int] = {}
        for i, seed in enumerate(seeds[:end]):
            if first.setdefault(seed, i) != i:
                return f"record {i}: seed {seed} repeats record {first[seed]}"
    if end == len(seeds):
        return None
    if type(seeds[end]) is not int:
        return f"record {end}: seed must be an integer, got {seeds[end]!r}"
    if seeds[end] < 0:
        return f"record {end}: seed must be >= 0, got {seeds[end]}"
    e = int(epochs[end])
    if e < 1:
        return f"record {end}: epochs must be >= 1, got {e}"
    if e > cap:
        return f"record {end}: epochs {e} exceeds cap {cap}"
    if converged[end] and diverged[end]:
        return f"record {end}: run is both converged and diverged"
    return f"record {end}: censored run must carry epochs == cap, got {e} != {cap}"


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
    and the function that joins their blocks, in order, into its sample."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    cap = process.cap
    seeds = derive_seed(base_seed, np.arange(n_runs, dtype=np.uint64)).tolist()
    size = -(-n_runs // worker_count(n_jobs, n_runs))
    blocks = [seeds[i : i + size] for i in range(0, n_runs, size)]
    meta = f"process={process.describe()} base_seed={base_seed} n_runs={n_runs}"
    tasks = [partial(process.attempt_many, block, cap) for block in blocks]

    def sample(blocks: list[RunBlock]) -> RunSample:
        return RunSample(seeds, RunBlock(*map(np.concatenate, zip(*blocks))), cap, meta)

    return tasks, sample


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


def mean_and_stddev(n: int, s1: int, s2: int) -> tuple[float, float]:
    """Mean S1/n and sample standard deviation sqrt((n*S2 - S1^2) / (n(n-1)))
    of n >= 1 values with exact integer sums S1 of T and S2 of T^2: the mean and
    the variance each round once. The deviation is NaN below two values."""
    stddev = math.sqrt((n * s2 - s1 * s1) / (n * (n - 1))) if n >= 2 else math.nan
    return s1 / n, stddev


def summary_stats(sample: RunSample) -> SummaryStats:
    """Mean, sample standard deviation, and their ratio over converged runs,
    from row 0 of the sample's `table`, the exact sums that `tail` reads.

    Censored runs are excluded from the moments; their count is reported so
    the exclusion is always visible.
    """
    if (n := sample.n_converged) < 2:
        raise InsufficientDataError(f"need >= 2 converged runs for summary statistics, have {n}")
    *_, s1, s2 = sample.table
    mean, stddev = mean_and_stddev(n, s1[0], s2[0])
    return SummaryStats(mean, stddev, stddev / mean, n, sample.n_censored)


# Record-line pieces as `json.dumps` spells them: booleans, the optional
# diverged flag, and the non-finite errors that `float.__repr__` spells otherwise.
_JSON_BOOL = ("false", "true")
_RECORD_END = ("}", ',"diverged":true}')
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _record_lines(sample: RunSample) -> list[str]:
    """Each run's log line, as `json.dumps` with compact separators spells
    its record, the error in `float.__repr__` form or as `NaN`/`[-]Infinity`."""
    rows = zip(
        sample.seeds,
        sample.epochs.tolist(),
        sample.converged.tolist(),
        map(float.__repr__, sample.final_error.tolist()),
        sample.diverged.tolist(),
    )
    return [
        f'{{"seed":{seed},"epochs":{epochs},"converged":{_JSON_BOOL[converged]},'
        f'"final_error":{_JSON_NON_FINITE.get(error, error)}{_RECORD_END[diverged]}'
        for seed, epochs, converged, error, diverged in rows
    ]


def save_runs(sample: RunSample, path) -> None:
    """Write a run log: a JSON header line, then one JSON record per line.

    The lines go to a temporary file beside `path`, which is then renamed
    onto it, so a write that fails midway leaves any earlier log intact.
    """
    header = json.dumps(
        {"cap": sample.cap, "metadata": sample.metadata}, separators=(",", ":")
    )
    text = "\n".join([header, *_record_lines(sample), ""])
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


def _one_pass_columns(lines: list[str]) -> tuple[list, RunBlock] | None:
    """The seeds and runs from one `json.loads` over the lines joined into
    an array, or None unless each row must be one line's record, in types
    that `_parse_record` takes as they are.

    Every line opens with the only "{" in it, so n rows are the n lines.
    Epochs are ints in [1, 2**63 - 1] for the int64 column, the flags
    bools and the errors floats. The sample checks the rest, seeds included.
    """
    n = len(lines)
    array = "[" + ",\n".join(lines) + "]"
    if not array.startswith("[{") or array.count(",\n{") != n - 1 or array.count("{") != n:
        return None
    try:
        rows = json.loads(array)
        seeds, epochs, converged, final_error = (
            [row[key] for row in rows] for key in ("seed", "epochs", "converged", "final_error")
        )
    # Invalid JSON, nesting past the recursion limit, or a row that is no record.
    except (ValueError, RecursionError, KeyError, TypeError):
        return None
    diverged = [row.get("diverged", False) for row in rows]
    if (
        len(rows) != n
        or set(map(type, epochs)) != {int}
        or {*map(type, converged), *map(type, diverged)} != {bool}
        or set(map(type, final_error)) != {float}
        or not 1 <= min(epochs) <= max(epochs) <= MAX_CAP
    ):
        return None
    return seeds, RunBlock(np.array(epochs, dtype=np.int64), converged, final_error, diverged)


def _strict_columns(lines: list[str], cap: int) -> tuple[tuple, RunBlock]:
    """The seeds and runs, decoding each line with `json` and checking it."""
    parsed = []
    seed_lines: dict[int, int] = {}
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also int's digit limit
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
    return seeds, RunBlock(np.array(epochs, dtype=np.int64), converged, final_error, diverged)


def load_runs(path) -> RunSample:
    """Read a run log written by `save_runs` (lossless round trip).

    The log is split into lines once. The record lines are decoded as one
    JSON array into columns, which `RunSample` checks once (`_first_bad`),
    when `_one_pass_columns` can tell that each array element is one line's
    record. Any other log, and one whose runs that check refuses, goes line
    by line through `json`, so it is accepted or rejected, with the same
    message and line, exactly as that decoder and `_parse_record` decide.
    JSON nested past the recursion limit is refused on its line too.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InsufficientDataError(f"run log {path} is empty")
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError) as exc:  # also int's digit limit
        raise RunLogFormatError(f"line 1: invalid header: {exc}") from exc
    if not isinstance(header, dict) or "cap" not in header:
        raise RunLogFormatError("line 1: header must carry 'cap'")
    cap = header["cap"]
    if type(cap) is not int or not 1 <= cap <= MAX_CAP:
        raise RunLogFormatError("line 1: 'cap' must be an integer in [1, 2**63 - 1]")
    metadata = header.get("metadata", "")
    if not isinstance(metadata, str):
        raise RunLogFormatError("line 1: 'metadata' must be a string")
    body = lines[1:]
    columns = _one_pass_columns(body)
    if columns is not None:
        try:
            return RunSample(*columns, cap, metadata)
        except ValueError:
            pass  # the strict reader names the line
    seeds, runs = _strict_columns(body, cap)
    if not seeds:
        raise InsufficientDataError(f"run log {path} has no records")
    return RunSample(seeds, runs, cap, metadata)
