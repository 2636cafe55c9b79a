"""Las Vegas process contract, bulk run collection, and run-log persistence.

A Las Vegas process is anything that can be attempted under an epoch cutoff
and reports back how long it ran and whether it hit its goal. Runs are
collected under per-index derived seeds so a whole batch is reproducible
from a single base seed, regardless of execution order or parallelism.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import DivergenceError, InsufficientDataError, RunLogFormatError

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


def parallel_map(fn, items: list, n_jobs: int) -> list:
    """[fn(x) for x in items], in order, on a process pool when that helps.

    Runs serially when one worker suffices (see `worker_count`). `fn` and
    the items must pickle.
    """
    workers = worker_count(n_jobs, len(items))
    if workers == 1:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


@dataclass(frozen=True)
class RunRecord:
    """One completion-time observation of a Las Vegas process.

    `epochs` is the observed running time T when `converged`, otherwise the
    cutoff the run was censored at. `diverged` flags runs aborted by a
    numeric failure; for those, `final_error` is the last finite objective.
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


@runtime_checkable
class LasVegasProcess(Protocol):
    """Behavioral contract for a restartable randomized process.

    `attempt(seed, cutoff)` runs at most `cutoff` epochs and is a pure
    function of its arguments. `cap` is the default censoring cutoff for
    plain (no-restart) runs.

    Attempts obey the prefix contract: a seed's trajectory does not depend
    on the cutoff. If an attempt converges or diverges at epoch e, any
    attempt with the same seed and cutoff >= e does so at the same e, and
    one with cutoff t < e is censored at t. `strategies.run_schedules`
    relies on it to serve several cutoffs of one seed from one attempt.
    """

    @property
    def cap(self) -> int: ...

    def describe(self) -> str: ...

    def attempt(self, seed: int, cutoff: int) -> RunRecord: ...


@dataclass(frozen=True)
class RunSample:
    """An ordered collection of runs sharing one censoring cap."""

    records: list[RunRecord]
    cap: int
    metadata: str = ""

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        for i, r in enumerate(self.records):
            if r.epochs > self.cap:
                raise ValueError(f"record {i}: epochs {r.epochs} exceeds cap {self.cap}")
            if not r.converged and not r.diverged and r.epochs != self.cap:
                raise ValueError(
                    f"record {i}: censored run must carry epochs == cap, "
                    f"got {r.epochs} != {self.cap}"
                )

    @property
    def n_runs(self) -> int:
        return len(self.records)

    @property
    def n_converged(self) -> int:
        return sum(1 for r in self.records if r.converged)

    @property
    def n_censored(self) -> int:
        return len(self.records) - self.n_converged

    def converged_epochs(self) -> np.ndarray:
        """Completion times of converged runs, in record order (int64)."""
        return np.array(
            [r.epochs for r in self.records if r.converged], dtype=np.int64
        )


@dataclass(frozen=True)
class SummaryStats:
    """Sample mean/deviation of completion time over converged runs."""

    mean: float
    stddev: float
    ratio: float
    n_converged: int
    n_censored: int


def _attempt_one(args: tuple[LasVegasProcess, int, int]) -> RunRecord:
    process, seed, cutoff = args
    try:
        return process.attempt(seed, cutoff)
    except DivergenceError:
        # Numeric failures are recorded, never abort the batch.
        return RunRecord(
            seed=seed,
            epochs=cutoff,
            converged=False,
            final_error=float("nan"),
            diverged=True,
        )


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
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    cap = process.cap
    seeds = derive_seed(base_seed, np.arange(n_runs, dtype=np.uint64)).tolist()
    jobs = [(process, seed, cap) for seed in seeds]
    records = parallel_map(_attempt_one, jobs, n_jobs)
    meta = f"process={process.describe()} base_seed={base_seed} n_runs={n_runs}"
    return RunSample(records=records, cap=cap, metadata=meta)


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


def _record_line(r: RunRecord) -> str:
    obj: dict = {
        "seed": r.seed,
        "epochs": r.epochs,
        "converged": r.converged,
        "final_error": r.final_error,
    }
    if r.diverged:
        obj["diverged"] = True
    return json.dumps(obj, separators=(",", ":"))


def save_runs(sample: RunSample, path) -> None:
    """Write a run log: a JSON header line, then one JSON record per line.

    The lines go to a temporary file beside `path`, which is then renamed
    onto it, so a write that fails midway leaves any earlier log intact.
    """
    header = json.dumps(
        {"cap": sample.cap, "metadata": sample.metadata}, separators=(",", ":")
    )
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for r in sample.records:
                fh.write(_record_line(r) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_record(obj: dict, lineno: int, cap: int) -> RunRecord:
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
        seed=seed,
        epochs=epochs,
        converged=conv,
        final_error=float(err),
        diverged=diverged,
    )


def load_runs(path) -> RunSample:
    """Read a run log written by `save_runs` (lossless round trip)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InsufficientDataError(f"run log {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise RunLogFormatError(f"line 1: invalid header: {exc}") from exc
    if not isinstance(header, dict) or "cap" not in header:
        raise RunLogFormatError("line 1: header must carry 'cap'")
    cap = header["cap"]
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise RunLogFormatError("line 1: 'cap' must be a positive integer")
    records = []
    seed_lines: dict[int, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RunLogFormatError(f"line {lineno}: invalid record: {exc}") from exc
        if not isinstance(obj, dict):
            raise RunLogFormatError(f"line {lineno}: record must be an object")
        record = _parse_record(obj, lineno, cap)
        if record.seed in seed_lines:
            raise RunLogFormatError(
                f"line {lineno}: seed {record.seed} repeats line {seed_lines[record.seed]}"
            )
        seed_lines[record.seed] = lineno
        records.append(record)
    if not records:
        raise InsufficientDataError(f"run log {path} has no records")
    return RunSample(records=records, cap=cap, metadata=str(header.get("metadata", "")))
