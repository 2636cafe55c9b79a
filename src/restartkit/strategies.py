"""Restart schedules and their evaluation.

A schedule is its cutoffs t_1, t_2, ..., one per attempt, as `cutoffs()`
walks them. The process is re-seeded and re-run whenever a cutoff elapses
without success. Under a known distribution the optimal schedule is a
fixed cutoff minimizing

    E[S_t] = (t - sum_{t' < t} q(t')) / q(t),

with q(t) = Pr(T <= t); when the distribution is unknown, geometric
(Walsh) or Luby universal schedules apply.

Q(t) = sum_{t' < t} q(t') is one cumulative sum over the ECDF steps, so
the fixed cutoff, the whole curve and its optimum all cost O(support).
All three read the numerators D_j = s_j - Q(s_j) at the support points: from
the last s_k <= t, t - Q(t) = D_k + (1 - q(s_k))(t - s_k), with t cancelled
before any rounding, so no cutoff up to 2**63 - 1 rounds D_k away.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import AllTrialsFailedError
from .runner import (
    LasVegasProcess, Labelled, check_cap, check_positive, derive_seed, mean_and_stddev,
    parallel_map, parse_label, worker_count,
)

if TYPE_CHECKING:
    from .tailstats import Ecdf


class RestartSchedule(Labelled):
    """A restart schedule: the cutoffs t_1, t_2, ... of its attempts."""

    def cutoffs(self) -> Iterator[int]:
        """t_1, t_2, ... in attempt order."""
        raise NotImplementedError

    def cutoff(self, attempt: int) -> int:
        """t_i, the i-th cutoff of the walk (O(i))."""
        check_positive("attempt index", attempt)
        return next(itertools.islice(self.cutoffs(), attempt - 1, None))


@dataclass(frozen=True)
class FixedSchedule(RestartSchedule):
    """t_i = t for every attempt."""

    label = "fixed"
    t: int

    def _check(self) -> None:
        check_positive("fixed cutoff", self.t)

    def cutoffs(self) -> Iterator[int]:
        return itertools.repeat(self.t)


@dataclass(frozen=True)
class WalshSchedule(RestartSchedule):
    """Geometric cutoffs t_i = ceil(gamma^(i-1)), 1 < gamma < inf, exact at any size."""

    label = "walsh"
    gamma: float

    def _check(self) -> None:
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be > 1 and finite, got {self.gamma}")

    def cutoffs(self) -> Iterator[int]:
        """Ceilings of the exact rational powers of gamma, each power one
        multiplication from the last."""
        num, den = self.gamma.as_integer_ratio()
        power_num, power_den = 1, 1
        while True:
            yield -(-power_num // power_den)
            power_num *= num
            power_den *= den


@dataclass(frozen=True)
class LubySchedule(RestartSchedule):
    """t_i = unit * L_i where L is the universal sequence 1,1,2,1,1,2,4,..."""

    label = "luby"
    unit: int

    def _check(self) -> None:
        check_positive("luby unit", self.unit)

    def cutoffs(self) -> Iterator[int]:
        return (self.unit * luby_term(i) for i in itertools.count(1))


def luby_term(i: int) -> int:
    """i-th term of the Luby universal sequence (always a power of two).

    L_i = 2^(k-1) when i = 2^k - 1, else L_i = L_{i - 2^(k-1) + 1} for
    2^(k-1) <= i < 2^k - 1.
    """
    check_positive("attempt index", i)
    k = i.bit_length()
    while i != (1 << k) - 1:
        i = i - (1 << (k - 1)) + 1
        k = i.bit_length()
    return 1 << (k - 1)


def parse_schedule(spec: str) -> RestartSchedule:
    """Parse `fixed:t`, `walsh:gamma`, or `luby:unit`."""
    return parse_label(spec, (FixedSchedule, WalshSchedule, LubySchedule), "schedule")


def _numerators(ecdf: Ecdf) -> np.ndarray:
    """s_j - Q(s_j) at every support point s_j, Q summed in support order."""
    prefix = np.cumsum(ecdf.cum_prob[:-1] * np.diff(ecdf.support))
    return ecdf.support - np.concatenate(([0.0], prefix))


def fixed_cutoff_expected_time(ecdf: Ecdf, t: int) -> float:
    """Expected total epochs of the fixed-cutoff strategy S_t.

    Returns (t - sum_{t' < t} q(t')) / q(t). When q(t) = 0 the strategy
    can never succeed and the expectation is infinite; math.inf is
    returned rather than raising.
    """
    check_positive("cutoff", t)
    k = int(np.searchsorted(ecdf.support, t, side="right")) - 1
    if k < 0:
        return math.inf
    q = float(ecdf.cum_prob[k])
    return (float(_numerators(ecdf)[k]) + (1.0 - q) * (t - int(ecdf.support[k]))) / q


def optimal_cutoff(ecdf: Ecdf) -> tuple[int, float]:
    """Minimizer of the fixed-cutoff expected time, scanned over support.

    Between support points q is constant and the expected time is
    nondecreasing in t, so the minimum lies on a support point; ties break
    toward the smaller cutoff. Returns (t_star, expected_epochs).
    """
    return min(expected_time_curve(ecdf), key=lambda point: point[1])


def expected_time_curve(ecdf: Ecdf) -> list[tuple[int, float]]:
    """(t, E[S_t]) at every support point, for the cutoff-sweep plot."""
    expected = _numerators(ecdf) / ecdf.cum_prob
    return list(zip(ecdf.support.tolist(), expected.tolist()))


@dataclass(frozen=True)
class StrategyOutcome:
    """Trace of one strategy execution.

    `per_attempt` lists (cutoff, epochs_used) in attempt order;
    `total_epochs` is their epoch sum. A failed outcome means the epoch
    budget was exhausted before any attempt converged.
    """

    total_epochs: int
    attempts: int
    succeeded: bool
    per_attempt: list[tuple[int, int]]


def run_schedules(
    process: LasVegasProcess,
    schedules: Sequence[RestartSchedule],
    base_seed: int,
    budget: int,
) -> list[StrategyOutcome]:
    """Execute each restart schedule against the process until success.

    Attempt i runs under seed derive_seed(base_seed, i) and cutoff t_i. A
    schedule stops unsuccessfully before any attempt whose cutoff would
    push its epochs past `budget`, in [1, `MAX_CAP`]. The schedules still
    running at attempt i share one attempt, at the largest of their
    cutoffs. By the prefix contract of `LasVegasProcess`, a schedule with
    cutoff t_i succeeded iff that attempt converged within t_i, and it
    spent min(epochs, t_i). So every attempt seed runs once, however many
    schedules try it, and each outcome equals its schedule run alone.
    """
    check_cap("budget", budget)
    walks = [schedule.cutoffs() for schedule in schedules]
    traces: list[list[tuple[int, int]]] = [[] for _ in schedules]
    spent = [0] * len(schedules)
    succeeded = [False] * len(schedules)
    running = list(range(len(schedules)))
    i = 1
    while running:
        cutoffs = {}
        for k in running:
            t_i = next(walks[k])
            if spent[k] + t_i <= budget:
                cutoffs[k] = t_i
        if not cutoffs:
            break
        # One `attempt` call per seed, not an `attempt_many` block: perfbench's
        # traced run counts MC attempts by wrapping `attempt` (ROADMAP item 4).
        record = process.attempt(derive_seed(base_seed, i), max(cutoffs.values()))
        for k, t_i in cutoffs.items():
            used = min(record.epochs, t_i)
            traces[k].append((t_i, used))
            spent[k] += used
            succeeded[k] = record.converged and record.epochs <= t_i
        running = [k for k in cutoffs if not succeeded[k]]
        i += 1
    return [
        StrategyOutcome(total, len(trace), ok, trace)
        for total, trace, ok in zip(spent, traces, succeeded)
    ]


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimate of a schedule's expected total epochs."""

    mean_epochs: float
    stderr: float
    failure_rate: float
    n_trials: int
    n_succeeded: int


def _trials(process, schedules, seeds: list[int], budget: int) -> list[list[tuple[bool, int]]]:
    """Per trial seed, the (succeeded, total_epochs) of every schedule."""
    runs = (run_schedules(process, schedules, seed, budget) for seed in seeds)
    return [[(o.succeeded, o.total_epochs) for o in outcomes] for outcomes in runs]


def trial_tasks(
    process: LasVegasProcess,
    schedules: list[RestartSchedule],
    n_trials: int,
    base_seed: int,
    budget: int,
    n_jobs: int = 1,
):
    """Monte Carlo trials of several schedules, as tasks for `parallel_map`.

    Trial j runs `run_schedules` under base seed derive_seed(base_seed, j).
    A task is a block of an eighth of a worker's share of the trials. Also
    returns the function that builds each schedule's (succeeded,
    total_epochs) per trial from the task results, the same for any `n_jobs`.
    """
    if n_trials < 2:
        raise ValueError(f"n_trials must be >= 2, got {n_trials}")
    seeds = derive_seed(base_seed, np.arange(n_trials, dtype=np.uint64)).tolist()
    size = max(1, n_trials // (8 * worker_count(n_jobs, n_trials)))
    blocks = [seeds[i : i + size] for i in range(0, n_trials, size)]
    tasks = [partial(_trials, process, schedules, block, budget) for block in blocks]
    return tasks, lambda results: list(zip(*(trial for rs in results for trial in rs)))


def mc_result(
    outcomes: Sequence[tuple[bool, int]], schedule: RestartSchedule, budget: int
) -> McResult:
    """Mean and standard error over the succeeded trials of `outcomes`.

    The failure rate counts budget exhaustions; with one success the
    standard error is NaN. Raises AllTrialsFailedError if none succeeded.
    """
    n_trials = len(outcomes)
    totals = [t for ok, t in outcomes if ok]
    n_succ = len(totals)
    if n_succ == 0:
        raise AllTrialsFailedError(
            f"all {n_trials} trials of {schedule.describe()} exhausted "
            f"budget={budget} without success"
        )
    mean, stddev = mean_and_stddev(n_succ, sum(totals), sum(t * t for t in totals))
    stderr = stddev / math.sqrt(n_succ)
    return McResult(mean, stderr, (n_trials - n_succ) / n_trials, n_trials, n_succ)


def evaluate_strategy_mc(
    process: LasVegasProcess,
    schedule: RestartSchedule,
    n_trials: int,
    base_seed: int,
    budget: int,
    n_jobs: int = 1,
) -> McResult:
    """Estimate the schedule's expected total epochs over seeded trials.

    Trial j runs `run_schedules` for the schedule alone under base seed
    derive_seed(base_seed, j). Mean and standard error are taken over
    succeeded trials; the failure rate counts budget exhaustions. The
    result is invariant under `n_jobs`.
    """
    tasks, outcomes_of = trial_tasks(process, [schedule], n_trials, base_seed, budget, n_jobs)
    (outcomes,) = outcomes_of(parallel_map(tasks, n_jobs))
    return mc_result(outcomes, schedule, budget)
