"""Empirical distribution machinery for completion-time samples.

Covers the diagnostic chain for deciding whether restarts can pay off:
empirical CDF and survival table, log-log tail slope, the Hill tail
index, and the conditional expected remaining time E[T - tau | T > tau].

Every statistic reads one table, `RunSample.table`, built once per sample:
the distinct converged times and their run counts. The ECDF and the log-log
fit read its cumulative counts, the Hill estimator its times repeated by
their counts, and E[T - tau | T > tau] and its standard error at every tau
its exact integer suffix sums of T and T^2 (whose tau = 0 row
`summary_stats` reads too): O(support) after the sort, no overflow.

Convention: the CDF is q(t) = Pr(T <= t). Censored runs count in the
denominator of q (they provably ran past every t up to the cap) but are
excluded from moment estimates, which biases conditional means downward
and therefore makes the restart-profitability test conservative.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import index

import numpy as np

from .errors import DegenerateTailError, InsufficientDataError
from .runner import RunSample, mean_and_stddev

MIN_TAIL_RECORDS = 10


@dataclass(frozen=True)
class Ecdf:
    """Step-function estimate of q(t) = Pr(T <= t).

    `support` holds the distinct observed completion times (integers, strictly
    increasing); `cum_prob[j]` is q(support[j]), finite and in (0, 1]. The
    censored share, the mass that survives past the cap, is 1 - cum_prob[-1].
    """

    support: np.ndarray
    cum_prob: np.ndarray
    cap: int

    def __post_init__(self) -> None:
        s, c = self.support, self.cum_prob
        if len(s) != len(c) or len(s) == 0:
            raise ValueError("support and cum_prob must be equal-length, non-empty")
        if s.dtype.kind not in "iu" or np.any(s[1:] <= s[:-1]):
            raise ValueError("support must be strictly increasing integers")
        if not (np.isfinite(c).all() and 0.0 < c[0] and c[-1] <= 1.0) or np.any(np.diff(c) < 0):
            raise ValueError("cum_prob must be finite, positive, nondecreasing and at most 1")
        if s[-1] > self.cap:
            raise ValueError(f"support exceeds cap={self.cap}")


def empirical_cdf(sample: RunSample) -> Ecdf:
    """Estimate q(t) from a run sample.

    q(t) counts converged runs with epochs <= t over all runs, censored
    included.
    """
    times, counts, *_ = sample.table
    return Ecdf(support=times, cum_prob=np.cumsum(counts) / sample.n_runs, cap=sample.cap)


def survival_table(ecdf: Ecdf) -> list[tuple[int, float]]:
    """(t, Pr(T > t)) at each distinct support value, for plotting."""
    return [(t, 1.0 - q) for t, q in zip(ecdf.support.tolist(), ecdf.cum_prob.tolist())]


def loglog_tail_slope(sample: RunSample, tail_fraction: float) -> float:
    """Least-squares slope of log Pr(T > t) against log t over the tail.

    The tail is the largest `tail_fraction` of converged completion times;
    the fit uses one point per distinct support value (ties carry no extra
    weight) and drops points where the survival estimate is zero. For a
    polynomially decaying tail the slope approximates -alpha.
    """
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError(f"tail_fraction must be in (0,1), got {tail_fraction}")
    times, counts, *_ = sample.table
    cum = np.cumsum(counts)
    m = int(cum[-1])
    n_tail = math.ceil(tail_fraction * m)
    if n_tail < MIN_TAIL_RECORDS:
        raise InsufficientDataError(
            f"tail holds {n_tail} records; need >= {MIN_TAIL_RECORDS}"
        )
    # The tail starts at the first time whose cumulative count passes the m - n_tail below it.
    j = int(np.searchsorted(cum, m - n_tail, side="right"))
    survival = 1.0 - cum[j:] / sample.n_runs
    pts = [
        (math.log(t), math.log(s)) for t, s in zip(times[j:].tolist(), survival.tolist()) if s > 0.0
    ]
    if len(pts) < 2:
        raise InsufficientDataError(
            "tail has fewer than 2 distinct points with positive survival"
        )
    xs, ys = zip(*pts)
    slope, _ = np.polyfit(np.array(xs), np.array(ys), 1)
    return float(slope)


def hill_from_values(values: np.ndarray, r: int) -> float:
    """Hill tail-index estimate from raw positive values.

    With order statistics T_(1) <= ... <= T_(m), computes the mean log
    spacing H = (1/r) * sum_{j=1..r} ln T_(m-j+1) - ln T_(m-r) and returns
    alpha_hat = 1/H. Scale-invariant: multiplying all values by a positive
    constant leaves the estimate unchanged.
    """
    vals = np.sort(np.asarray(values, dtype=np.float64))
    m = vals.size
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if r >= m:
        raise ValueError(f"r must be < sample size {m}, got {r}")
    if vals[0] <= 0.0:
        raise ValueError("values must be positive")
    # H = 0 exactly when the whole top-r window equals the reference order
    # statistic; test that structurally, since a mean of identical logs can
    # land an ulp away from zero.
    if vals[m - 1] == vals[m - r - 1]:
        raise DegenerateTailError(
            f"top {r} order statistics are all equal; tail index undefined"
        )
    h = float(np.mean(np.log(vals[m - r :])) - np.log(vals[m - r - 1]))
    return 1.0 / h


def hill_estimator(sample: RunSample, r: int) -> float:
    """Hill tail-index estimate over the converged completion times."""
    times, counts, *_ = sample.table
    return hill_from_values(np.repeat(times.astype(np.float64), counts), r)


def expected_remaining(sample: RunSample, tau: int) -> float:
    """E[T - tau | T > tau] from the suffix row of the last tau' <= tau.

    Censored runs are excluded even though they also survive past tau, so
    the estimate is biased low: restart profitability is under-, never
    over-stated.
    """
    if (tau := index(tau)) < 0:  # an integer: a numpy one would make n * tau int64
        raise ValueError(f"tau must be >= 0, got {tau}")
    _, _, taus, n, s1, _ = sample.table
    i = bisect_right(taus, tau) - 1
    if s1[i] <= n[i] * tau:
        raise InsufficientDataError(f"no converged runs beyond tau={tau}")
    return (s1[i] - n[i] * tau) / n[i]


def remaining_time_profile(
    sample: RunSample,
) -> list[tuple[int, float, int, float]]:
    """(tau, E[T-tau|T>tau], n_survivors, stderr) over the observed support.

    Rows start at tau=0 (where the conditional mean equals the plain mean)
    and cover every distinct completion time that still has converged runs
    beyond it. stderr is the sample standard deviation (ddof=1) of the
    survivors over sqrt(n); it is NaN when fewer than 2 survivors remain.
    T - tau has the deviation of T, so `mean_and_stddev` reads the sums of T.
    """
    _, _, taus, n, s1, s2 = sample.table
    return [
        (tau, (s - k * tau) / k, k, mean_and_stddev(k, s, q)[1] / math.sqrt(k))
        for tau, k, s, q in zip(taus, n, s1, s2)
    ]


def restart_profitable(sample: RunSample) -> list[int]:
    """Every tau on the observed support where E[T] < E[T-tau|T>tau].

    E[T] is the converged-sample mean. An empty list means no point of the
    support shows a strict advantage to abandoning the run. Sampling noise
    is not filtered here; callers needing significance should compare
    against the stderr column of `remaining_time_profile`.
    """
    _, _, taus, n, s1, _ = sample.table
    mean = s1[0] / n[0]
    return [tau for tau, k, s in zip(taus[1:], n[1:], s1[1:]) if (s - k * tau) / k > mean]
