"""Closed-form synthetic runtime laws used as oracles.

Each law yields integer completion times by inverse-CDF sampling from a
single uniform per seed, so expected-time formulas can be checked against
both exact CDFs and Monte Carlo runs of the same process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .runner import (
    LasVegasProcess, Labelled, RunBlock, check_cap, check_positive, mix64, parse_label,
)
from .tailstats import Ecdf


def _uniforms(seeds):
    """One deterministic uniform in [0, 1] per seed (Python int or uint64 array)."""
    return mix64(seeds) / 2.0**64


def _ceil_times(x: np.ndarray) -> np.ndarray:
    """ceil(x) as uint64. A time past int64 (u can round to 1.0, making it
    infinite) comes out as 2**63: beyond every cap, so it is censored."""
    return np.ceil(np.minimum(x, 2.0**63)).astype(np.uint64)


def _saturated(t: int) -> np.uint64:
    """An integer time as uint64, saturated at 2**63 as `_ceil_times` is."""
    return np.uint64(min(t, 2**63))


class SyntheticLaw(Labelled):
    """A distribution over positive-integer completion times."""

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF: the completion time for each uniform in `u` (integer array)."""
        raise NotImplementedError

    def sample_many(self, seeds) -> np.ndarray:
        """Inverse-CDF draw for each seed (an integer array, as `quantile`)."""
        return self.quantile(_uniforms(np.asarray(seeds, dtype=np.uint64)))

    def cdf(self, t: int) -> float:
        """Closed-form Pr(T <= t)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(SyntheticLaw):
    """T = c with probability 1."""

    label = "constant"
    c: int

    def _check(self) -> None:
        check_positive("constant time", self.c)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return np.full(len(u), _saturated(self.c))

    def cdf(self, t: int) -> float:
        return 1.0 if t >= self.c else 0.0


@dataclass(frozen=True)
class TwoPoint(SyntheticLaw):
    """T = a with probability p, else b (a < b)."""

    label = "two-point"
    p: float
    a: int
    b: int

    def _check(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0,1), got {self.p}")
        if type(self.a) is not int or type(self.b) is not int:
            raise ValueError(f"a and b must be integers, got a={self.a!r}, b={self.b!r}")
        if not 1 <= self.a < self.b:
            raise ValueError(f"need 1 <= a < b, got a={self.a}, b={self.b}")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return np.where(u < self.p, _saturated(self.a), _saturated(self.b))

    def cdf(self, t: int) -> float:
        if t < self.a:
            return 0.0
        if t < self.b:
            return self.p
        return 1.0


@dataclass(frozen=True)
class Geometric(SyntheticLaw):
    """Memoryless law on {1, 2, ...}: Pr(T <= t) = 1 - (1-p)^t."""

    label = "geometric"
    p: float

    def _check(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0,1), got {self.p}")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):  # u == 1 gives inf
            t = np.log1p(-u) / np.log1p(-self.p)
        return np.maximum(_ceil_times(t), 1)

    def cdf(self, t: int) -> float:
        if t < 1:
            return 0.0
        return float(-np.expm1(t * np.log1p(-self.p)))


@dataclass(frozen=True)
class DiscretePareto(SyntheticLaw):
    """Ceiling of a continuous Pareto(alpha, x_min) draw.

    Survival keeps the polynomial decay of the underlying continuous law:
    Pr(T <= t) = 1 - (x_min / t)^alpha at integer t >= x_min.
    """

    label = "discrete-pareto"
    alpha: float
    x_min: int = 1

    def _check(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        check_positive("x_min", self.x_min)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):  # u == 1 gives inf
            x = self.x_min * (1.0 - u) ** (-1.0 / self.alpha)
        return _ceil_times(x)

    def cdf(self, t: int) -> float:
        if t < self.x_min:
            return 0.0
        return 1.0 - (self.x_min / t) ** self.alpha


def exact_ecdf(law: SyntheticLaw, cap: int) -> Ecdf:
    """The law's true distribution packaged as an Ecdf truncated at `cap`.

    Support holds every t <= cap where the CDF is positive and increases;
    mass beyond the cap is left censored, mirroring what an infinite
    empirical sample capped at `cap` would estimate.
    """
    check_cap("cap", cap)
    support: list[int] = []
    cum: list[float] = []
    prev = 0.0
    for t in range(1, cap + 1):
        f = law.cdf(t)
        if f > prev:
            support.append(t)
            cum.append(f)
            prev = f
    if not support:
        raise ValueError(f"law {law.describe()} has no mass at or below cap={cap}")
    return Ecdf(
        support=np.array(support, dtype=np.int64),
        cum_prob=np.array(cum, dtype=np.float64),
        cap=cap,
    )


@dataclass(frozen=True)
class SyntheticProcess(LasVegasProcess):
    """LasVegasProcess adapter over a synthetic law.

    An attempt draws the law once for its seed; it converges if the drawn
    time fits within the cutoff and otherwise is censored at the cutoff.
    """

    law: SyntheticLaw
    cap_epochs: int = 1_000_000

    def __post_init__(self) -> None:
        check_cap("cap_epochs", self.cap_epochs)

    @property
    def cap(self) -> int:
        return self.cap_epochs

    def describe(self) -> str:
        return f"stub({self.law.describe()},cap={self.cap_epochs})"

    def attempt_many(self, seeds: list[int], cutoff: int) -> RunBlock:
        """One row per seed, from one `quantile` call for the block: the
        draw if it fits within the cutoff (error 0.0), else the cutoff
        (censored, error 1.0)."""
        # Draws past int64 saturate at 2**63, which must stay above the cutoff.
        check_cap("cutoff", cutoff)
        times = self.law.sample_many(seeds)
        converged = times <= cutoff
        return RunBlock(
            epochs=np.where(converged, times, cutoff).astype(np.int64),
            converged=converged,
            final_error=np.where(converged, 0.0, 1.0),
            diverged=np.zeros(len(converged), dtype=bool),
        )


def parse_law(spec: str) -> SyntheticLaw:
    """Parse the CLI stub grammar `constant:c`, `two-point:p:a:b`,
    `geometric:p`, `discrete-pareto:alpha[:x_min]` into a law."""
    return parse_label(spec, (Constant, TwoPoint, Geometric, DiscretePareto), "stub")
