"""Closed-form synthetic runtime laws used as oracles.

Each law yields integer completion times by inverse-CDF sampling from a
single uniform per seed, so expected-time formulas can be checked against
both exact CDFs and Monte Carlo runs of the same process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runner import LasVegasProcess, RunRecord, check_cutoff, mix64
from .tailstats import Ecdf


def _uniforms(seeds):
    """One deterministic uniform in [0, 1] per seed (Python int or uint64 array)."""
    return mix64(seeds) / 2.0**64


def _ceil_times(x: np.ndarray) -> np.ndarray:
    """ceil(x) as uint64. A time past int64 (u can round to 1.0, making it
    infinite) comes out as 2**63: beyond every cap, so it is censored."""
    return np.ceil(np.minimum(x, 2.0**63)).astype(np.uint64)


class SyntheticLaw:
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

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(SyntheticLaw):
    """T = c with probability 1."""

    c: int

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError(f"constant time must be >= 1, got {self.c}")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return np.full(len(u), self.c, dtype=np.int64)

    def cdf(self, t: int) -> float:
        return 1.0 if t >= self.c else 0.0

    def describe(self) -> str:
        return f"constant:{self.c}"


@dataclass(frozen=True)
class TwoPoint(SyntheticLaw):
    """T = a with probability p, else b (a < b)."""

    p: float
    a: int
    b: int

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0,1), got {self.p}")
        if not 1 <= self.a < self.b:
            raise ValueError(f"need 1 <= a < b, got a={self.a}, b={self.b}")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return np.where(u < self.p, self.a, self.b).astype(np.int64)

    def cdf(self, t: int) -> float:
        if t < self.a:
            return 0.0
        if t < self.b:
            return self.p
        return 1.0

    def describe(self) -> str:
        return f"two-point:{self.p}:{self.a}:{self.b}"


@dataclass(frozen=True)
class Geometric(SyntheticLaw):
    """Memoryless law on {1, 2, ...}: Pr(T <= t) = 1 - (1-p)^t."""

    p: float

    def __post_init__(self) -> None:
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

    def describe(self) -> str:
        return f"geometric:{self.p}"


@dataclass(frozen=True)
class DiscretePareto(SyntheticLaw):
    """Ceiling of a continuous Pareto(alpha, x_min) draw.

    Survival keeps the polynomial decay of the underlying continuous law:
    Pr(T <= t) = 1 - (x_min / t)^alpha at integer t >= x_min.
    """

    alpha: float
    x_min: int = 1

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.x_min < 1:
            raise ValueError(f"x_min must be >= 1, got {self.x_min}")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):  # u == 1 gives inf
            x = self.x_min * (1.0 - u) ** (-1.0 / self.alpha)
        return _ceil_times(x)

    def cdf(self, t: int) -> float:
        if t < self.x_min:
            return 0.0
        return 1.0 - (self.x_min / t) ** self.alpha

    def describe(self) -> str:
        return f"discrete-pareto:{self.alpha}:{self.x_min}"


def exact_ecdf(law: SyntheticLaw, cap: int) -> Ecdf:
    """The law's true distribution packaged as an Ecdf truncated at `cap`.

    Support holds every t <= cap where the CDF is positive and increases;
    mass beyond the cap is reported as censored, mirroring what an infinite
    empirical sample capped at `cap` would estimate.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
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
        censored_mass=1.0 - prev,
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

    @property
    def cap(self) -> int:
        return self.cap_epochs

    def describe(self) -> str:
        return f"stub({self.law.describe()},cap={self.cap_epochs})"

    def attempt_many(self, seeds: list[int], cutoff: int) -> list[RunRecord]:
        """One record per seed, from one `quantile` call for the block."""
        # Draws past int64 saturate at 2**63, which must stay above the cutoff.
        check_cutoff(cutoff)
        return [
            RunRecord(seed=seed, epochs=t, converged=True, final_error=0.0)
            if t <= cutoff
            else RunRecord(seed=seed, epochs=cutoff, converged=False, final_error=1.0)
            for seed, t in zip(seeds, self.law.sample_many(seeds).tolist())
        ]


def parse_law(spec: str) -> SyntheticLaw:
    """Parse the CLI stub grammar `name:param:param...` into a law.

    Grammar: `constant:c`, `two-point:p:a:b`, `geometric:p`,
    `discrete-pareto:alpha[:x_min]`.
    """
    parts = spec.split(":")
    name, args = parts[0], parts[1:]
    try:
        if name == "constant" and len(args) == 1:
            return Constant(c=int(args[0]))
        if name == "two-point" and len(args) == 3:
            return TwoPoint(p=float(args[0]), a=int(args[1]), b=int(args[2]))
        if name == "geometric" and len(args) == 1:
            return Geometric(p=float(args[0]))
        if name == "discrete-pareto" and len(args) in (1, 2):
            x_min = int(args[1]) if len(args) == 2 else 1
            return DiscretePareto(alpha=float(args[0]), x_min=x_min)
    except ValueError as exc:
        raise ValueError(f"bad stub spec '{spec}': {exc}") from exc
    raise ValueError(
        f"bad stub spec '{spec}': expected constant:c, two-point:p:a:b, "
        f"geometric:p, or discrete-pareto:alpha[:x_min]"
    )
