"""Single-hidden-layer perceptron trained by full-batch backpropagation.

Training runs until the mean squared error over patterns and output units
drops to the target, or until an epoch cap censors the run. With weights
drawn uniformly at random per seed, the number of epochs needed is a
random variable: this is the Las Vegas process the rest of the toolkit
analyzes.

Every epoch runs on one in-place kernel (`_Epoch`): buffers for the
activations, output - y, the deltas and the four gradients are allocated
once per run, and the weights are updated in place. `train_until`,
`training_error`, `backprop_gradients`, `train_epoch` and `forward` all use
it. The kernel is bit-identical to the plain allocating formulas: each
elementwise formula keeps its left-to-right grouping, each matmul keeps its
operand layouts, and the MSE is the same pairwise sum divided by the size.
Column sums go through einsum, which adds rows in the same order as
`sum(axis=0)`, except at width 1 (`--hidden 1`, or one output), where the
reduction is a pairwise sum and stays `np.sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset
from .errors import DivergenceError, InsufficientDataError
from .runner import RunRecord


@dataclass(frozen=True)
class MlpConfig:
    """Architecture and training hyperparameters.

    Weights and biases are initialized uniformly on
    [-init_half_width, +init_half_width]. Training stops once the MSE
    reaches `target_error` or `max_epochs` epochs have run.

    The gradient is taken on the MSE averaged over patterns and outputs,
    which is n*k times smaller than classic per-pattern summed-error
    updates; the default learning rate is correspondingly larger than
    per-pattern conventions suggest.
    """

    n_inputs: int = 21
    n_hidden: int = 3
    n_outputs: int = 3
    learning_rate: float = 80.0
    momentum: float = 0.0
    init_half_width: float = 4.0
    target_error: float = 0.02
    max_epochs: int = 20000

    def __post_init__(self) -> None:
        if min(self.n_inputs, self.n_hidden, self.n_outputs) < 1:
            raise ValueError("layer sizes must all be >= 1")
        # Written so that NaN fails every range check.
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be in (0,inf), got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if not 0.0 <= self.init_half_width < math.inf:
            raise ValueError(f"init_half_width must be in [0,inf), got {self.init_half_width}")
        if not 0.0 < self.target_error < math.inf:
            raise ValueError(f"target_error must be in (0,inf), got {self.target_error}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass(frozen=True)
class MlpState:
    """Weight matrices and bias vectors of both layers."""

    w_hidden: np.ndarray  # (n_hidden, n_inputs)
    b_hidden: np.ndarray  # (n_hidden,)
    w_out: np.ndarray     # (n_outputs, n_hidden)
    b_out: np.ndarray     # (n_outputs,)


def init_weights(cfg: MlpConfig, seed: int) -> MlpState:
    """Draw all weights and biases uniformly on [-w, +w] for the seed.

    Uses numpy's PCG64 generator; the draw order is pinned as w_hidden,
    b_hidden, w_out, b_out, so identical (cfg, seed) give bitwise-identical
    states.
    """
    rng = np.random.default_rng(seed)
    w = cfg.init_half_width
    return MlpState(
        w_hidden=rng.uniform(-w, w, size=(cfg.n_hidden, cfg.n_inputs)),
        b_hidden=rng.uniform(-w, w, size=cfg.n_hidden),
        w_out=rng.uniform(-w, w, size=(cfg.n_outputs, cfg.n_hidden)),
        b_out=rng.uniform(-w, w, size=cfg.n_outputs),
    )


def _params(state: MlpState) -> list[np.ndarray]:
    return [state.w_hidden, state.b_hidden, state.w_out, state.b_out]


def _column_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`a.sum(axis=0)` written into `out`, bit for bit.

    For width > 1, einsum adds the rows in the same order as the reduction
    but without its per-row overhead. At width 1 the reduction is one
    contiguous pairwise sum, which einsum's accumulation does not match.
    """
    if a.shape[1] > 1:
        return np.einsum("ij->j", a, out=out)
    return np.sum(a, axis=0, out=out)


def _sigmoid_layer(
    inputs: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """out = 1 / (1 + exp(-(inputs @ w.T + b))), computed in place.

    exp may overflow to inf for very negative pre-activations; 1/(1+inf) = 0
    is exactly the right limit, so callers run under
    np.errstate(over="ignore").
    """
    np.matmul(inputs, w.T, out=out)
    out += b
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class _Epoch:
    """Full-batch epoch on preallocated buffers; the weights update in place.

    `params` is [w_hidden, b_hidden, w_out, b_out]; `descend` writes into
    those arrays. One epoch is `gradients()`, `descend()`, then `error()`,
    which runs the forward pass at the new weights and caches output - y
    for the next gradient.
    """

    def __init__(
        self, params: list[np.ndarray], x: np.ndarray, y: np.ndarray | None
    ) -> None:
        n = x.shape[0]
        n_hidden, n_out = params[0].shape[0], params[2].shape[0]
        self.params, self.x, self.y = params, x, y
        self.hidden = np.empty((n, n_hidden))
        self.output = np.empty((n, n_out))
        self.diff = np.empty((n, n_out))
        self.d_out = np.empty((n, n_out))
        self.d_hidden = np.empty((n, n_hidden))
        self.scale = 2.0 / (n * n_out)
        self.grads = [np.empty(p.shape) for p in params]
        self.velocity: list[np.ndarray] | None = None

    def forward(self) -> np.ndarray:
        w_hidden, b_hidden, w_out, b_out = self.params
        _sigmoid_layer(self.x, w_hidden, b_hidden, self.hidden)
        return _sigmoid_layer(self.hidden, w_out, b_out, self.output)

    def error(self) -> float:
        """MSE averaged over patterns and output units at the current weights."""
        np.subtract(self.forward(), self.y, out=self.diff)
        sq = np.multiply(self.diff, self.diff, out=self.d_out)
        return float(np.add.reduce(sq, axis=None) / sq.size)

    def gradients(self) -> list[np.ndarray]:
        """Backprop gradients at the last `error()` pass.

        Consumes that pass: the activation buffers are overwritten.
        """
        g_w_hidden, g_b_hidden, g_w_out, g_b_out = self.grads
        hidden, output = self.hidden, self.output
        d_out = np.multiply(self.diff, output, out=self.d_out)
        d_out *= np.subtract(1.0, output, out=output)
        d_out *= self.scale
        np.matmul(d_out.T, hidden, out=g_w_out)
        _column_sums(d_out, g_b_out)
        d_hidden = np.matmul(d_out, self.params[2], out=self.d_hidden)
        d_hidden *= hidden
        d_hidden *= np.subtract(1.0, hidden, out=hidden)
        np.matmul(d_hidden.T, self.x, out=g_w_hidden)
        _column_sums(d_hidden, g_b_hidden)
        return self.grads

    def descend(self, learning_rate: float, momentum: float = 0.0) -> None:
        """Step the weights along the last gradients (heavy-ball momentum)."""
        step = self.grads
        if momentum > 0.0:
            if self.velocity is None:
                self.velocity = [g.copy() for g in self.grads]
            else:
                for v, g in zip(self.velocity, self.grads):
                    v *= momentum
                    v += g
            step = self.velocity
        for p, s, g in zip(self.params, step, self.grads):
            p -= np.multiply(s, learning_rate, out=g)


def forward(state: MlpState, inputs: np.ndarray) -> np.ndarray:
    """Network output for a single input vector (sigmoid on both layers)."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != state.w_hidden.shape[1]:
        raise ValueError(
            f"input must be a vector of length {state.w_hidden.shape[1]}, "
            f"got shape {x.shape}"
        )
    with np.errstate(over="ignore"):
        return _Epoch(_params(state), x[None, :], None).forward()[0]


def training_error(state: MlpState, data: Dataset) -> float:
    """MSE averaged over patterns and output units."""
    _check_dims(data, state.w_hidden.shape[1], state.w_out.shape[0])
    with np.errstate(over="ignore"):
        return _Epoch(_params(state), data.features, data.targets).error()


def _check_dims(data: Dataset, n_inputs: int, n_outputs: int) -> None:
    if data.n_rows == 0:
        raise InsufficientDataError("dataset is empty")
    if data.n_features != n_inputs:
        raise ValueError(
            f"dataset has {data.n_features} features, network expects {n_inputs}"
        )
    if data.n_outputs != n_outputs:
        raise ValueError(
            f"dataset has {data.n_outputs} targets, network expects {n_outputs}"
        )


def backprop_gradients(
    state: MlpState, data: Dataset
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of `training_error` w.r.t. (w_hidden, b_hidden, w_out, b_out)."""
    _check_dims(data, state.w_hidden.shape[1], state.w_out.shape[0])
    with np.errstate(over="ignore"):
        epoch = _Epoch(_params(state), data.features, data.targets)
        epoch.error()
        return tuple(epoch.gradients())


def train_epoch(state: MlpState, data: Dataset, learning_rate: float) -> MlpState:
    """One full-batch gradient-descent step on the MSE objective."""
    if learning_rate < 0.0:
        raise ValueError(f"learning_rate must be >= 0, got {learning_rate}")
    _check_dims(data, state.w_hidden.shape[1], state.w_out.shape[0])
    params = [np.array(p, dtype=np.float64) for p in _params(state)]
    with np.errstate(over="ignore"):
        epoch = _Epoch(params, data.features, data.targets)
        epoch.error()
        if not all(np.isfinite(g).all() for g in epoch.gradients()):
            raise DivergenceError("non-finite gradient in backpropagation step")
        epoch.descend(learning_rate)
    return MlpState(*params)


def train_until(cfg: MlpConfig, data: Dataset, seed: int) -> RunRecord:
    """Train from a seeded random initialization until the error target.

    Runs full-batch backprop epochs, evaluating the MSE after each one,
    and stops at the first epoch whose error is <= cfg.target_error
    (converged) or at cfg.max_epochs (censored). A numeric failure ends
    the run early with the record flagged as diverged. Deterministic in
    (cfg, data, seed).
    """
    _check_dims(data, cfg.n_inputs, cfg.n_outputs)
    lr, beta, delta = cfg.learning_rate, cfg.momentum, cfg.target_error
    with np.errstate(over="ignore"):
        kernel = _Epoch(_params(init_weights(cfg, seed)), data.features, data.targets)
        last_error = kernel.error()
        for epoch in range(1, cfg.max_epochs + 1):
            kernel.gradients()
            kernel.descend(lr, beta)
            error = kernel.error()
            if not math.isfinite(error):
                return RunRecord(
                    seed=seed,
                    epochs=epoch,
                    converged=False,
                    final_error=last_error,
                    diverged=True,
                )
            last_error = error
            if error <= delta:
                return RunRecord(
                    seed=seed, epochs=epoch, converged=True, final_error=error
                )
    return RunRecord(
        seed=seed,
        epochs=cfg.max_epochs,
        converged=False,
        final_error=last_error,
    )


@dataclass(frozen=True)
class MlpProcess:
    """LasVegasProcess adapter: one attempt = one seeded training run.

    `note` is free-form provenance (e.g. which cross-validation fold the
    training partition came from) carried into run-log metadata.
    """

    cfg: MlpConfig
    data: Dataset
    note: str = ""

    @property
    def cap(self) -> int:
        return self.cfg.max_epochs

    def describe(self) -> str:
        c = self.cfg
        extra = f",{self.note}" if self.note else ""
        return (
            f"mlp(hidden={c.n_hidden},delta={c.target_error:g},lr={c.learning_rate:g},"
            f"momentum={c.momentum:g},init={c.init_half_width:g},cap={c.max_epochs},"
            f"rows={self.data.n_rows}{extra})"
        )

    def attempt(self, seed: int, cutoff: int) -> RunRecord:
        if cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {cutoff}")
        return train_until(replace(self.cfg, max_epochs=cutoff), self.data, seed)
