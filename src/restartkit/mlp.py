"""Single-hidden-layer perceptron trained by full-batch backpropagation.

Training runs until the mean squared error over patterns and output units
drops to the target, or until an epoch cap censors the run. With weights
drawn uniformly at random per seed, the number of epochs needed is a
random variable: this is the Las Vegas process the rest of the toolkit
analyzes.
"""

from __future__ import annotations

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
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.momentum < 0.0 or self.momentum >= 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if self.init_half_width < 0.0:
            raise ValueError(f"init_half_width must be >= 0, got {self.init_half_width}")
        if self.target_error <= 0.0:
            raise ValueError(f"target_error must be positive, got {self.target_error}")
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp may overflow to inf for very negative inputs; 1/(1+inf) = 0 is
    # exactly the right limit, so the overflow warning is suppressed.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _forward_batch(state: MlpState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hidden = _sigmoid(x @ state.w_hidden.T + state.b_hidden)
    output = _sigmoid(hidden @ state.w_out.T + state.b_out)
    return hidden, output


def forward(state: MlpState, inputs: np.ndarray) -> np.ndarray:
    """Network output for a single input vector (sigmoid on both layers)."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != state.w_hidden.shape[1]:
        raise ValueError(
            f"input must be a vector of length {state.w_hidden.shape[1]}, "
            f"got shape {x.shape}"
        )
    _, out = _forward_batch(state, x[None, :])
    return out[0]


def training_error(state: MlpState, data: Dataset) -> float:
    """MSE averaged over patterns and output units."""
    _check_dims(data, state.w_hidden.shape[1], state.w_out.shape[0])
    _, out = _forward_batch(state, data.features)
    return float(np.mean((out - data.targets) ** 2))


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


def _gradients(
    state: MlpState,
    x: np.ndarray,
    y: np.ndarray,
    hidden: np.ndarray,
    output: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backprop gradients of the MSE at a cached forward pass."""
    n, n_out = y.shape
    d_z2 = (output - y) * output * (1.0 - output) * (2.0 / (n * n_out))
    g_w_out = d_z2.T @ hidden
    g_b_out = d_z2.sum(axis=0)
    d_z1 = (d_z2 @ state.w_out) * hidden * (1.0 - hidden)
    g_w_hidden = d_z1.T @ x
    g_b_hidden = d_z1.sum(axis=0)
    return g_w_hidden, g_b_hidden, g_w_out, g_b_out


def backprop_gradients(
    state: MlpState, data: Dataset
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of `training_error` w.r.t. (w_hidden, b_hidden, w_out, b_out)."""
    _check_dims(data, state.w_hidden.shape[1], state.w_out.shape[0])
    hidden, output = _forward_batch(state, data.features)
    return _gradients(state, data.features, data.targets, hidden, output)


def train_epoch(state: MlpState, data: Dataset, learning_rate: float) -> MlpState:
    """One full-batch gradient-descent step on the MSE objective."""
    if learning_rate < 0.0:
        raise ValueError(f"learning_rate must be >= 0, got {learning_rate}")
    grads = backprop_gradients(state, data)
    if not all(np.isfinite(g).all() for g in grads):
        raise DivergenceError("non-finite gradient in backpropagation step")
    gw1, gb1, gw2, gb2 = grads
    return MlpState(
        w_hidden=state.w_hidden - learning_rate * gw1,
        b_hidden=state.b_hidden - learning_rate * gb1,
        w_out=state.w_out - learning_rate * gw2,
        b_out=state.b_out - learning_rate * gb2,
    )


def train_until(cfg: MlpConfig, data: Dataset, seed: int) -> RunRecord:
    """Train from a seeded random initialization until the error target.

    Runs full-batch backprop epochs, evaluating the MSE after each one,
    and stops at the first epoch whose error is <= cfg.target_error
    (converged) or at cfg.max_epochs (censored). A numeric failure ends
    the run early with the record flagged as diverged. Deterministic in
    (cfg, data, seed).
    """
    _check_dims(data, cfg.n_inputs, cfg.n_outputs)
    x, y = data.features, data.targets
    lr, beta, delta = cfg.learning_rate, cfg.momentum, cfg.target_error
    state = init_weights(cfg, seed)
    hidden, output = _forward_batch(state, x)
    last_error = float(np.mean((output - y) ** 2))
    velocity = None
    for epoch in range(1, cfg.max_epochs + 1):
        grads = _gradients(state, x, y, hidden, output)
        if beta > 0.0:
            if velocity is None:
                velocity = grads
            else:
                velocity = tuple(beta * v + g for v, g in zip(velocity, grads))
            step = velocity
        else:
            step = grads
        state = MlpState(
            w_hidden=state.w_hidden - lr * step[0],
            b_hidden=state.b_hidden - lr * step[1],
            w_out=state.w_out - lr * step[2],
            b_out=state.b_out - lr * step[3],
        )
        hidden, output = _forward_batch(state, x)
        error = float(np.mean((output - y) ** 2))
        if not np.isfinite(error):
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
