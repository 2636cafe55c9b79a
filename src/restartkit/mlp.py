"""Single-hidden-layer perceptron trained by full-batch backpropagation.

Training runs until the mean squared error over patterns and output units
drops to the target, or until an epoch cap censors the run. With weights
drawn uniformly at random per seed, the number of epochs needed is a
random variable: this is the Las Vegas process the rest of the toolkit
analyzes.

Every epoch runs on one in-place kernel (`_Epoch`) over a stack of runs.
Run k's weights, activations, output - y, deltas and gradients are the
contiguous slice [k] of (runs, rows, width) arrays allocated once, and the
weights are updated in place. `MlpProcess.attempt_many` trains up to 16
runs of a block side by side (fewer when their buffers would pass a fixed
byte budget); a run leaves the stack at the epoch it converges, diverges
or reaches the cutoff, and the next seed takes its slot. `MlpProcess.attempt`
(a block of one seed), `training_error`, `backprop_gradients`, `train_epoch`
and `forward` are the stack of one.

Each run's record is bit-identical to the plain allocating formulas for
that seed alone, whatever the stack around it:
- each elementwise formula keeps its left-to-right grouping, and the runs
  share no element;
- each matmul is `np.matmul` over the stack, which makes the same BLAS
  call per slice, on the same shape and operand layout as one run does,
  never one wide GEMM across runs;
- each MSE is one pairwise sum over the run's contiguous slice, divided by
  its size;
- column sums go through `einsum("kij->kj")`, which adds each slice's rows
  in the same order as `sum(axis=0)`, except at width 1 (`--hidden 1`, or
  one output), where that reduction is a pairwise sum and each slice stays
  `np.sum`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DivergenceError, InsufficientDataError
from .runner import MAX_CAP, LasVegasProcess, RunRecord, check_cutoff


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
        if not 1 <= self.max_epochs <= MAX_CAP:
            raise ValueError(f"max_epochs must be in [1, 2**63 - 1], got {self.max_epochs}")


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
    """`a[k].sum(axis=0)` written into `out[k]` for every run k, bit for bit.

    For width > 1, einsum adds each slice's rows in the same order as the
    reduction but without its per-row overhead. At width 1 the reduction
    is one contiguous pairwise sum, which einsum's accumulation does not
    match, so each slice goes through `np.sum`.
    """
    if a.shape[2] > 1:
        return np.einsum("kij->kj", a, out=out)
    for a_k, out_k in zip(a, out):
        np.sum(a_k, axis=0, out=out_k)
    return out


def _sigmoid_layer(
    inputs: np.ndarray, w_t: np.ndarray, b: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """out = 1 / (1 + exp(-(inputs @ w_t + b))), computed in place.

    `w_t` is the stack of transposed weight matrices and `b` the stack of
    biases as (runs, 1, width). exp may overflow to inf for very negative
    pre-activations; 1/(1+inf) = 0 is exactly the right limit, so callers
    run under np.errstate(over="ignore"). They ignore "invalid" too: a
    diverging run's inf weights make NaNs, which its error then reports.
    """
    np.matmul(inputs, w_t, out=out)
    out += b
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class _Epoch:
    """Full-batch epochs for a stack of runs, on preallocated buffers.

    `params` is [w_hidden, b_hidden, w_out, b_out], each with a leading
    stack axis: run k owns slice [k] of them and of every buffer, and
    `descend` updates the weights in place. The features `x` and targets
    `y` are shared. One epoch is `gradients()`, `descend()`, then
    `error()`, which runs the forward pass at the new weights, caches
    output - y for the next gradient and returns each run's MSE.
    `restack` drops finished runs and starts new ones in the freed slots.
    """

    def __init__(
        self, params: list[np.ndarray], x: np.ndarray, y: np.ndarray | None
    ) -> None:
        capacity, n_hidden = params[0].shape[:2]
        n, n_out = x.shape[0], params[2].shape[1]
        self.x, self.y = x, y
        self.n_cells = n * n_out
        self.scale = 2.0 / self.n_cells
        self._params = params
        self._grads = [np.empty(p.shape) for p in params]
        self._velocity: list[np.ndarray] | None = None
        self._hidden = np.empty((capacity, n, n_hidden))
        self._output = np.empty((capacity, n, n_out))
        self._diff = np.empty((capacity, n, n_out))
        self._d_out = np.empty((capacity, n, n_out))
        self._d_hidden = np.empty((capacity, n, n_hidden))
        # Runs [fresh:] have taken no step yet, so they have no velocity.
        self.fresh = 0
        self._bind(capacity)

    def _bind(self, size: int) -> None:
        """Point the working views at the first `size` runs."""
        self.size = size
        self.params = [p[:size] for p in self._params]
        self.grads = [g[:size] for g in self._grads]
        if self._velocity is not None:
            self.velocity = [v[:size] for v in self._velocity]
        self.hidden, self.output = self._hidden[:size], self._output[:size]
        self.diff, self.d_out = self._diff[:size], self._d_out[:size]
        self.d_hidden = self._d_hidden[:size]
        w_hidden, b_hidden, w_out, b_out = self.params
        self.w_hidden_t = w_hidden.transpose(0, 2, 1)
        self.w_out_t = w_out.transpose(0, 2, 1)
        self.b_hidden, self.b_out = b_hidden[:, None, :], b_out[:, None, :]
        self.d_out_t = self.d_out.transpose(0, 2, 1)
        self.d_hidden_t = self.d_hidden.transpose(0, 2, 1)
        self.squares = self.d_out.reshape(size, self.n_cells)

    def restack(self, keep: list[int], states: list[MlpState]) -> list[float]:
        """Keep runs `keep`, in that order, then start one run per state.

        Returns `error()` of the new stack; a kept run's forward pass is
        recomputed from its unchanged weights, so its buffers and error are
        the ones it had.
        """
        m = len(keep)
        if m:
            index = np.array(keep, dtype=np.intp)
            for full in (*self._params, *(self._velocity or ())):
                full[:m] = full[index]
        for k, state in enumerate(states, start=m):
            for full, p in zip(self._params, _params(state)):
                full[k] = p
        self.fresh = m
        self._bind(m + len(states))
        return self.error()

    def forward(self) -> np.ndarray:
        _sigmoid_layer(self.x, self.w_hidden_t, self.b_hidden, self.hidden)
        return _sigmoid_layer(self.hidden, self.w_out_t, self.b_out, self.output)

    def error(self) -> list[float]:
        """Each run's MSE over patterns and output units at its current weights."""
        np.subtract(self.forward(), self.y, out=self.diff)
        np.multiply(self.diff, self.diff, out=self.d_out)
        return (np.add.reduce(self.squares, axis=1) / self.n_cells).tolist()

    def gradients(self) -> list[np.ndarray]:
        """Backprop gradients at the last `error()` pass.

        Consumes that pass: the activation buffers are overwritten.
        """
        g_w_hidden, g_b_hidden, g_w_out, g_b_out = self.grads
        hidden, output = self.hidden, self.output
        d_out = np.multiply(self.diff, output, out=self.d_out)
        d_out *= np.subtract(1.0, output, out=output)
        d_out *= self.scale
        np.matmul(self.d_out_t, hidden, out=g_w_out)
        _column_sums(d_out, g_b_out)
        d_hidden = np.matmul(d_out, self.params[2], out=self.d_hidden)
        d_hidden *= hidden
        d_hidden *= np.subtract(1.0, hidden, out=hidden)
        np.matmul(self.d_hidden_t, self.x, out=g_w_hidden)
        _column_sums(d_hidden, g_b_hidden)
        return self.grads

    def descend(self, learning_rate: float, momentum: float = 0.0) -> None:
        """Step the weights along the last gradients (heavy-ball momentum).

        A run's first step sets its velocity to its gradient.
        """
        step = self.grads
        if momentum > 0.0:
            if self._velocity is None:
                self._velocity = [np.empty(g.shape) for g in self._grads]
                self.velocity = [v[: self.size] for v in self._velocity]
            fresh = self.fresh
            for v, g in zip(self.velocity, self.grads):
                if fresh < self.size:
                    v[fresh:] = g[fresh:]
                    v, g = v[:fresh], g[:fresh]
                v *= momentum
                v += g
            self.fresh = self.size
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
    with np.errstate(over="ignore", invalid="ignore"):
        return _Epoch(_stack_of_one(state), x[None, :], None).forward()[0, 0]


def training_error(state: MlpState, data: Dataset) -> float:
    """MSE averaged over patterns and output units."""
    _check_dims(data, state.w_hidden.shape[1], state.w_out.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        return _Epoch(_stack_of_one(state), data.features, data.targets).error()[0]


def _stack_of_one(state: MlpState) -> list[np.ndarray]:
    return [p[None] for p in _params(state)]


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
    with np.errstate(over="ignore", invalid="ignore"):
        epoch = _Epoch(_stack_of_one(state), data.features, data.targets)
        epoch.error()
        return tuple(g[0] for g in epoch.gradients())


def train_epoch(state: MlpState, data: Dataset, learning_rate: float) -> MlpState:
    """One full-batch gradient-descent step on the MSE objective."""
    if learning_rate < 0.0:
        raise ValueError(f"learning_rate must be >= 0, got {learning_rate}")
    _check_dims(data, state.w_hidden.shape[1], state.w_out.shape[0])
    params = [np.array(p, dtype=np.float64) for p in _stack_of_one(state)]
    with np.errstate(over="ignore", invalid="ignore"):
        epoch = _Epoch(params, data.features, data.targets)
        epoch.error()
        if not all(np.isfinite(g).all() for g in epoch.gradients()):
            raise DivergenceError("non-finite gradient in backpropagation step")
        epoch.descend(learning_rate)
    return MlpState(*(p[0] for p in params))


# At most this many runs train side by side, and their stacked buffers
# stay within this many bytes. Past about 2 MiB a wider stack costs more
# per run-epoch, not less (ROADMAP, "Where the epochs go").
_STACK_RUNS = 16
_STACK_BYTES = 2 << 20


def _stack_width(cfg: MlpConfig, n_rows: int) -> int:
    """Runs per lockstep stack: `_STACK_RUNS`, fewer if their buffers (the
    activations, output - y, the deltas, and the weights with their
    gradients and velocities) would pass `_STACK_BYTES`."""
    n_weights = cfg.n_hidden * (cfg.n_inputs + 1) + cfg.n_outputs * (cfg.n_hidden + 1)
    run_bytes = 8 * (n_rows * (2 * cfg.n_hidden + 3 * cfg.n_outputs) + 3 * n_weights)
    return max(1, min(_STACK_RUNS, _STACK_BYTES // run_bytes))


def _train_runs(
    cfg: MlpConfig, data: Dataset, seeds: list[int], cutoff: int
) -> list[RunRecord]:
    """One training run per seed, up to `cutoff` epochs each, in lockstep.

    Up to `_stack_width` runs share one `_Epoch` stack. A run leaves it
    at the epoch it converges, diverges or reaches the cutoff, and the
    next seed starts in its place. Records come back in seed order.
    """
    _check_dims(data, cfg.n_inputs, cfg.n_outputs)
    lr, beta, delta = cfg.learning_rate, cfg.momentum, cfg.target_error
    width = min(len(seeds), _stack_width(cfg, data.n_rows))
    shapes = [(cfg.n_hidden, cfg.n_inputs), (cfg.n_hidden,)]
    shapes += [(cfg.n_outputs, cfg.n_hidden), (cfg.n_outputs,)]
    kernel = _Epoch(
        [np.empty((width, *shape)) for shape in shapes], data.features, data.targets
    )
    records: list[RunRecord | None] = [None] * len(seeds)
    pending = iter(range(len(seeds)))
    slots: list[int] = []  # the seed index each stacked run trains
    started: list[int] = []  # the step at which it started
    keep: list[int] = []
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            new = list(itertools.islice(pending, width - len(keep)))
            slots = [slots[k] for k in keep] + new
            if not slots:
                return records
            started = [started[k] for k in keep] + [step] * len(new)
            errors = kernel.restack(keep, [init_weights(cfg, seeds[i]) for i in new])
            # Train until some run stops or reaches the cutoff.
            deadline = min(started) + cutoff
            while True:
                kernel.gradients()
                kernel.descend(lr, beta)
                last, errors = errors, kernel.error()
                step += 1
                if step == deadline or not all(delta < e < math.inf for e in errors):
                    break
            keep = []
            for k, error in enumerate(errors):
                i, epochs = slots[k], step - started[k]
                if delta < error < math.inf and epochs < cutoff:
                    keep.append(k)
                elif math.isfinite(error):
                    records[i] = RunRecord(
                        seed=seeds[i], epochs=epochs, converged=error <= delta,
                        final_error=error,
                    )
                else:
                    records[i] = RunRecord(
                        seed=seeds[i], epochs=epochs, converged=False,
                        final_error=last[k], diverged=True,
                    )


@dataclass(frozen=True)
class MlpProcess(LasVegasProcess):
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

    def attempt_many(self, seeds: list[int], cutoff: int) -> list[RunRecord]:
        """One record per seed, trained in lockstep stacks (`_train_runs`)."""
        check_cutoff(cutoff)
        return _train_runs(self.cfg, self.data, seeds, cutoff)
