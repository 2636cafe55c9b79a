"""Single-hidden-layer perceptron trained by full-batch backpropagation.

Training runs until the mean squared error over patterns and output units
drops to the target, or until an epoch cap censors the run. With weights
drawn uniformly at random per seed, the number of epochs needed is a
random variable: this is the Las Vegas process the rest of the toolkit
analyzes.

Every epoch runs on one in-place kernel (`_Epoch`) over a stack of runs.
A run's weights are one row in the `_shapes` layout, from its seed (`_draw`,
one call) to row k of a flat (runs, n_weights) buffer beside its gradient
and velocity rows, and its activations, output - y and deltas are
the contiguous slice [k] of (runs, rows, width) arrays, all allocated once.
`MlpProcess.attempt_many` trains up to 16 runs of a block side by side
(fewer when their buffers would pass a fixed byte budget); a run leaves
the stack at the epoch it converges, diverges or reaches the cutoff, and
the next seed takes its slot at zero velocity. `MlpProcess.attempt` (a
block of one seed) and `backprop_gradients` are the stack of one.

Each run's record is bit-identical to the plain allocating formulas for
that seed alone, whatever the stack around it:
- each elementwise formula keeps its left-to-right grouping, and the runs
  share no element;
- each matmul is `np.matmul` over the stack, one BLAS call per slice on
  that slice's shape and layout, never one wide GEMM across runs, so no
  run's bits depend on the stack around it;
- the two forward matmuls take operands laid out for gemm (features in
  Fortran order, a C-order copy of W_outᵀ), which changes their speed but
  not their bits; at the shapes where numpy calls gemv instead (one hidden
  unit, one output or one row), where a new layout can change the bits,
  they keep the C-order operands of the plain formulas;
- each MSE is one pairwise sum over the run's contiguous slice, divided by
  its size;
- column sums go through `einsum("kij->kj")`, which adds each slice's rows
  in the same order as `sum(axis=0)`, except at width 1 (`--hidden 1`, or
  one output), where `np.add.reduce` makes that reduction's pairwise sum.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InsufficientDataError
from .runner import MAX_CAP, LasVegasProcess, RunBlock, check_cutoff, format_float


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
        sizes = (self.n_inputs, self.n_hidden, self.n_outputs)
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in sizes):
            raise ValueError(f"layer sizes must all be integers, got {sizes}")
        if min(sizes) < 1:
            raise ValueError("layer sizes must all be >= 1")
        # Written so that NaN fails every range check.
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be in (0,inf), got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        top = sys.float_info.max / 2  # `rng.uniform(-w, w)` needs 2 * w finite
        if not 0.0 <= self.init_half_width <= top:
            raise ValueError(
                f"init_half_width must be in [0, {top!r}], got {self.init_half_width}"
            )
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


def _shapes(n_inputs: int, n_hidden: int, n_outputs: int) -> list[tuple[int, ...]]:
    """The layers of a run's weight row, in order: w_hidden, b_hidden, w_out, b_out."""
    return [(n_hidden, n_inputs), (n_hidden,), (n_outputs, n_hidden), (n_outputs,)]


def _draw(cfg: MlpConfig, seed: int) -> np.ndarray:
    """A run's initial weight row: every weight uniform on [-w, +w], in one call."""
    w, shapes = cfg.init_half_width, _shapes(cfg.n_inputs, cfg.n_hidden, cfg.n_outputs)
    return np.random.default_rng(seed).uniform(-w, w, size=sum(map(math.prod, shapes)))


def _layer_views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """The last axis of `flat` cut into consecutive layers of the given
    shapes, as views; each row's slice of each layer is C-contiguous."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[..., start:stop].reshape(*flat.shape[:-1], *shape))
        start = stop
    return views


def init_weights(cfg: MlpConfig, seed: int) -> MlpState:
    """Draw all weights and biases uniformly on [-w, +w] for the seed.

    Uses numpy's PCG64 generator; the draw order is the row order of
    `_shapes`, drawn in one call (`_draw`), and the four arrays are views
    of that row, so identical (cfg, seed) give bitwise-identical states.
    """
    shapes = _shapes(cfg.n_inputs, cfg.n_hidden, cfg.n_outputs)
    return MlpState(*_layer_views(_draw(cfg, seed), shapes))


def _column_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`a[k].sum(axis=0)` written into `out[k]` for every run k, bit for bit.

    For width > 1, einsum adds each slice's rows in the same order as the
    reduction but without its per-row overhead. At width 1 the reduction
    is one contiguous pairwise sum, which einsum's accumulation does not
    match and `np.add.reduce` over the rows makes for every slice at once.
    """
    if a.shape[2] > 1:
        return np.einsum("kij->kj", a, out=out)
    return np.add.reduce(a, axis=1, out=out)


def _sigmoid_layer(
    inputs: np.ndarray, w_t: np.ndarray, b: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """out = 1 / (1 + exp(-(inputs @ w_t + b))), computed in place.

    `w_t` is the stack of transposed weight matrices and `b` the stack of
    biases as (runs, width, 1). exp may overflow to inf for very negative
    pre-activations; 1/(1+inf) = 0 is exactly the right limit, so callers
    run under np.errstate(over="ignore"). They ignore "invalid" too: a
    diverging run's inf weights make NaNs, which its error then reports.
    """
    np.matmul(inputs, w_t, out=out)
    # -(z + b) as (-b) - z in one pass: round-to-nearest is sign-symmetric,
    # so the two differ only in the sign of a zero or a NaN, which exp maps
    # alike. On the (runs, width, rows) view, C order makes rows the inner
    # loop, not the few units of the layer.
    z_t = out.transpose(0, 2, 1)
    np.subtract(np.negative(b), z_t, out=z_t, order="C")
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class _Epoch:
    """Full-batch epochs for a stack of up to `capacity` runs, on preallocated buffers.

    Run k owns row k of three (capacity, n_weights) buffers: its weights in
    the `_shapes` layout, their gradients and their velocity. `params` and
    `grads` view those rows as the layers, and run k also owns slice [k] of
    every activation buffer. The features `x` and targets `y` are shared.
    One epoch is `gradients()`, `descend()`, which steps every run's weights
    in place, then `error()`, which runs the forward pass at the new
    weights, caches output - y for the next gradient and returns each run's
    MSE. `restack` drops finished runs and starts new ones in the freed
    slots. `x_fwd` and `w_out_t_fwd` are the forward operands, laid out for
    gemm where numpy calls it (see the module docstring).
    """

    def __init__(self, n_hidden: int, capacity: int, x: np.ndarray, y: np.ndarray) -> None:
        (n, n_inputs), n_out = x.shape, y.shape[1]
        self.x, self.y = x, y
        self.x_fwd = np.asfortranarray(x) if n_hidden > 1 else x
        self.n_cells = n * n_out
        self.scale = 2.0 / self.n_cells
        self.shapes = _shapes(n_inputs, n_hidden, n_out)
        n_weights = sum(map(math.prod, self.shapes))
        self._weights = np.empty((capacity, n_weights))
        self._gradient = np.empty((capacity, n_weights))
        self._velocity = np.zeros((capacity, n_weights))
        copy_w_out_t = n > 1 and n_out > 1
        self._w_out_t = np.empty((capacity, n_hidden, n_out)) if copy_w_out_t else None
        self._hidden = np.empty((capacity, n, n_hidden))
        self._output = np.empty((capacity, n, n_out))
        self._diff = np.empty((capacity, n, n_out))
        self._d_out = np.empty((capacity, n, n_out))
        self._d_hidden = np.empty((capacity, n, n_hidden))

    def _bind(self, size: int) -> None:
        """Point the working views at the first `size` runs."""
        self.weights, self.gradient = self._weights[:size], self._gradient[:size]
        self.velocity = self._velocity[:size]
        self.params = _layer_views(self.weights, self.shapes)
        self.grads = _layer_views(self.gradient, self.shapes)
        self.hidden, self.output = self._hidden[:size], self._output[:size]
        self.diff, self.d_out = self._diff[:size], self._d_out[:size]
        self.d_hidden = self._d_hidden[:size]
        w_hidden, b_hidden, w_out, b_out = self.params
        self.w_hidden_t = w_hidden.transpose(0, 2, 1)
        self.w_out_t = w_out.transpose(0, 2, 1)
        self.w_out_t_fwd = self.w_out_t if self._w_out_t is None else self._w_out_t[:size]
        self.b_hidden, self.b_out = b_hidden[:, :, None], b_out[:, :, None]
        self.d_out_t = self.d_out.transpose(0, 2, 1)
        self.d_hidden_t = self.d_hidden.transpose(0, 2, 1)
        self.squares = self.d_out.reshape(size, self.n_cells)

    def restack(self, keep: list[int], rows: list[np.ndarray]) -> list[float]:
        """Keep runs `keep`, in that order, then start one run per weight row.

        New runs start at zero velocity. Returns `error()` of the new stack;
        a kept run's forward pass is recomputed from its unchanged weights,
        so its buffers and error are the ones it had.
        """
        m = len(keep)
        index = np.array(keep, dtype=np.intp)
        for full in (self._weights, self._velocity):
            full[:m], full[m:] = full[index], 0.0
        for k, row in enumerate(rows, start=m):
            self._weights[k] = row
        self._bind(m + len(rows))
        return self.error()

    def error(self) -> list[float]:
        """Each run's MSE over patterns and output units at its current weights."""
        _sigmoid_layer(self.x_fwd, self.w_hidden_t, self.b_hidden, self.hidden)
        if self.w_out_t_fwd is not self.w_out_t:  # the C-order copy for gemm
            np.copyto(self.w_out_t_fwd, self.w_out_t)
        _sigmoid_layer(self.hidden, self.w_out_t_fwd, self.b_out, self.output)
        np.subtract(self.output, self.y, out=self.diff)
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

    def descend(self, learning_rate: float, momentum: float) -> None:
        """Step every run: v = momentum * v + g, then p -= learning_rate * v.

        Each is one elementwise pass over all weights of all runs.
        A new run's zero velocity gives the weights of a first step v = g,
        bit for bit: momentum * 0 + g is g but at g = -0.0 (+0.0); a zero's
        sign reaches a weight p only via p - 0 at p = -0.0; and no weight is
        -0.0: `rng.uniform(-w, w)` is -w + 2w * u, never -0.0 even at w = 0,
        and round-to-nearest without flush-to-zero makes p - s -0.0 only if p is.
        """
        step = self.gradient
        if momentum > 0.0:
            self.velocity *= momentum
            self.velocity += self.gradient
            step = self.velocity
        self.weights -= np.multiply(step, learning_rate, out=self.gradient)


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
    """Gradients of the MSE w.r.t. (w_hidden, b_hidden, w_out, b_out)."""
    _check_dims(data, state.w_hidden.shape[1], state.w_out.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        epoch = _Epoch(state.w_hidden.shape[0], 1, data.features, data.targets)
        row = np.concatenate([state.w_hidden, state.b_hidden, state.w_out, state.b_out], None)
        epoch.restack([], [row])
        return tuple(g[0] for g in epoch.gradients())


# At most this many runs train side by side, and their stacked buffers
# stay within this many bytes. Past about 2 MiB a wider stack costs more
# per run-epoch, not less (ROADMAP, "Where the epochs go").
_STACK_RUNS = 16
_STACK_BYTES = 2 << 20


def _stack_width(cfg: MlpConfig, n_rows: int) -> int:
    """Runs per lockstep stack: `_STACK_RUNS`, fewer if their buffers (the
    activations, output - y, the deltas, the weights with their gradients
    and velocities, and the copy of W_outᵀ) would pass `_STACK_BYTES`."""
    n_weights = sum(map(math.prod, _shapes(cfg.n_inputs, cfg.n_hidden, cfg.n_outputs)))
    n_floats = n_rows * (2 * cfg.n_hidden + 3 * cfg.n_outputs) + 3 * n_weights
    run_bytes = 8 * (n_floats + cfg.n_hidden * cfg.n_outputs)
    return max(1, min(_STACK_RUNS, _STACK_BYTES // run_bytes))


def _train_runs(cfg: MlpConfig, data: Dataset, seeds: list[int], cutoff: int) -> RunBlock:
    """One training run per seed, up to `cutoff` epochs each, in lockstep.

    Up to `_stack_width` runs share one `_Epoch` stack. A run leaves it
    at the epoch it converges, diverges or reaches the cutoff, and the
    next seed starts in its place. Row i of the block is seeds[i]'s run.
    """
    _check_dims(data, cfg.n_inputs, cfg.n_outputs)
    lr, beta, delta = cfg.learning_rate, cfg.momentum, cfg.target_error
    n = len(seeds)
    width = min(n, _stack_width(cfg, data.n_rows))
    kernel = _Epoch(cfg.n_hidden, width, data.features, data.targets)
    block = RunBlock(
        np.empty(n, dtype=np.int64), np.zeros(n, dtype=bool), np.empty(n), np.zeros(n, dtype=bool)
    )
    pending = iter(range(n))
    slots: list[int] = []  # the seed index each stacked run trains
    started: list[int] = []  # the step at which it started
    keep: list[int] = []
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            new = list(itertools.islice(pending, width - len(keep)))
            slots = [slots[k] for k in keep] + new
            if not slots:
                return block
            started = [started[k] for k in keep] + [step] * len(new)
            errors = kernel.restack(keep, [_draw(cfg, seeds[i]) for i in new])
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
                    continue
                block.epochs[i] = epochs
                if math.isfinite(error):
                    block.converged[i] = error <= delta
                    block.final_error[i] = error
                else:
                    block.final_error[i] = last[k]
                    block.diverged[i] = True


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
        c, fmt = self.cfg, format_float
        extra = f",{self.note}" if self.note else ""
        return (
            f"mlp(hidden={c.n_hidden},delta={fmt(c.target_error)},lr={fmt(c.learning_rate)},"
            f"momentum={fmt(c.momentum)},init={fmt(c.init_half_width)},cap={c.max_epochs},"
            f"rows={self.data.n_rows}{extra})"
        )

    def attempt_many(self, seeds: list[int], cutoff: int) -> RunBlock:
        """One row per seed, trained in lockstep stacks (`_train_runs`)."""
        check_cutoff(cutoff)
        return _train_runs(self.cfg, self.data, seeds, cutoff)
