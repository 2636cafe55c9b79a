import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restartkit import (
    Dataset,
    DivergenceError,
    InsufficientDataError,
    MlpConfig,
    MlpProcess,
    MlpState,
    RunRecord,
    backprop_gradients,
    forward,
    init_weights,
    train_epoch,
    training_error,
)

from conftest import tiny_dataset
from restartkit import mlp
from restartkit.mlp import _column_sums


def naive_forward(state: MlpState, x):
    """Independent oracle: plain-python loops, no shared numpy expressions."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    hidden = []
    for j in range(state.w_hidden.shape[0]):
        acc = state.b_hidden[j]
        for i in range(state.w_hidden.shape[1]):
            acc += state.w_hidden[j, i] * x[i]
        hidden.append(sig(acc))
    out = []
    for k in range(state.w_out.shape[0]):
        acc = state.b_out[k]
        for j in range(len(hidden)):
            acc += state.w_out[k, j] * hidden[j]
        out.append(sig(acc))
    return out


def finite_difference_gradients(state: MlpState, data: Dataset, h=1e-5):
    """Central-difference oracle for the MSE gradient."""
    arrays = [state.w_hidden, state.b_hidden, state.w_out, state.b_out]

    def error_at(arrs):
        return training_error(MlpState(*arrs), data)

    grads = []
    for k, a in enumerate(arrays):
        fd = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = [arr.copy() for arr in arrays]
            minus = [arr.copy() for arr in arrays]
            plus[k][idx] += h
            minus[k][idx] -= h
            fd[idx] = (error_at(plus) - error_at(minus)) / (2 * h)
        grads.append(fd)
    return grads


# Allocating reference epoch: one fresh array per operation. The package's
# in-place kernel must reproduce its results bit for bit.


def alloc_sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def alloc_forward(state, x):
    hidden = alloc_sigmoid(x @ state.w_hidden.T + state.b_hidden)
    output = alloc_sigmoid(hidden @ state.w_out.T + state.b_out)
    return hidden, output


def alloc_gradients(state, x, y, hidden, output):
    n, n_out = y.shape
    d_z2 = (output - y) * output * (1.0 - output) * (2.0 / (n * n_out))
    g_w_out = d_z2.T @ hidden
    g_b_out = d_z2.sum(axis=0)
    d_z1 = (d_z2 @ state.w_out) * hidden * (1.0 - hidden)
    g_w_hidden = d_z1.T @ x
    g_b_hidden = d_z1.sum(axis=0)
    return g_w_hidden, g_b_hidden, g_w_out, g_b_out


@np.errstate(over="ignore", invalid="ignore")
def alloc_train_until(cfg, data, seed):
    x, y = data.features, data.targets
    lr, beta, delta = cfg.learning_rate, cfg.momentum, cfg.target_error
    state = init_weights(cfg, seed)
    hidden, output = alloc_forward(state, x)
    last_error = float(np.mean((output - y) ** 2))
    velocity = None
    for epoch in range(1, cfg.max_epochs + 1):
        grads = alloc_gradients(state, x, y, hidden, output)
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
        hidden, output = alloc_forward(state, x)
        error = float(np.mean((output - y) ** 2))
        if not np.isfinite(error):
            return RunRecord(seed, epoch, False, last_error, diverged=True)
        last_error = error
        if error <= delta:
            return RunRecord(seed, epoch, True, error)
    return RunRecord(seed, cfg.max_epochs, False, last_error)


def record_bits(rec: RunRecord):
    return (rec.seed, rec.epochs, rec.converged, rec.diverged, rec.final_error.hex())


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = MlpConfig()
        assert cfg.n_inputs == 21 and cfg.n_hidden == 3 and cfg.n_outputs == 3
        assert cfg.target_error == 0.02 and cfg.max_epochs == 20000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_hidden": 0},
            {"learning_rate": 0.0},
            {"target_error": -0.1},
            {"max_epochs": 0},
            {"init_half_width": -1.0},
            {"momentum": 1.0},
            {"max_epochs": 2**63},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MlpConfig(**kwargs)

    @pytest.mark.parametrize(
        "field", ["learning_rate", "momentum", "init_half_width", "target_error"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            MlpConfig(**{field: value})


class TestInitWeights:
    def test_zero_half_width_gives_zero_weights(self):
        cfg = MlpConfig(n_inputs=4, n_hidden=3, n_outputs=2, init_half_width=0.0)
        state = init_weights(cfg, 123)
        for a in (state.w_hidden, state.b_hidden, state.w_out, state.b_out):
            assert np.all(a == 0.0)

    def test_same_seed_bitwise_identical(self):
        cfg = MlpConfig(n_inputs=5, n_hidden=4, n_outputs=3)
        a, b = init_weights(cfg, 9), init_weights(cfg, 9)
        assert np.array_equal(a.w_hidden, b.w_hidden)
        assert np.array_equal(a.b_hidden, b.b_hidden)
        assert np.array_equal(a.w_out, b.w_out)
        assert np.array_equal(a.b_out, b.b_out)

    def test_different_seeds_differ(self):
        cfg = MlpConfig(n_inputs=5, n_hidden=4, n_outputs=3)
        assert not np.array_equal(
            init_weights(cfg, 1).w_hidden, init_weights(cfg, 2).w_hidden
        )

    def test_uniform_law_statistics(self):
        # 10^5 draws at half-width 0.5 in a single weight matrix.
        cfg = MlpConfig(
            n_inputs=1000, n_hidden=100, n_outputs=1, init_half_width=0.5
        )
        draws = init_weights(cfg, 31).w_hidden.ravel()
        assert draws.size == 100_000
        assert abs(draws.mean()) < 0.01
        assert -0.5 <= draws.min() <= -0.49
        assert 0.49 <= draws.max() <= 0.5


class TestForward:
    def test_zero_weights_give_half(self):
        cfg = MlpConfig(n_inputs=4, n_hidden=3, n_outputs=2, init_half_width=0.0)
        state = init_weights(cfg, 0)
        out = forward(state, np.array([0.3, -2.0, 5.0, 0.0]))
        assert out.tolist() == [0.5, 0.5]

    def test_large_bias_saturates(self):
        cfg = MlpConfig(n_inputs=2, n_hidden=2, n_outputs=2, init_half_width=0.0)
        state = init_weights(cfg, 0)
        state = MlpState(
            state.w_hidden, state.b_hidden, state.w_out, state.b_out + [1000.0, 0.0]
        )
        out = forward(state, np.array([0.1, 0.2]))
        assert abs(out[0] - 1.0) < 1e-9
        assert out[1] == 0.5

    def test_outputs_in_open_unit_interval(self):
        cfg = MlpConfig(n_inputs=6, n_hidden=4, n_outputs=3, init_half_width=2.0)
        state = init_weights(cfg, 17)
        out = forward(state, np.linspace(-1, 1, 6))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_dimension_mismatch(self):
        cfg = MlpConfig(n_inputs=4, n_hidden=3, n_outputs=2)
        state = init_weights(cfg, 0)
        with pytest.raises(ValueError):
            forward(state, np.zeros(5))

    def test_agrees_with_naive_oracle(self):
        cfg = MlpConfig(n_inputs=5, n_hidden=4, n_outputs=3, init_half_width=1.5)
        state = init_weights(cfg, 44)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=5)
            expected = naive_forward(state, x)
            assert forward(state, x).tolist() == pytest.approx(expected, abs=1e-12)


class TestTrainingError:
    def test_exact_targets_give_zero(self):
        cfg = MlpConfig(n_inputs=3, n_hidden=2, n_outputs=2, init_half_width=0.4)
        state = init_weights(cfg, 3)
        x = np.array([[0.1, 0.5, 0.9], [0.7, 0.2, 0.3]])
        outputs = np.array([forward(state, row) for row in x])
        d = Dataset(features=x, targets=outputs)
        assert training_error(state, d) == 0.0

    def test_zero_weights_vs_one_hot(self):
        cfg = MlpConfig(n_inputs=4, n_hidden=3, n_outputs=3, init_half_width=0.0)
        state = init_weights(cfg, 0)
        d = tiny_dataset(n_rows=6, n_features=4, n_outputs=3)
        assert training_error(state, d) == pytest.approx(0.25, abs=1e-15)

    def test_hand_computed_two_patterns(self):
        cfg = MlpConfig(n_inputs=2, n_hidden=2, n_outputs=2, init_half_width=0.8)
        state = init_weights(cfg, 21)
        x = np.array([[0.2, 0.9], [0.6, 0.1]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        total = 0.0
        for row, target in zip(x, y):
            out = naive_forward(state, row)
            for o, t in zip(out, target):
                total += (o - t) ** 2
        expected = total / 4.0
        d = Dataset(features=x, targets=y)
        assert training_error(state, d) == pytest.approx(expected, abs=1e-12)

    def test_empty_dataset(self):
        cfg = MlpConfig(n_inputs=2, n_hidden=2, n_outputs=2)
        state = init_weights(cfg, 0)
        d = Dataset(features=np.zeros((0, 2)), targets=np.zeros((0, 2)))
        with pytest.raises(InsufficientDataError):
            training_error(state, d)


class TestTrainEpoch:
    def test_zero_learning_rate_keeps_state(self):
        cfg = MlpConfig(n_inputs=4, n_hidden=3, n_outputs=2)
        state = init_weights(cfg, 5)
        d = tiny_dataset(n_rows=4, n_features=4, n_outputs=2)
        after = train_epoch(state, d, learning_rate=0.0)
        assert np.array_equal(after.w_hidden, state.w_hidden)
        assert np.array_equal(after.b_out, state.b_out)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        for trial in range(3):
            cfg = MlpConfig(
                n_inputs=int(rng.integers(2, 6)),
                n_hidden=int(rng.integers(1, 5)),
                n_outputs=int(rng.integers(1, 4)),
                init_half_width=1.0,
            )
            state = init_weights(cfg, int(rng.integers(0, 1000)))
            d = tiny_dataset(
                n_rows=int(rng.integers(1, 6)),
                n_features=cfg.n_inputs,
                n_outputs=cfg.n_outputs,
                seed=trial,
            )
            analytic = backprop_gradients(state, d)
            numeric = finite_difference_gradients(state, d)
            for a, n in zip(analytic, numeric):
                assert np.max(np.abs(a - n)) <= 1e-6

    def test_non_finite_gradient_raises(self):
        # inf * 0 on a zero input column makes every gradient NaN.
        cfg = MlpConfig(n_inputs=3, n_hidden=2, n_outputs=2)
        state = init_weights(cfg, 11)
        state.w_hidden[:, 0] = np.inf
        d = tiny_dataset(n_rows=4, n_features=3, n_outputs=2, seed=2)
        d.features[:, 0] = 0.0
        with pytest.raises(DivergenceError, match="non-finite gradient"):
            train_epoch(state, d, learning_rate=1e-3)

    def test_descent_property_small_lr(self):
        cfg = MlpConfig(n_inputs=3, n_hidden=2, n_outputs=2)
        state = init_weights(cfg, 11)
        d = tiny_dataset(n_rows=4, n_features=3, n_outputs=2, seed=2)
        e0 = training_error(state, d)
        s1 = train_epoch(state, d, learning_rate=1e-3)
        e1 = training_error(s1, d)
        s2 = train_epoch(s1, d, learning_rate=1e-3)
        e2 = training_error(s2, d)
        assert e1 <= e0
        assert e2 <= e1


class TestTrainUntil:
    """One training run at the config's cap: `MlpProcess.attempt(seed, cfg.max_epochs)`."""

    def test_threshold_above_initial_error_converges_at_one(self):
        cfg = MlpConfig(
            n_inputs=4,
            n_hidden=3,
            n_outputs=2,
            init_half_width=0.0,
            target_error=0.3,
            max_epochs=100,
            learning_rate=0.1,
        )
        rec = MlpProcess(cfg, tiny_dataset(n_rows=5, n_features=4)).attempt(0, cfg.max_epochs)
        assert rec.converged and rec.epochs == 1
        assert rec.final_error <= 0.3

    def test_censoring_at_max_epochs(self):
        cfg = MlpConfig(
            n_inputs=4, n_hidden=3, n_outputs=2, target_error=1e-9, max_epochs=1
        )
        rec = MlpProcess(cfg, tiny_dataset(n_rows=5, n_features=4)).attempt(0, cfg.max_epochs)
        assert not rec.converged and rec.epochs == 1 and not rec.diverged

    def test_deterministic(self):
        cfg = MlpConfig(
            n_inputs=4, n_hidden=3, n_outputs=2, target_error=0.05, max_epochs=500,
            learning_rate=2.0,
        )
        d = tiny_dataset(n_rows=8, n_features=4)
        process = MlpProcess(cfg, d)
        assert process.attempt(3, cfg.max_epochs) == process.attempt(3, cfg.max_epochs)

    def test_matches_repeated_train_epoch(self):
        cfg = MlpConfig(
            n_inputs=4, n_hidden=2, n_outputs=2, target_error=0.08, max_epochs=2000,
            learning_rate=5.0,
        )
        d = tiny_dataset(n_rows=6, n_features=4)
        rec = MlpProcess(cfg, d).attempt(12, cfg.max_epochs)
        state = init_weights(cfg, 12)
        errors = []
        for _ in range(rec.epochs):
            state = train_epoch(state, d, cfg.learning_rate)
            errors.append(training_error(state, d))
        assert errors[-1] == rec.final_error
        if rec.converged and rec.epochs > 1:
            # Monotone stop: the epoch before convergence was above target.
            assert errors[-2] > cfg.target_error
        assert rec.converged == (errors[-1] <= cfg.target_error)

    def test_momentum_runs_and_differs(self):
        d = tiny_dataset(n_rows=6, n_features=4)
        base = MlpConfig(
            n_inputs=4, n_hidden=3, n_outputs=2, target_error=1e-9, max_epochs=50,
            learning_rate=1.0,
        )
        plain = MlpProcess(base, d).attempt(4, base.max_epochs)
        from dataclasses import replace

        speedy = MlpProcess(replace(base, momentum=0.9), d).attempt(4, base.max_epochs)
        assert plain.final_error != speedy.final_error

    def test_seed_changes_trajectory(self):
        cfg = MlpConfig(
            n_inputs=4, n_hidden=3, n_outputs=2, target_error=1e-9, max_epochs=20
        )
        d = tiny_dataset(n_rows=6, n_features=4)
        a = MlpProcess(cfg, d).attempt(1, cfg.max_epochs)
        b = MlpProcess(cfg, d).attempt(2, cfg.max_epochs)
        assert a.final_error != b.final_error


class TestMlpProcess:
    def test_cap_and_describe(self):
        d = tiny_dataset(n_rows=5, n_features=4, n_outputs=2)
        cfg = MlpConfig(n_inputs=4, n_hidden=2, n_outputs=2, max_epochs=300)
        proc = MlpProcess(cfg=cfg, data=d)
        assert proc.cap == 300
        assert "hidden=2" in proc.describe() and "rows=5" in proc.describe()

    def test_attempt_cutoff_contract(self):
        # Converging at e under one cutoff implies the same e under any
        # larger cutoff (trajectories are cutoff-independent).
        d = tiny_dataset(n_rows=6, n_features=4, n_outputs=2, seed=1)
        cfg = MlpConfig(
            n_inputs=4, n_hidden=3, n_outputs=2, target_error=0.09,
            learning_rate=5.0, max_epochs=5000,
        )
        proc = MlpProcess(cfg=cfg, data=d)
        rec = proc.attempt(seed=8, cutoff=5000)
        assert rec.converged, "pick a seed that converges for this test"
        for cutoff in (rec.epochs, rec.epochs + 10, 5000):
            again = proc.attempt(seed=8, cutoff=cutoff)
            assert again.converged and again.epochs == rec.epochs
        below = proc.attempt(seed=8, cutoff=rec.epochs - 1)
        assert not below.converged and below.epochs == rec.epochs - 1

    # On tiny_dataset(6, 4), seeds 0-3 converge within 81 epochs under
    # CONVERGING (momentum 0 or 0.5); seeds 0 and 2 diverge within 123
    # under DIVERGING (as in the divergence test below). Drawn cutoffs go
    # past those epochs.
    CONVERGING = MlpConfig(
        n_inputs=4, n_hidden=3, n_outputs=2, learning_rate=5.0,
        target_error=0.09, max_epochs=10,
    )
    DIVERGING = replace(CONVERGING, learning_rate=1e308, momentum=0.99, target_error=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 3),
        cutoffs=st.lists(st.integers(1, 160), min_size=1, max_size=6),
        momentum=st.sampled_from([0.0, 0.5]),
        diverging=st.booleans(),
    )
    @example(seed=0, cutoffs=[5, 39, 38, 1], momentum=0.0, diverging=False)
    @example(seed=1, cutoffs=[300, 3, 1], momentum=0.5, diverging=False)
    @example(seed=0, cutoffs=[2, 122, 123, 300], momentum=0.0, diverging=True)
    def test_attempts_obey_prefix_contract(self, seed, cutoffs, momentum, diverging):
        # strategies.run_schedules reads every shorter cutoff of a seed from
        # its attempt at the longest one; each must equal a fresh attempt.
        cfg = self.DIVERGING if diverging else replace(self.CONVERGING, momentum=momentum)
        d = tiny_dataset(n_rows=6, n_features=4)
        process = MlpProcess(cfg=cfg, data=d)
        longest = process.attempt(seed, max(cutoffs))
        for cutoff in cutoffs:
            rec = process.attempt(seed, cutoff)
            fresh = alloc_train_until(replace(cfg, max_epochs=cutoff), d, seed)
            assert record_bits(rec) == record_bits(fresh)
            if longest.epochs <= cutoff:
                assert record_bits(rec) == record_bits(longest)
            else:
                assert (rec.epochs, rec.converged, rec.diverged) == (cutoff, False, False)

    def test_reaches_terminal_epochs(self):
        # The configs above do stop early, so the examples cover cutoffs
        # past convergence and past divergence.
        d = tiny_dataset(n_rows=6, n_features=4)
        converged = MlpProcess(self.CONVERGING, d).attempt(0, 5000)
        diverged = MlpProcess(self.DIVERGING, d).attempt(0, 300)
        assert converged.converged and converged.epochs == 39
        assert diverged.diverged and diverged.epochs == 123

    @pytest.mark.parametrize(
        "cutoff, message",
        [
            (0, "cutoff must be >= 1, got 0"),
            (2**63, r"cutoff must be <= 2\*\*63 - 1, got 9223372036854775808"),
        ],
        ids=["zero", "past_max_cap"],
    )
    def test_rejects_cutoff_out_of_range(self, cutoff, message):
        # The target lies above the initial error, so an attempt that got
        # past the check would stop at epoch 1 instead of training.
        process = MlpProcess(replace(self.CONVERGING, target_error=10.0), tiny_dataset())
        with pytest.raises(ValueError, match=message):
            process.attempt(0, cutoff)


class TestAttemptMany:
    """A block trained in lockstep gives, for every seed, the allocating
    reference's record for that seed alone, bit for bit."""

    @staticmethod
    def config(n_hidden, n_outputs, momentum, cutoff):
        # momentum None is the diverging config of TestBitIdentity.
        cfg = MlpConfig(
            n_inputs=4, n_hidden=n_hidden, n_outputs=n_outputs, learning_rate=5.0,
            momentum=momentum or 0.0, target_error=0.09, max_epochs=cutoff,
        )
        if momentum is None:
            cfg = replace(cfg, learning_rate=1e308, momentum=0.99, target_error=1e-9)
        return cfg

    # On tiny_dataset(6, 4, outputs 2..5) seeds 0-7 converge anywhere from
    # epoch 4 to past 150, are censored or (diverging config) diverge from
    # epoch 44 on, so stacks drop runs at many different epochs.
    @settings(max_examples=200, deadline=None)
    @given(
        n_hidden=st.integers(1, 5),
        n_outputs=st.integers(1, 5),
        momentum=st.sampled_from([0.0, 0.5, 0.9, None]),
        stack_runs=st.sampled_from([1, 2, 3, 16]),
        seeds=st.lists(st.integers(0, 7), max_size=12),
        cutoff=st.integers(1, 150),
        data_seed=st.integers(0, 3),
    )
    @example(n_hidden=1, n_outputs=2, momentum=None, stack_runs=3,
             seeds=[0, 1, 6, 0, 7, 6], cutoff=150, data_seed=0)
    @example(n_hidden=3, n_outputs=5, momentum=0.9, stack_runs=2,
             seeds=[3, 0, 6, 1, 3, 2, 4], cutoff=140, data_seed=0)
    @example(n_hidden=5, n_outputs=1, momentum=0.5, stack_runs=16,
             seeds=list(range(8)) * 2 + [2], cutoff=7, data_seed=0)
    def test_matches_one_seed_reference(
        self, n_hidden, n_outputs, momentum, stack_runs, seeds, cutoff, data_seed
    ):
        cfg = self.config(n_hidden, n_outputs, momentum, cutoff)
        d = tiny_dataset(6, 4, n_outputs, seed=data_seed)
        process = MlpProcess(cfg, d)
        with mock.patch.object(mlp, "_STACK_RUNS", stack_runs):
            got = process.attempt_many(seeds, cutoff)
        want = [alloc_train_until(cfg, d, s) for s in seeds]
        assert list(map(record_bits, got)) == list(map(record_bits, want))

    def test_examples_reach_every_outcome(self):
        # The first example above mixes diverged and censored runs of
        # different lengths, and repeated seeds, in a stack narrower than
        # its block.
        cfg = self.config(1, 2, None, 150)
        recs = MlpProcess(cfg, tiny_dataset(6, 4, 2)).attempt_many([0, 1, 6, 0, 7, 6], 150)
        assert [(r.epochs, r.converged, r.diverged) for r in recs] == [
            (59, False, True), (150, False, False), (113, False, True),
            (59, False, True), (150, False, False), (113, False, True),
        ]

    def test_empty_block_and_cutoff_check(self):
        process = MlpProcess(self.config(3, 2, 0.0, 10), tiny_dataset(6, 4))
        assert process.attempt_many([], 5) == []
        for call in (lambda: process.attempt(0, 0), lambda: process.attempt_many([0, 1], 0)):
            with pytest.raises(ValueError, match="cutoff must be >= 1, got 0"):
                call()


class TestBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(
        n_rows=st.integers(1, 40),
        n_inputs=st.integers(1, 5),
        n_hidden=st.integers(1, 5),
        n_outputs=st.integers(1, 5),
        momentum=st.sampled_from([0.0, 0.5]),
        learning_rate=st.sampled_from([0.5, 5.0, 80.0]),
        target_error=st.sampled_from([0.01, 0.05, 0.15]),
        seed=st.integers(0, 2**64 - 1),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_allocating_epoch(
        self, n_rows, n_inputs, n_hidden, n_outputs, momentum, learning_rate,
        target_error, seed, data_seed,
    ):
        cfg = MlpConfig(
            n_inputs=n_inputs, n_hidden=n_hidden, n_outputs=n_outputs,
            learning_rate=learning_rate, momentum=momentum,
            target_error=target_error, max_epochs=60,
        )
        d = tiny_dataset(n_rows, n_inputs, n_outputs, seed=data_seed)
        assert record_bits(MlpProcess(cfg, d).attempt(seed, cfg.max_epochs)) == record_bits(
            alloc_train_until(cfg, d, seed)
        )
        state = init_weights(cfg, seed)
        hidden, output = alloc_forward(state, d.features)
        grads = alloc_gradients(state, d.features, d.targets, hidden, output)
        mse = float(np.mean((output - d.targets) ** 2))
        assert training_error(state, d).hex() == mse.hex()
        x0 = d.features[0]
        assert same_bits(forward(state, x0), alloc_forward(state, x0[None, :])[1][0])
        assert all(map(same_bits, backprop_gradients(state, d), grads))
        stepped = train_epoch(state, d, learning_rate)
        for new, old, g in zip(
            (stepped.w_hidden, stepped.b_hidden, stepped.w_out, stepped.b_out),
            (state.w_hidden, state.b_hidden, state.w_out, state.b_out),
            grads,
        ):
            assert same_bits(new, old - learning_rate * g)

    def test_divergence_matches_allocating_epoch(self):
        # Momentum near 1 accumulates steps of lr*g ~ 1e306 until a weight
        # overflows to inf and inf - inf turns the error into NaN.
        cfg = MlpConfig(
            n_inputs=4, n_hidden=3, n_outputs=2, learning_rate=1e308,
            momentum=0.99, target_error=1e-9, max_epochs=300,
        )
        d = tiny_dataset(n_rows=6, n_features=4)
        rec = MlpProcess(cfg, d).attempt(0, cfg.max_epochs)
        assert rec.diverged and rec.epochs < cfg.max_epochs
        assert record_bits(rec) == record_bits(alloc_train_until(cfg, d, 0))


class TestColumnSums:
    @pytest.mark.parametrize("width", range(1, 9))
    def test_bit_equal_to_axis_zero_sum(self, width):
        rng = np.random.default_rng(width)
        for rows in (1, 2, 3, 4, 7, 8, 9, 16, 17, 31, 100, 1000, 4000):
            for runs in (1, 3):
                a = rng.standard_normal((runs, rows, width)) * 10.0 ** rng.uniform(
                    -6, 6, size=(runs, rows, width)
                )
                out = np.empty((runs, width))
                assert _column_sums(a, out) is out
                for k in range(runs):
                    assert same_bits(out[k], a[k].sum(axis=0)), (rows, width, k)
