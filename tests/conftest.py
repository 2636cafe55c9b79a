"""Shared stubs and builders for the test suite."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from restartkit import Dataset, LasVegasProcess, RunBlock, RunRecord, RunSample


def reference_record_line(r: RunRecord) -> str:
    """A run-log record line as `json.dumps` writes it, the writer's oracle."""
    obj: dict = {
        "seed": r.seed,
        "epochs": r.epochs,
        "converged": r.converged,
        "final_error": r.final_error,
    }
    if r.diverged:
        obj["diverged"] = True
    return json.dumps(obj, separators=(",", ":"))


def block_of(records: list[RunRecord], epochs_dtype=np.int64) -> RunBlock:
    """The `attempt_many` result whose row i is records[i]."""
    return RunBlock(
        np.array([r.epochs for r in records], dtype=epochs_dtype),
        np.array([r.converged for r in records], dtype=bool),
        np.array([r.final_error for r in records], dtype=np.float64),
        np.array([r.diverged for r in records], dtype=bool),
    )


@dataclass(frozen=True)
class FormulaStub(LasVegasProcess):
    """Deterministic process: converges at epoch (seed mod modulus) + 1."""

    modulus: int = 7
    cap_epochs: int = 1000

    @property
    def cap(self) -> int:
        return self.cap_epochs

    def describe(self) -> str:
        return f"formula-stub(mod={self.modulus})"

    def attempt_many(self, seeds: list[int], cutoff: int) -> RunBlock:
        records = []
        for seed in seeds:
            t = (seed % self.modulus) + 1
            if t <= cutoff:
                records.append(RunRecord(seed=seed, epochs=t, converged=True, final_error=0.0))
            else:
                records.append(
                    RunRecord(seed=seed, epochs=cutoff, converged=False, final_error=1.0)
                )
        return block_of(records)


@dataclass(frozen=True)
class ParityStub(LasVegasProcess):
    """Converges at epoch 1 iff the seed is even, otherwise censors."""

    cap_epochs: int = 1000

    @property
    def cap(self) -> int:
        return self.cap_epochs

    def describe(self) -> str:
        return "parity-stub"

    def attempt_many(self, seeds: list[int], cutoff: int) -> RunBlock:
        return block_of(
            [
                RunRecord(seed=seed, epochs=1, converged=True, final_error=0.0)
                if seed % 2 == 0
                else RunRecord(seed=seed, epochs=cutoff, converged=False, final_error=1.0)
                for seed in seeds
            ]
        )


def sample_of(records: list[RunRecord], cap: int, metadata: str = "") -> RunSample:
    """The sample whose runs are `records`, in order. Its epochs column is
    object, so an epochs value past int64 reaches the sample's check."""
    return RunSample([r.seed for r in records], block_of(records, object), cap, metadata)


def runs_of(epochs, converged) -> RunBlock:
    """Runs of the given epochs: error 0 if converged, else 1; none diverged."""
    converged = np.asarray(converged, dtype=bool)
    return RunBlock(
        np.asarray(epochs, dtype=np.int64),
        converged,
        np.where(converged, 0.0, 1.0),
        np.zeros(converged.size, dtype=bool),
    )


def make_sample(epochs, cap=10_000, censored=0) -> RunSample:
    """RunSample with the given converged epochs (seeds 0, 1, ...) plus
    censored runs at cap (seeds 10000, 10001, ...)."""
    epochs = [int(e) for e in epochs]
    seeds = [*range(len(epochs)), *range(10_000, 10_000 + censored)]
    runs = runs_of(epochs + [cap] * censored, [True] * len(epochs) + [False] * censored)
    return RunSample(seeds, runs, cap, "test")


def sample_from_times(times: np.ndarray, cap: int) -> RunSample:
    """Bulk RunSample from an array of drawn completion times: run i has
    seed i, converged at times[i] if within cap, else censored at cap."""
    times = np.asarray(times, dtype=np.int64)
    converged = times <= cap
    runs = runs_of(np.where(converged, times, cap), converged)
    return RunSample(range(times.size), runs, cap, "from-times")


def tiny_dataset(n_rows=5, n_features=4, n_outputs=2, seed=0) -> Dataset:
    """Small random dataset with one-hot targets for gradient checks."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n_rows, n_features))
    labels = rng.integers(0, n_outputs, size=n_rows)
    y = np.zeros((n_rows, n_outputs))
    y[np.arange(n_rows), labels] = 1.0
    return Dataset(features=x, targets=y)


@pytest.fixture
def thyroid_like_file(tmp_path):
    """A tiny ann-format file: 3 patterns, easily classifiable."""
    lines = []
    rng = np.random.default_rng(99)
    for label in (1, 2, 3):
        vals = [f"{v:.4f}" for v in rng.uniform(0, 1, size=21)]
        lines.append(" ".join(vals + [str(label)]))
    path = tmp_path / "mini-train.data"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
