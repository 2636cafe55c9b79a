"""Shared stubs and builders for the test suite."""

from dataclasses import dataclass

import numpy as np
import pytest

from restartkit import Dataset, LasVegasProcess, RunRecord, RunSample


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

    def attempt_many(self, seeds: list[int], cutoff: int) -> list[RunRecord]:
        records = []
        for seed in seeds:
            t = (seed % self.modulus) + 1
            if t <= cutoff:
                records.append(RunRecord(seed=seed, epochs=t, converged=True, final_error=0.0))
            else:
                records.append(
                    RunRecord(seed=seed, epochs=cutoff, converged=False, final_error=1.0)
                )
        return records


@dataclass(frozen=True)
class ParityStub(LasVegasProcess):
    """Converges at epoch 1 iff the seed is even, otherwise censors."""

    cap_epochs: int = 1000

    @property
    def cap(self) -> int:
        return self.cap_epochs

    def describe(self) -> str:
        return "parity-stub"

    def attempt_many(self, seeds: list[int], cutoff: int) -> list[RunRecord]:
        return [
            RunRecord(seed=seed, epochs=1, converged=True, final_error=0.0)
            if seed % 2 == 0
            else RunRecord(seed=seed, epochs=cutoff, converged=False, final_error=1.0)
            for seed in seeds
        ]


def make_sample(epochs, cap=10_000, censored=0) -> RunSample:
    """RunSample with the given converged epochs plus censored runs at cap."""
    records = [
        RunRecord(seed=i, epochs=int(e), converged=True, final_error=0.0)
        for i, e in enumerate(epochs)
    ]
    records += [
        RunRecord(seed=10_000 + j, epochs=cap, converged=False, final_error=1.0)
        for j in range(censored)
    ]
    return RunSample(records=records, cap=cap, metadata="test")


def sample_from_times(times: np.ndarray, cap: int) -> RunSample:
    """Bulk RunSample from an array of drawn completion times."""
    records = []
    for i, t in enumerate(np.asarray(times)):
        t = int(t)
        if t <= cap:
            records.append(
                RunRecord(seed=i, epochs=t, converged=True, final_error=0.0)
            )
        else:
            records.append(
                RunRecord(seed=i, epochs=cap, converged=False, final_error=1.0)
            )
    return RunSample(records=records, cap=cap, metadata="from-times")


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
