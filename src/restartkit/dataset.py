"""UCI Thyroid ("ann") data ingestion, scaling, and k-fold splitting.

The expected file format is the one the UCI repository distributes as
ann-train.data / ann-test.data: whitespace-separated text, one pattern per
line, 21 attribute values followed by an integer class label in {1,2,3}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParseError

N_ATTRIBUTES = 21
N_CLASSES = 3


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with one-hot targets."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"features and targets row counts differ: "
                f"{self.features.shape[0]} vs {self.targets.shape[0]}"
            )

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_outputs(self) -> int:
        return int(self.targets.shape[1])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Row subset (used to train on one fold's partition)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(features=self.features[idx].copy(), targets=self.targets[idx].copy())


@dataclass(frozen=True)
class FoldSplit:
    """One train/test partition of a k-fold split."""

    train_indices: np.ndarray
    test_indices: np.ndarray


def load_thyroid(path) -> Dataset:
    """Parse an ann-format file into features and one-hot targets.

    Each line must hold 21 finite numeric attributes plus a class label in
    {1, 2, 3}; label c activates target column c - 1. No scaling is
    applied. Blank lines are ignored.
    """
    features: list[list[float]] = []
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != N_ATTRIBUTES + 1:
                raise ParseError(
                    f"{path}: line {lineno}: expected {N_ATTRIBUTES + 1} fields, "
                    f"got {len(tokens)}"
                )
            try:
                values = [float(tok) for tok in tokens]
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}: non-numeric field"
                ) from None
            label = values[-1]
            if not label.is_integer() or int(label) not in (1, 2, 3):
                raise ParseError(
                    f"{path}: line {lineno}: class label must be in {{1,2,3}}, "
                    f"got {tokens[-1]}"
                )
            if not all(map(math.isfinite, values)):
                raise ParseError(f"{path}: line {lineno}: non-finite field")
            features.append(values[:-1])
            labels.append(int(label))
    if not features:
        raise InsufficientDataError(f"{path}: no patterns found")
    x = np.array(features, dtype=np.float64)
    y = np.zeros((len(labels), N_CLASSES), dtype=np.float64)
    y[np.arange(len(labels)), np.array(labels) - 1] = 1.0
    return Dataset(features=x, targets=y)


def save_thyroid(data: Dataset, path) -> None:
    """Write a Dataset back to the ann text format (exact float round trip)."""
    labels = np.argmax(data.targets, axis=1) + 1
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(data.features, labels):
            fields = [repr(float(v)) for v in row] + [str(int(label))]
            fh.write(" ".join(fields) + "\n")


def scale_min_max(data: Dataset) -> Dataset:
    """Map every feature column affinely onto [0, 1].

    Constant columns map to 0 (the min-max denominator would vanish).
    Idempotent: scaling already-scaled data changes nothing.
    """
    if data.n_rows == 0:
        raise InsufficientDataError("cannot scale an empty dataset")
    x = data.features
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    span = maxs - mins
    scaled = np.zeros_like(x)
    nonconst = span > 0.0
    scaled[:, nonconst] = (x[:, nonconst] - mins[nonconst]) / span[nonconst]
    return Dataset(features=scaled, targets=data.targets.copy())


def kfold_split(n_rows: int, k: int, seed: int) -> list[FoldSplit]:
    """Deterministic k-fold partition of row indices.

    Rows are permuted by a generator seeded with `seed` and cut into k
    folds whose sizes differ by at most one; fold i's test set is
    partition i. Identical (n_rows, k, seed) always yields identical
    splits.
    """
    if k < 2 or k > n_rows:
        raise ValueError(f"need 2 <= k <= n_rows, got k={k}, n_rows={n_rows}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_rows)
    base, extra = divmod(n_rows, k)
    splits = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test = np.sort(perm[start : start + size])
        train = np.sort(np.concatenate([perm[:start], perm[start + size :]]))
        splits.append(FoldSplit(train.astype(np.int64), test.astype(np.int64)))
        start += size
    return splits
