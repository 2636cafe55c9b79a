import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restartkit import (
    Dataset,
    InsufficientDataError,
    ParseError,
    kfold_split,
    load_thyroid,
    save_thyroid,
    scale_min_max,
)

from conftest import tiny_dataset


def write_lines(tmp_path, lines, name="data.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def ann_line(values, label):
    return " ".join(str(v) for v in values) + f" {label}"


class TestLoadThyroid:
    def test_direct_encoding(self, tmp_path):
        values = [0.5, 0.0, 1.0] + [0.01 * i for i in range(17)] + [0.02]
        path = write_lines(tmp_path, [ann_line(values, 3)])
        data = load_thyroid(path)
        assert data.n_rows == 1
        assert data.features[0].tolist() == pytest.approx(values)
        assert data.targets[0].tolist() == [0.0, 0.0, 1.0]

    def test_labels_map_to_columns(self, tmp_path):
        rows = [ann_line([0.1] * 21, label) for label in (1, 2, 3)]
        data = load_thyroid(write_lines(tmp_path, rows))
        assert data.targets.tolist() == [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]

    def test_one_hot_invariant(self, tmp_path):
        rows = [ann_line([float(i)] * 21, (i % 3) + 1) for i in range(12)]
        data = load_thyroid(write_lines(tmp_path, rows))
        assert np.all(data.targets.sum(axis=1) == 1.0)
        assert np.all((data.targets == 0.0) | (data.targets == 1.0))

    def test_wrong_field_count_names_line(self, tmp_path):
        good = ann_line([0.1] * 21, 1)
        bad = " ".join(["0.1"] * 20)  # 19 attrs + label
        path = write_lines(tmp_path, [good, bad])
        with pytest.raises(ParseError, match="line 2"):
            load_thyroid(path)

    def test_non_numeric_token(self, tmp_path):
        bad = ann_line(["x"] + [0.1] * 20, 1)
        with pytest.raises(ParseError, match="line 1"):
            load_thyroid(write_lines(tmp_path, [bad]))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_attribute_names_line(self, tmp_path, token):
        # float() accepts these; a NaN column would be zeroed by scaling and
        # an infinite one would make every run diverge at epoch 1.
        good = ann_line([0.1] * 21, 1)
        bad = ann_line([0.1] * 20 + [token], 2)
        path = write_lines(tmp_path, [good, bad])
        with pytest.raises(ParseError, match=r"line 2: non-finite field$"):
            load_thyroid(path)

    @pytest.mark.parametrize("label", ["0", "4", "2.5"])
    def test_label_out_of_range(self, tmp_path, label):
        with pytest.raises(ParseError, match="label"):
            load_thyroid(write_lines(tmp_path, [ann_line([0.1] * 21, label)]))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.data"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InsufficientDataError):
            load_thyroid(path)

    def test_blank_lines_ignored(self, tmp_path):
        rows = [ann_line([0.1] * 21, 1), "", ann_line([0.2] * 21, 2)]
        data = load_thyroid(write_lines(tmp_path, rows))
        assert data.n_rows == 2

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(20, 21))
        labels = rng.integers(0, 3, size=20)
        y = np.zeros((20, 3))
        y[np.arange(20), labels] = 1.0
        original = Dataset(features=x, targets=y)
        path = tmp_path / "rt.data"
        save_thyroid(original, path)
        loaded = load_thyroid(path)
        assert np.array_equal(loaded.features, original.features)
        assert np.array_equal(loaded.targets, original.targets)
        # Loading what we saved and saving again is byte-stable.
        path2 = tmp_path / "rt2.data"
        save_thyroid(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_real_ann_train_row_count(self):
        # The UCI distribution of ann-train.data has 3772 patterns; run the
        # check when a local copy is available.
        path = os.environ.get("RESTARTKIT_THYROID_DATA")
        if not path or not os.path.exists(path):
            pytest.skip("set RESTARTKIT_THYROID_DATA to the real ann-train.data")
        data = load_thyroid(path)
        assert data.n_rows == 3772
        assert data.n_features == 21

    def test_bundled_case_study_file_parses(self):
        path = os.path.join(os.path.dirname(__file__), "..", "data", "thyroidlike-train.data")
        data = load_thyroid(path)
        assert data.n_rows == 1000
        assert data.n_features == 21


class TestScaleMinMax:
    def test_affine_map(self):
        d = Dataset(
            features=np.array([[2.0], [4.0], [6.0]]),
            targets=np.array([[1.0], [1.0], [1.0]]),
        )
        scaled = scale_min_max(d)
        assert scaled.features[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        d = Dataset(
            features=np.array([[7.0], [7.0], [7.0]]),
            targets=np.ones((3, 1)),
        )
        assert scale_min_max(d).features[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_identity_on_unit_extremes(self):
        d = Dataset(features=np.array([[0.0], [1.0]]), targets=np.ones((2, 1)))
        assert scale_min_max(d).features[:, 0].tolist() == [0.0, 1.0]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 50, size=(8, 4))
        x[:, 2] = 3.25  # keep one constant column in play
        d = Dataset(features=x, targets=np.ones((8, 1)))
        once = scale_min_max(d)
        assert np.all(once.features >= 0.0) and np.all(once.features <= 1.0)
        twice = scale_min_max(once)
        assert np.array_equal(once.features, twice.features)

    def test_empty_dataset_rejected(self):
        d = Dataset(features=np.zeros((0, 3)), targets=np.zeros((0, 2)))
        with pytest.raises(InsufficientDataError):
            scale_min_max(d)

    # The masked formula `scale_min_max` once spelled out, as the oracle of
    # its bits: constant columns stay +0.0, the others are (x - min) / span.
    @staticmethod
    def masked_formula(x):
        mins = x.min(axis=0)
        span = x.max(axis=0) - mins
        scaled = np.zeros_like(x)
        nonconst = span > 0.0
        scaled[:, nonconst] = (x[:, nonconst] - mins[nonconst]) / span[nonconst]
        return scaled

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n_rows", [1, 2, 17])
    def test_bits_equal_masked_formula(self, seed, n_rows):
        rng = np.random.default_rng(seed)
        signed_zeros = rng.choice([0.0, -0.0], size=n_rows)
        columns = [
            rng.normal(0.0, 50.0, n_rows),
            np.full(n_rows, 3.25),  # constant
            np.full(n_rows, -0.0),  # constant at -0.0
            signed_zeros,  # +0.0 and -0.0 are one value: constant
            np.where(rng.random(n_rows) < 0.5, signed_zeros, 1.0),  # min may be -0.0
            -rng.uniform(1.0, 1e6, n_rows),  # negative
            rng.uniform(-1e307, 1e307, n_rows),  # huge magnitude
            rng.uniform(0.0, 1.0, n_rows) * 5e-324,  # subnormal
            rng.integers(-3, 3, n_rows).astype(float),  # ties
        ]
        x = np.column_stack(columns)
        d = Dataset(features=x, targets=np.ones((n_rows, 1)))
        assert scale_min_max(d).features.tobytes() == self.masked_formula(x).tobytes()


class TestKfoldSplit:
    def test_leave_one_out_structure(self):
        splits = kfold_split(10, 10, seed=0)
        assert len(splits) == 10
        test_sets = [set(s.test_indices.tolist()) for s in splits]
        assert all(len(ts) == 1 for ts in test_sets)
        assert set().union(*test_sets) == set(range(10))

    def test_near_equal_sizes(self):
        splits = kfold_split(10, 3, seed=1)
        sizes = sorted(len(s.test_indices) for s in splits)
        assert sizes == [3, 3, 4]

    def test_deterministic(self):
        a = kfold_split(50, 7, seed=42)
        b = kfold_split(50, 7, seed=42)
        for s, t in zip(a, b):
            assert np.array_equal(s.train_indices, t.train_indices)
            assert np.array_equal(s.test_indices, t.test_indices)

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, n_rows, k, seed):
        if k > n_rows:
            k = n_rows
        splits = kfold_split(n_rows, k, seed)
        all_test = np.concatenate([s.test_indices for s in splits])
        assert sorted(all_test.tolist()) == list(range(n_rows))
        for s in splits:
            assert set(s.train_indices) & set(s.test_indices) == set()
            assert len(s.train_indices) + len(s.test_indices) == n_rows
        sizes = [len(s.test_indices) for s in splits]
        assert max(sizes) - min(sizes) <= 1

    # The loop `kfold_split` once cut its permutation with, as the oracle of
    # the indices that `--folds/--fold` trains on.
    @staticmethod
    def hand_cut(n_rows, k, seed):
        perm = np.random.default_rng(seed).permutation(n_rows)
        base, extra = divmod(n_rows, k)
        splits = []
        start = 0
        for i in range(k):
            size = base + (1 if i < extra else 0)
            test = np.sort(perm[start : start + size])
            train = np.sort(np.concatenate([perm[:start], perm[start + size :]]))
            splits.append((train.astype(np.int64), test.astype(np.int64)))
            start += size
        return splits

    @given(
        st.integers(min_value=2, max_value=500).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=2, max_value=n))
        ),
        st.sampled_from([0, 2**64 - 1]) | st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    @example((2, 2), 0)
    @example((500, 500), 2**64 - 1)
    @example((500, 7), 0)
    @example((1000, 5), 5)
    def test_indices_equal_hand_cut(self, shape, seed):
        n_rows, k = shape
        splits = kfold_split(n_rows, k, seed)
        assert len(splits) == k
        for split, (train, test) in zip(splits, self.hand_cut(n_rows, k, seed)):
            for got, want in ((split.train_indices, train), (split.test_indices, test)):
                assert got.dtype == np.int64
                assert np.array_equal(got, want)
                assert np.all(np.diff(got) > 0)

    @pytest.mark.parametrize("n_rows,k", [(10, 1), (10, 11), (5, 0)])
    def test_rejects_bad_k(self, n_rows, k):
        with pytest.raises(ValueError):
            kfold_split(n_rows, k, seed=0)


class TestSubset:
    def test_subset_rows(self):
        d = tiny_dataset(n_rows=6)
        sub = d.subset(np.array([0, 2, 4]))
        assert sub.n_rows == 3
        assert np.array_equal(sub.features, d.features[[0, 2, 4]])
        assert np.array_equal(sub.targets, d.targets[[0, 2, 4]])
        assert not np.shares_memory(sub.features, d.features)
        assert not np.shares_memory(sub.targets, d.targets)
