"""Tests for the decision tree, scalers, and train/test splitting."""

import numpy as np
import pytest

from repro.ml import DecisionTreeRegressor, MinMaxScaler, train_test_split
from repro.ml.tree import SortedColumns


class TestDecisionTree:
    def test_fits_piecewise_constant_function(self, rng):
        X = rng.uniform(size=(400, 1))
        y = np.where(X[:, 0] > 0.5, 2.0, -1.0)
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        predictions = tree.predict(X)
        assert np.abs(predictions - y).max() < 1e-9

    def test_depth_one_is_a_stump(self, rng):
        X = rng.uniform(size=(200, 3))
        y = X[:, 1]
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree.n_leaves_ <= 2

    def test_respects_min_samples_leaf(self, rng):
        X = rng.uniform(size=(100, 2))
        y = rng.normal(size=100)
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=40).fit(X, y)
        leaf_ids = tree.apply(X)
        _, counts = np.unique(leaf_ids, return_counts=True)
        assert counts.min() >= 40

    def test_sample_weight_changes_fit(self, rng):
        X = np.vstack([np.zeros((50, 1)), np.ones((50, 1))])
        y = np.concatenate([np.zeros(50), np.ones(50)])
        weights = np.concatenate([np.full(50, 1e-6), np.full(50, 1.0)])
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y, sample_weight=weights)
        # With almost all weight on the y=1 group, the root prediction is ~1.
        assert tree.value_[0] > 0.9

    def test_apply_and_set_leaf_values(self, rng):
        X = rng.uniform(size=(100, 2))
        y = rng.normal(size=100)
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        leaves = np.unique(tree.apply(X))
        np.testing.assert_array_equal(leaves, np.flatnonzero(tree.feature_ == -1))
        tree.value_[leaves] = 7.0
        np.testing.assert_allclose(tree.predict(X), 7.0)

    def test_constant_target_single_leaf(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        tree = DecisionTreeRegressor(max_depth=5).fit(X, np.ones(20))
        assert tree.n_leaves_ == 1

    def test_max_features_sqrt(self, rng):
        X = rng.uniform(size=(200, 16))
        y = X[:, 0] * 2
        tree = DecisionTreeRegressor(max_depth=3, max_features="sqrt", random_state=0).fit(X, y)
        assert tree.predict(X).shape == (200,)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.ones((2, 2)))
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.ones((3, 2)), np.ones(3), sample_weight=-np.ones(3))
        for max_features in (0, -1, "log2", 1.5, True, "SQRT"):
            with pytest.raises(ValueError, match="max_features"):
                DecisionTreeRegressor(max_features=max_features)
        for max_features in (None, "sqrt", 1, np.int64(3)):
            DecisionTreeRegressor(max_features=max_features)
        X, y = np.random.default_rng(0).uniform(size=(20, 3)), np.arange(20.0)
        for weights in (np.ones(1), np.ones(19), np.ones((20, 1))):
            with pytest.raises(ValueError, match="sample_weight must match y"):
                DecisionTreeRegressor().fit(X, y, sample_weight=weights)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and non-negative"):
                DecisionTreeRegressor().fit(X, y, sample_weight=np.where(y == 3, bad, 1.0))

    def test_fit_sorted_rejects_rows_that_are_not_increasing_indices(self, rng):
        X, y = rng.uniform(size=(20, 3)), rng.normal(size=20)
        columns = SortedColumns(X)
        for rows in ([], [3, 1, 5], [1, 1, 2], [-1, 4], [4, 20]):
            with pytest.raises(ValueError, match="rows must be increasing"):
                DecisionTreeRegressor(max_depth=2).fit_sorted(columns, y, rows=rows)

    def test_width_mismatch_raises(self, rng):
        X = rng.uniform(size=(60, 4))
        tree = DecisionTreeRegressor(max_depth=3).fit(X, X[:, 3] - X[:, 0])
        assert tree.n_features_in_ == 4
        for width in (3, 8):
            wrong = rng.uniform(size=(5, width))
            with pytest.raises(ValueError, match="fitted on 4"):
                tree.predict(wrong)
            with pytest.raises(ValueError, match="fitted on 4"):
                tree.apply(wrong)


class TestScalers:
    def test_minmax_range(self, rng):
        X = rng.normal(loc=5, scale=3, size=(100, 4))
        scaled = MinMaxScaler().fit_transform(X)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-12)

    def test_minmax_roundtrip(self, rng):
        X = rng.normal(size=(50, 3))
        scaler = MinMaxScaler().fit(X)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-10)

    def test_minmax_constant_column(self):
        X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        scaled = MinMaxScaler().fit_transform(X)
        assert np.all(np.isfinite(scaled))

    def test_minmax_clips_out_of_range_data(self, rng):
        X = rng.uniform(size=(50, 2))
        scaler = MinMaxScaler().fit(X)
        out = scaler.transform(np.array([[10.0, -10.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0]])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.ones((2, 2)))

    def test_unfitted_inverse_transform_raises_the_same_error(self):
        # One _check_fitted guard on transform AND inverse_transform, with a
        # consistent message.
        with pytest.raises(RuntimeError, match="not fitted"):
            MinMaxScaler().inverse_transform(np.ones((2, 2)))

    def test_scalers_are_the_shared_transform_implementations(self):
        # The dedup satellite: one arithmetic implementation in repro.transforms
        # serves the sklearn-style names.
        from repro.transforms import MinMaxNumeric

        assert issubclass(MinMaxScaler, MinMaxNumeric)
        assert MinMaxScaler.transform is MinMaxNumeric.transform


class TestTrainTestSplit:
    def test_sizes(self, rng):
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, 200)
        X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.25, random_state=0)
        assert len(X_train) + len(X_test) == 200
        assert len(X_test) == pytest.approx(50, abs=2)

    def test_stratification_preserves_rare_class(self, rng):
        y = np.zeros(1000, dtype=int)
        y[:10] = 1  # 1% positives
        X = rng.normal(size=(1000, 2))
        _, X_test, _, y_test = train_test_split(X, y, test_size=0.1, stratify=True, random_state=0)
        assert y_test.sum() >= 1

    def test_no_overlap(self, rng):
        X = np.arange(100, dtype=float).reshape(-1, 1)
        y = (np.arange(100) % 2).astype(int)
        X_train, X_test, _, _ = train_test_split(X, y, test_size=0.2, random_state=1)
        assert set(X_train[:, 0]).isdisjoint(set(X_test[:, 0]))

    def test_invalid_test_size(self, rng):
        with pytest.raises(ValueError):
            train_test_split(np.ones((10, 2)), np.ones(10), test_size=1.5)
