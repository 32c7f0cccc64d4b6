"""Tests for the dataset simulators and registry."""

import numpy as np
import pytest

from repro.datasets import (
    DATASET_REGISTRY,
    Dataset,
    load_dataset,
    make_adult,
    make_credit,
    make_esr,
    make_fashion_mnist,
    make_isolet,
    make_mnist,
)
from repro.ml import LogisticRegression, accuracy_score, roc_auc_score


EXPECTED_SHAPES = {
    "credit": (29, 2),
    "adult": (15, 2),
    "adult_mixed": (8, 2),
    "isolet": (617, 2),
    "esr": (179, 2),
    "mnist": (784, 10),
    "fashion_mnist": (784, 10),
}


class TestShapesAndBalance:
    @pytest.mark.parametrize("name", sorted(DATASET_REGISTRY))
    def test_dimensions_match_paper(self, name):
        data = load_dataset(name, n_samples=600, random_state=0)
        expected_features, expected_classes = EXPECTED_SHAPES[name]
        assert data.n_features == expected_features
        assert data.n_classes == expected_classes
        assert data.n_samples == 600

    @pytest.mark.parametrize("name", sorted(DATASET_REGISTRY))
    def test_features_in_unit_interval(self, name):
        # Mixed-type datasets are raw by design; the [0, 1] guarantee applies
        # to their *encoded* form, asserted in TestMixedTypeSimulator.
        data = load_dataset(name, n_samples=400, random_state=0)
        if data.is_mixed_type:
            pytest.skip("raw mixed-type dataset: [0, 1] holds in encoded space")
        for split in (data.X_train, data.X_test):
            assert split.min() >= 0.0 and split.max() <= 1.0

    def test_credit_is_heavily_imbalanced(self):
        data = make_credit(n_samples=20000, random_state=0)
        assert data.positive_rate < 0.01

    def test_adult_positive_rate_near_paper(self):
        data = make_adult(n_samples=8000, random_state=0)
        assert 0.15 < data.positive_rate < 0.35

    def test_isolet_and_esr_positive_rates(self):
        assert 0.12 < make_isolet(2000, random_state=0).positive_rate < 0.27
        assert 0.12 < make_esr(2000, random_state=0).positive_rate < 0.28

    def test_image_classes_roughly_balanced(self):
        data = make_mnist(n_samples=2000, random_state=0)
        counts = np.bincount(np.concatenate([data.y_train, data.y_test]))
        assert counts.min() > 0.5 * counts.max()

    def test_split_is_stratified_and_ninety_ten(self):
        data = make_credit(n_samples=10000, random_state=0)
        assert len(data.X_test) == pytest.approx(0.1 * data.n_samples, rel=0.1)
        assert data.y_test.sum() >= 1  # rare positives present in the test split


class TestMixedTypeSimulator:
    def test_raw_table_matches_declared_schema(self):
        from repro.datasets.tabular import ADULT_MIXED_CATEGORIES

        data = load_dataset("adult_mixed", n_samples=800, random_state=0)
        assert data.is_mixed_type and data.X_train.dtype == object
        assert data.schema.names == (
            "age", "workclass", "education", "marital_status",
            "occupation", "sex", "capital_gain", "hours_per_week",
        )
        for split in (data.X_train, data.X_test):
            for name, categories in ADULT_MIXED_CATEGORIES.items():
                column = split[:, data.schema.index_of(name)]
                assert set(column) <= set(categories)
            ages = split[:, data.schema.index_of("age")].astype(float)
            assert ages.min() >= 17 and ages.max() <= 89

    def test_positive_rate_near_paper(self):
        data = load_dataset("adult_mixed", n_samples=8000, random_state=0)
        assert 0.15 < data.positive_rate < 0.35

    def test_encoded_form_is_dense_unit_interval(self):
        from repro.transforms import TableTransformer

        data = load_dataset("adult_mixed", n_samples=600, random_state=0)
        transformer = TableTransformer(data.schema).fit(data.X_train)
        for split in (data.X_train, data.X_test):
            encoded = transformer.transform(split)
            assert encoded.dtype == np.float64
            assert encoded.min() >= 0.0 and encoded.max() <= 1.0

    def test_subsample_keeps_schema_and_raw_values(self):
        data = load_dataset("adult_mixed", n_samples=800, random_state=0)
        small = data.subsample(100, random_state=3)
        assert small.schema is data.schema
        assert small.X_train.dtype == object
        assert len(small.X_train) in (100, 101)


class TestReproducibilityAndRegistry:
    def test_same_seed_same_data(self):
        a = make_esr(500, random_state=42)
        b = make_esr(500, random_state=42)
        np.testing.assert_allclose(a.X_train, b.X_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_different_seed_different_data(self):
        a = make_esr(500, random_state=1)
        b = make_esr(500, random_state=2)
        assert not np.allclose(a.X_train[: len(b.X_train)], b.X_train[: len(a.X_train)])

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("census2020")

    def test_summaries_cover_all_datasets(self):
        rows = [
            load_dataset(name, n_samples=300, random_state=0).summary()
            for name in DATASET_REGISTRY
        ]
        assert {row["name"] for row in rows} == set(DATASET_REGISTRY)
        for row in rows:
            assert row["n_samples"] == 300

    def test_dataset_summary_binary_field(self):
        data = make_adult(500, random_state=0)
        assert "positive_rate" in data.summary()
        image = make_mnist(300, random_state=0)
        assert "positive_rate" not in image.summary()

    def test_positive_rate_rejects_multiclass(self):
        with pytest.raises(ValueError):
            make_mnist(300, random_state=0).positive_rate


class TestLearnability:
    """The simulators must be learnable: real-data classifiers set the paper's
    'original' reference scores, so a classifier trained on the real simulated
    data has to beat chance comfortably."""

    @pytest.mark.parametrize("maker", [make_adult, make_esr, make_isolet])
    def test_binary_datasets_learnable(self, maker):
        data = maker(2500, random_state=0)
        model = LogisticRegression(n_iter=200).fit(data.X_train, data.y_train)
        scores = model.predict_proba(data.X_test)[:, 1]
        assert roc_auc_score(data.y_test, scores) > 0.7

    def test_credit_learnable(self):
        data = make_credit(n_samples=30000, random_state=0)
        model = LogisticRegression(n_iter=200).fit(data.X_train, data.y_train)
        scores = model.predict_proba(data.X_test)[:, 1]
        assert roc_auc_score(data.y_test, scores) > 0.8

    def test_images_learnable(self):
        data = make_mnist(n_samples=1500, random_state=0)
        model = LogisticRegression(n_iter=150, learning_rate=0.5).fit(
            data.X_train, data.y_train
        )
        accuracy = accuracy_score(data.y_test, model.predict(data.X_test))
        assert accuracy > 0.6  # 10 classes, chance is 0.1

    def test_image_classes_distinct(self):
        data = make_fashion_mnist(n_samples=1000, random_state=0)
        means = np.stack(
            [data.X_train[data.y_train == k].mean(axis=0) for k in range(10)]
        )
        distances = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
        off_diagonal = distances[~np.eye(10, dtype=bool)]
        assert off_diagonal.min() > 0.5


class TestSubsampling:
    """Trial-level subsampling plumbed through load_dataset (experiment grids)."""

    def test_load_dataset_subsample_by_count_and_fraction(self):
        full = load_dataset("credit", n_samples=2000, random_state=0)
        by_count = load_dataset("credit", n_samples=2000, random_state=0, subsample=400)
        assert len(by_count.X_train) == pytest.approx(400, abs=1)
        fraction = 400 / len(full.X_train)
        assert len(by_count.X_test) == pytest.approx(fraction * len(full.X_test), abs=2)
        by_fraction = load_dataset("credit", n_samples=2000, random_state=0, subsample=0.25)
        assert len(by_fraction.X_train) == pytest.approx(0.25 * len(full.X_train), abs=2)
        assert by_count.metadata["subsample"] == pytest.approx(fraction)

    def test_subsample_is_deterministic(self):
        a = load_dataset("credit", n_samples=2000, random_state=0, subsample=300)
        b = load_dataset("credit", n_samples=2000, random_state=0, subsample=300)
        assert np.array_equal(a.X_train, b.X_train)
        assert np.array_equal(a.y_test, b.y_test)
        c = load_dataset("credit", n_samples=2000, random_state=1, subsample=300)
        assert not np.array_equal(a.X_train, c.X_train)

    def test_subsample_is_stratified_on_rare_classes(self):
        # Simulated Kaggle Credit is ~0.2% positive: a plain random subset of
        # 400 rows would usually contain zero positives.
        data = load_dataset("credit", n_samples=2000, random_state=0, subsample=400)
        assert set(np.unique(data.y_train)) == {0, 1}
        assert set(np.unique(data.y_test)) == {0, 1}

    def test_subsample_rows_come_from_the_parent(self):
        full = load_dataset("esr", n_samples=1000, random_state=3)
        sub = full.subsample(0.3, random_state=3)
        parent_rows = {row.tobytes() for row in full.X_train}
        assert all(row.tobytes() in parent_rows for row in sub.X_train)

    def test_subsample_int_count_is_exact_across_many_classes(self):
        # Largest-remainder allocation: 10-class mnist must keep exactly the
        # requested number of training rows (no per-class rounding drift).
        data = load_dataset("mnist", n_samples=1000, random_state=0)
        for count in (100, 97, 333):
            assert len(data.subsample(count, random_state=0).X_train) == count

    def test_subsample_disambiguates_int_count_from_float_fraction(self):
        data = load_dataset("credit", n_samples=1000, random_state=0)
        # int 1 is a row count (stratification keeps one row per class),
        # float 1.0 is the full-dataset fraction.
        assert len(data.subsample(1).X_train) == data.n_classes
        assert len(data.subsample(1.0).X_train) == len(data.X_train)

    def test_subsample_rejects_bad_sizes(self):
        data = load_dataset("credit", n_samples=1000, random_state=0)
        with pytest.raises(ValueError, match="subsample"):
            data.subsample(0)
        with pytest.raises(ValueError, match="subsample"):
            data.subsample(len(data.X_train) * 10)
        with pytest.raises(ValueError, match="subsample"):
            data.subsample(True)
