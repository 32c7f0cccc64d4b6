"""Tests for the DP-GM and PrivBayes baselines and the Table-I capability matrix."""

import numpy as np
import pytest

from repro.models import CAPABILITY_MATRIX, DPGM, PrivBayes, capability_table


class TestDPGM:
    def make_model(self, **overrides):
        params = dict(
            n_clusters=3,
            latent_dim=3,
            hidden=(32,),
            epochs=1,
            batch_size=100,
            epsilon=1.0,
            delta=1e-5,
            random_state=0,
        )
        params.update(overrides)
        return DPGM(**params)

    def test_fit_and_sample(self, toy_labeled_data):
        X, y = toy_labeled_data
        model = self.make_model().fit(X, y)
        Xs, ys = model.sample_labeled(100, rng=0)
        assert Xs.shape == (100, X.shape[1])
        assert set(np.unique(ys)) <= {0, 1}

    def test_privacy_budget_reported(self, toy_labeled_data):
        X, y = toy_labeled_data
        model = self.make_model().fit(X, y)
        eps, delta = model.privacy_spent()
        assert 0 < eps <= 1.0 + 1e-6
        assert delta == 1e-5

    def test_cluster_weights_are_distribution(self, toy_unlabeled_data):
        model = self.make_model().fit(toy_unlabeled_data)
        assert np.all(model.cluster_weights_ > 0)
        np.testing.assert_allclose(model.cluster_weights_.sum(), 1.0, atol=1e-9)

    def test_small_clusters_fall_back_to_gaussian(self, rng):
        # 10 clusters on 120 points guarantees several tiny clusters.
        X = rng.uniform(size=(120, 8))
        model = self.make_model(n_clusters=10, min_cluster_size=30).fit(X)
        assert any(isinstance(g, tuple) for g in model.generators_)
        assert model.sample(20).shape == (20, 8)

    def test_needs_more_samples_than_clusters(self, rng):
        with pytest.raises(ValueError):
            self.make_model(n_clusters=50).fit(rng.uniform(size=(20, 4)))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            self.make_model().sample(5)

    def test_lower_sample_diversity_than_training_data(self, toy_labeled_data):
        """The paper's criticism: DP-GM samples concentrate near centroids."""
        X, y = toy_labeled_data
        model = self.make_model(n_clusters=2, epochs=1).fit(X, y)
        samples = model.sample(len(X))[:, : X.shape[1]]
        # Mean per-feature variance of samples should not exceed the real data's by much;
        # typically it is substantially lower (collapse towards centroids).
        assert samples.var(axis=0).mean() < 2.0 * X.var(axis=0).mean()


class TestPrivBayes:
    def test_fit_and_sample_shapes(self, toy_labeled_data):
        X, y = toy_labeled_data
        model = PrivBayes(epsilon=1.0, random_state=0).fit(X, y)
        Xs, ys = model.sample_labeled(120, rng=0)
        assert Xs.shape == (120, X.shape[1])
        assert abs(np.mean(ys == 1) - np.mean(y == 1)) < 0.05

    def test_unlabeled_sampling(self, toy_unlabeled_data):
        model = PrivBayes(epsilon=1.0, random_state=0).fit(toy_unlabeled_data)
        samples = model.sample(50)
        assert samples.shape == (50, toy_unlabeled_data.shape[1])
        assert np.all((samples >= 0) & (samples <= 1))

    def test_network_structure_degree_bound(self, toy_unlabeled_data):
        model = PrivBayes(epsilon=1.0, degree=2, random_state=0).fit(toy_unlabeled_data)
        assert len(model.network_) == toy_unlabeled_data.shape[1]
        for _, parents in model.network_:
            assert len(parents) <= 2

    def test_conditionals_are_distributions(self, toy_unlabeled_data):
        model = PrivBayes(epsilon=1.0, random_state=0).fit(toy_unlabeled_data)
        for _, (parents, table) in model.conditionals_.items():
            np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(table >= 0)

    def test_pure_dp_guarantee(self, toy_unlabeled_data):
        model = PrivBayes(epsilon=0.5, random_state=0).fit(toy_unlabeled_data)
        assert model.privacy_spent() == (0.5, 0.0)

    def test_categorical_columns_preserved(self, rng):
        # A binary column and a 3-level column must come back with the same values.
        X = np.column_stack(
            [rng.integers(0, 2, 500), rng.integers(0, 3, 500) / 2.0, rng.uniform(size=500)]
        )
        model = PrivBayes(epsilon=5.0, random_state=0).fit(X)
        samples = model.sample(300)
        assert set(np.unique(samples[:, 0])) <= {0.0, 1.0}
        assert set(np.round(np.unique(samples[:, 1]), 3)) <= {0.0, 0.5, 1.0}

    def test_captures_strong_pairwise_dependency(self, rng):
        """With a generous budget, PrivBayes should preserve a hard x0==x1 dependency."""
        x0 = rng.integers(0, 2, 2000)
        X = np.column_stack([x0, x0, rng.uniform(size=2000)])
        model = PrivBayes(epsilon=20.0, degree=1, random_state=0).fit(X)
        samples = model.sample(1000)
        agreement = np.mean(samples[:, 0] == samples[:, 1])
        assert agreement > 0.8

    def test_sample_labeled_requires_labels(self, toy_unlabeled_data):
        model = PrivBayes(epsilon=1.0, random_state=0).fit(toy_unlabeled_data)
        with pytest.raises(RuntimeError):
            model.sample_labeled(10)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PrivBayes().sample(3)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            PrivBayes(epsilon=0.0)
        with pytest.raises(ValueError):
            PrivBayes(degree=0)


class TestCapabilityMatrix:
    def test_only_p3gm_has_all_capabilities(self):
        full = [
            row.model
            for row in CAPABILITY_MATRIX
            if row.differentially_private and row.diverse_samples and row.high_dimensional
        ]
        assert full == ["P3GM"]

    def test_all_models_are_private(self):
        assert all(row.differentially_private for row in CAPABILITY_MATRIX)

    def test_table_renders_every_model(self):
        text = capability_table()
        for row in CAPABILITY_MATRIX:
            assert row.model in text
