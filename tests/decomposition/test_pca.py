"""Tests for PCA and DP-PCA."""

import numpy as np
import pytest

from repro.decomposition import DPPCA, PCA


def make_low_rank_data(rng, n=500, d=20, rank=3, noise=0.01):
    """Data concentrated on a random rank-``rank`` subspace plus small noise."""
    basis = np.linalg.qr(rng.normal(size=(d, rank)))[0]
    scales = np.linspace(3.0, 1.0, rank)
    latent = rng.normal(size=(n, rank)) * scales
    return latent @ basis.T + noise * rng.normal(size=(n, d))


class TestPCA:
    def test_transform_shape(self, rng):
        X = make_low_rank_data(rng)
        Z = PCA(n_components=3).fit(X).transform(X)
        assert Z.shape == (500, 3)

    def test_recovers_low_rank_structure(self, rng):
        X = make_low_rank_data(rng)
        pca = PCA(n_components=3).fit(X)
        reconstructed = pca.transform(X) @ pca.components_ + pca.mean_
        assert np.mean(np.sum((X - reconstructed) ** 2, axis=1)) < 0.05

    def test_explained_variance_sorted(self, rng):
        X = make_low_rank_data(rng, rank=5)
        pca = PCA(n_components=5).fit(X)
        ev = pca.explained_variance_
        assert np.all(np.diff(ev) <= 1e-12)

    def test_components_orthonormal(self, rng):
        X = make_low_rank_data(rng)
        pca = PCA(n_components=3).fit(X)
        gram = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)

    def test_full_rank_projection_round_trips(self, rng):
        X = rng.normal(size=(100, 4))
        pca = PCA(n_components=4).fit(X)
        np.testing.assert_allclose(pca.transform(X) @ pca.components_ + pca.mean_, X, atol=1e-8)

    def test_transform_centers_with_mean(self, rng):
        X = make_low_rank_data(rng) + 5.0
        pca = PCA(n_components=3).fit(X)
        np.testing.assert_allclose(pca.transform(X).mean(axis=0), 0.0, atol=1e-8)

    def test_explicit_public_mean(self, rng):
        X = make_low_rank_data(rng)
        public_mean = np.zeros(X.shape[1])
        pca = PCA(n_components=2, mean=public_mean).fit(X)
        np.testing.assert_allclose(pca.mean_, public_mean)

    def test_too_many_components_raises(self, rng):
        with pytest.raises(ValueError):
            PCA(n_components=30).fit(rng.normal(size=(50, 10)))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PCA(n_components=2).transform(np.ones((3, 5)))

    def test_invalid_n_components(self):
        with pytest.raises(ValueError):
            PCA(n_components=0)


class TestDPPCA:
    def test_shapes_and_projection(self, rng):
        X = make_low_rank_data(rng)
        dp = DPPCA(n_components=3, epsilon=1.0, random_state=0).fit(X)
        Z = dp.transform(X)
        assert Z.shape == (500, 3)

    def test_clipping_bounds_projection_norm(self, rng):
        X = make_low_rank_data(rng) * 100.0  # huge rows, must be clipped
        dp = DPPCA(n_components=3, epsilon=1.0, clip_norm=1.0, random_state=0).fit(X)
        Z = dp.transform(X)
        # Projection of unit-norm-clipped rows onto orthonormal axes stays within unit norm.
        assert np.all(np.linalg.norm(Z, axis=1) <= 1.0 + 1e-9)

    def test_large_epsilon_approaches_nonprivate_subspace(self, rng):
        X = make_low_rank_data(rng, n=2000, noise=0.001)
        # Normalise rows so clipping is a no-op and the subspaces are comparable.
        X = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        nonprivate = PCA(n_components=3).fit(X)
        private = DPPCA(n_components=3, epsilon=1000.0, random_state=1).fit(X)
        # Compare subspaces through the projection operators.
        proj_np = nonprivate.components_.T @ nonprivate.components_
        proj_dp = private.components_.T @ private.components_
        assert np.linalg.norm(proj_np - proj_dp) < 0.1

    def test_noise_increases_with_smaller_epsilon(self, rng):
        X = make_low_rank_data(rng, n=2000, noise=0.001)
        X = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        nonprivate = PCA(n_components=3).fit(X)
        proj_np = nonprivate.components_.T @ nonprivate.components_

        def subspace_error(epsilon):
            errors = []
            for seed in range(5):
                dp = DPPCA(n_components=3, epsilon=epsilon, random_state=seed).fit(X)
                proj = dp.components_.T @ dp.components_
                errors.append(np.linalg.norm(proj_np - proj))
            return np.mean(errors)

        assert subspace_error(0.01) > subspace_error(10.0)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            DPPCA(n_components=2, epsilon=0.0)
