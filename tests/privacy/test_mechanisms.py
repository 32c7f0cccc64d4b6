"""Tests for the basic DP mechanisms and clipping utilities."""

import numpy as np
import pytest

from repro.privacy import clip_rows, laplace_mechanism, per_example_clip, wishart_noise


class TestLaplaceMechanism:
    def test_noise_scale(self, rng):
        noisy = laplace_mechanism(np.zeros(50000), epsilon=0.5, sensitivity=1.0, rng=rng)
        # Laplace(b) has std b*sqrt(2); b = 1/0.5 = 2.
        assert noisy.std() == pytest.approx(2 * np.sqrt(2), rel=0.05)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            laplace_mechanism(np.zeros(3), epsilon=0.0)


class TestWishartMechanism:
    def test_noise_is_symmetric_psd(self, rng):
        W = wishart_noise(dim=6, epsilon=0.5, n_samples=1000, rng=rng)
        np.testing.assert_allclose(W, W.T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(W)
        assert np.all(eigvals >= -1e-10)

    def test_noise_magnitude_shrinks_with_n(self, rng):
        small_n = wishart_noise(5, 0.5, 100, rng=np.random.default_rng(0))
        large_n = wishart_noise(5, 0.5, 100000, rng=np.random.default_rng(0))
        assert np.linalg.norm(large_n) < np.linalg.norm(small_n)

    def test_noise_magnitude_shrinks_with_epsilon(self):
        loose = wishart_noise(5, 10.0, 1000, rng=np.random.default_rng(0))
        tight = wishart_noise(5, 0.1, 1000, rng=np.random.default_rng(0))
        assert np.linalg.norm(loose) < np.linalg.norm(tight)


class TestClipping:
    def test_clip_rows_bounds_all_norms(self, rng):
        X = rng.normal(size=(50, 8)) * 5
        clipped = clip_rows(X, max_norm=1.0)
        assert np.all(np.linalg.norm(clipped, axis=1) <= 1.0 + 1e-9)

    def test_clip_rows_keeps_small_rows(self, rng):
        X = rng.normal(size=(10, 4)) * 0.01
        np.testing.assert_allclose(clip_rows(X, 1.0), X)

    def test_per_example_clip_joint_norm(self, rng):
        g1 = rng.normal(size=(5, 3, 2)) * 10
        g2 = rng.normal(size=(5, 4)) * 10
        clipped = per_example_clip([g1, g2], max_norm=1.0)
        for i in range(5):
            total = np.sqrt((clipped[0][i] ** 2).sum() + (clipped[1][i] ** 2).sum())
            assert total <= 1.0 + 1e-9

    def test_per_example_clip_preserves_small_gradients(self, rng):
        g = rng.normal(size=(4, 3)) * 1e-3
        np.testing.assert_allclose(per_example_clip([g], 1.0)[0], g)

    def test_per_example_clip_inconsistent_batch_raises(self):
        with pytest.raises(ValueError):
            per_example_clip([np.zeros((3, 2)), np.zeros((4, 2))], 1.0)

    def test_invalid_norm_raises(self):
        with pytest.raises(ValueError):
            clip_rows(np.ones((2, 2)), -1.0)
        with pytest.raises(ValueError):
            per_example_clip([np.ones((2, 2))], 0.0)
