"""Property-based tests (hypothesis) on core invariants.

These cover the load-bearing guarantees of the substrate libraries:
clipping bounds, privacy-accounting monotonicity, metric ranges, scaler
round-trips, and probability normalisation of the mixture model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml import MinMaxScaler, accuracy_score, average_precision_score, roc_auc_score
from repro.mixture import GaussianMixture, kl_gaussian_to_mog
from repro.nn import Tensor
from repro.privacy import clip_rows, per_example_clip, per_example_scale_factors
from repro.privacy.accounting import (
    P3GMAccountant,
    rdp_gaussian,
    rdp_subsampled_gaussian,
    rdp_to_dp,
    zcdp_gaussian,
    zcdp_to_dp,
)

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestClippingProperties:
    @given(arrays(np.float64, st.tuples(st.integers(1, 10), st.integers(1, 8)), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_clip_rows_bounded_and_idempotent(self, X):
        clipped = clip_rows(X, 1.0)
        assert np.all(np.linalg.norm(clipped, axis=1) <= 1.0 + 1e-9)
        np.testing.assert_allclose(clip_rows(clipped, 1.0), clipped, atol=1e-12)

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=finite_floats),
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)), elements=finite_floats),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_per_example_clip_joint_norm_bounded(self, g1, g2, max_norm):
        batch = min(len(g1), len(g2))
        clipped = per_example_clip([g1[:batch], g2[:batch]], max_norm)
        for i in range(batch):
            joint = np.sqrt(sum(float((c[i] ** 2).sum()) for c in clipped))
            assert joint <= max_norm + 1e-9

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=finite_floats),
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)), elements=finite_floats),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_factors_bound_clipped_norms(self, g1, g2, max_norm):
        """The factors DP-SGD scales its grad samples by bound every
        per-example gradient: scale[b] * ||concat grad[b]|| <= max_norm."""
        batch = min(len(g1), len(g2))
        grads = [g1[:batch], g2[:batch]]
        squared = sum((g.reshape(batch, -1) ** 2).sum(axis=1) for g in grads)
        scaled_norms = per_example_scale_factors(squared, max_norm) * np.sqrt(squared)
        assert np.all(scaled_norms <= max_norm + 1e-9)


class TestAccountingProperties:
    @given(st.floats(min_value=0.5, max_value=20.0), st.integers(min_value=2, max_value=128))
    @settings(max_examples=50, deadline=None)
    def test_gaussian_rdp_positive_and_monotone_in_alpha(self, sigma, alpha):
        assert rdp_gaussian(sigma, alpha) > 0
        assert rdp_gaussian(sigma, alpha + 1) >= rdp_gaussian(sigma, alpha)

    @given(
        st.floats(min_value=1e-4, max_value=0.5),
        st.floats(min_value=0.5, max_value=10.0),
        st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_subsampled_rdp_never_exceeds_full_gaussian(self, q, sigma, alpha):
        assert rdp_subsampled_gaussian(q, sigma, alpha) <= rdp_gaussian(sigma, alpha) + 1e-9

    @given(st.floats(min_value=0.5, max_value=10.0), st.integers(min_value=1, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_dp_sgd_epsilon_monotone_in_steps(self, sigma, steps):
        def epsilon(sgd_steps):
            return P3GMAccountant(
                epsilon_pca=0.0, em_iterations=0, sigma_sgd=sigma, sample_rate=0.01, sgd_steps=sgd_steps
            ).epsilon(1e-5)

        assert epsilon(steps) <= epsilon(steps + 100)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=10),
        st.floats(min_value=1e-8, max_value=0.1),
    )
    @settings(max_examples=50, deadline=None)
    def test_rdp_to_dp_at_least_max_term_lower_bound(self, rdp_values, delta):
        alphas = list(range(2, 2 + len(rdp_values)))
        eps, alpha = rdp_to_dp(rdp_values, alphas, delta)
        assert eps > 0
        assert alpha in alphas

    @given(st.floats(min_value=0.1, max_value=50.0), st.floats(min_value=1e-8, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_zcdp_conversion_positive_and_monotone(self, sigma, delta):
        rho = zcdp_gaussian(sigma)
        assert rho > 0
        assert zcdp_to_dp(rho, delta) >= zcdp_to_dp(rho, min(0.5, delta * 2)) - 1e-12


class TestMetricProperties:
    @given(st.lists(st.integers(0, 1), min_size=10, max_size=200), st.data())
    @settings(max_examples=50, deadline=None)
    def test_auc_in_unit_interval(self, labels, data):
        labels = np.array(labels)
        if labels.sum() == 0 or labels.sum() == len(labels):
            return  # undefined, covered by a unit test
        scores = np.array(
            data.draw(st.lists(finite_floats, min_size=len(labels), max_size=len(labels)))
        )
        auc = roc_auc_score(labels, scores)
        assert 0.0 <= auc <= 1.0
        ap = average_precision_score(labels, scores)
        assert 0.0 <= ap <= 1.0 + 1e-9

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_accuracy_bounds(self, y):
        y = np.array(y)
        assert accuracy_score(y, y) == 1.0
        assert 0.0 <= accuracy_score(y, np.roll(y, 1)) <= 1.0


class TestScalerProperties:
    @given(arrays(np.float64, st.tuples(st.integers(2, 30), st.integers(1, 6)), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_minmax_roundtrip_and_range(self, X):
        scaler = MinMaxScaler()
        scaled = scaler.fit_transform(X)
        assert scaled.min() >= -1e-12 and scaled.max() <= 1.0 + 1e-12
        recovered = scaler.inverse_transform(scaled)
        span = X.max(axis=0) - X.min(axis=0)
        varying = span > 1e-9
        np.testing.assert_allclose(recovered[:, varying], X[:, varying], atol=1e-6, rtol=1e-6)


class TestMixtureProperties:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_responsibilities_normalised_for_arbitrary_parameters(self, k, d, data):
        weights = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
        weights = weights / weights.sum()
        means = np.array(
            data.draw(st.lists(st.lists(st.floats(-5, 5), min_size=d, max_size=d), min_size=k, max_size=k))
        )
        variances = np.array(
            data.draw(st.lists(st.lists(st.floats(0.1, 4.0), min_size=d, max_size=d), min_size=k, max_size=k))
        )
        gmm = GaussianMixture(n_components=k)
        gmm.set_parameters(weights, means, variances)
        X = np.array(
            data.draw(st.lists(st.lists(st.floats(-5, 5), min_size=d, max_size=d), min_size=3, max_size=8))
        )
        proba = gmm.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.isfinite(gmm.score_samples(X)))

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_kl_to_mog_nonnegative(self, k, d, data):
        weights = np.ones(k) / k
        means = np.array(
            data.draw(st.lists(st.lists(st.floats(-3, 3), min_size=d, max_size=d), min_size=k, max_size=k))
        )
        variances = np.array(
            data.draw(st.lists(st.lists(st.floats(0.2, 3.0), min_size=d, max_size=d), min_size=k, max_size=k))
        )
        mu_q = np.array(
            data.draw(st.lists(st.lists(st.floats(-3, 3), min_size=d, max_size=d), min_size=2, max_size=5))
        )
        log_var_q = np.zeros_like(mu_q)
        kl = kl_gaussian_to_mog(Tensor(mu_q), Tensor(log_var_q), weights, means, variances)
        assert np.all(kl.data >= -1e-9)
