"""Tests for the Gaussian/MoG KL approximations."""

import numpy as np
import pytest

from repro.mixture import kl_diag_gaussian_pair, kl_gaussian_to_mog
from repro.nn import Tensor
from tests.nn.test_autograd import numerical_grad


class TestPairKL:
    def test_zero_for_identical(self):
        assert kl_diag_gaussian_pair([0, 0], [1, 1], [0, 0], [1, 1]) == pytest.approx(0.0)

    def test_known_value(self):
        # KL(N(0,1) || N(1,1)) = 0.5
        assert kl_diag_gaussian_pair([0.0], [1.0], [1.0], [1.0]) == pytest.approx(0.5)

    def test_asymmetric(self):
        a = kl_diag_gaussian_pair([0.0], [1.0], [0.0], [4.0])
        b = kl_diag_gaussian_pair([0.0], [4.0], [0.0], [1.0])
        assert a != pytest.approx(b)


class TestGaussianToMoG:
    def test_single_component_matches_closed_form(self, rng):
        mu_q = rng.normal(size=(5, 3))
        lv_q = rng.normal(size=(5, 3)) * 0.1
        mean = rng.normal(size=(1, 3))
        var = np.exp(rng.normal(size=(1, 3)) * 0.1)
        kl = kl_gaussian_to_mog(Tensor(mu_q), Tensor(lv_q), [1.0], mean, var).data
        expected = np.array(
            [kl_diag_gaussian_pair(mu_q[i], np.exp(lv_q[i]), mean[0], var[0]) for i in range(5)]
        )
        np.testing.assert_allclose(kl, expected, atol=1e-8)

    def test_nonnegative(self, rng):
        mu_q = rng.normal(size=(20, 4))
        lv_q = rng.normal(size=(20, 4))
        weights = np.array([0.3, 0.7])
        means = rng.normal(size=(2, 4))
        variances = np.exp(rng.normal(size=(2, 4)))
        kl = kl_gaussian_to_mog(Tensor(mu_q), Tensor(lv_q), weights, means, variances).data
        assert np.all(kl >= 0)

    def test_zero_when_q_equals_a_dominant_component(self):
        means = np.array([[0.0, 0.0], [50.0, 50.0]])
        variances = np.ones((2, 2))
        weights = np.array([1.0 - 1e-12, 1e-12])
        kl = kl_gaussian_to_mog(
            Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), weights, means, variances
        ).data
        assert kl[0] == pytest.approx(0.0, abs=1e-6)

    def test_larger_for_distant_query(self, rng):
        weights = np.array([0.5, 0.5])
        means = np.array([[0.0, 0.0], [2.0, 2.0]])
        variances = np.ones((2, 2))
        near = kl_gaussian_to_mog(
            Tensor(np.array([[1.0, 1.0]])), Tensor(np.zeros((1, 2))), weights, means, variances
        ).data[0]
        far = kl_gaussian_to_mog(
            Tensor(np.array([[10.0, 10.0]])), Tensor(np.zeros((1, 2))), weights, means, variances
        ).data[0]
        assert far > near

    def test_gradient_flows_to_encoder_outputs(self, rng):
        weights = np.array([0.4, 0.6])
        means = rng.normal(size=(2, 3))
        variances = np.exp(rng.normal(size=(2, 3)) * 0.1)
        mu_data = rng.normal(size=(4, 3))
        lv_data = rng.normal(size=(4, 3)) * 0.1

        mu = Tensor(mu_data.copy(), requires_grad=True)
        lv = Tensor(lv_data.copy(), requires_grad=True)
        kl_gaussian_to_mog(mu, lv, weights, means, variances).sum().backward()
        assert mu.grad is not None and lv.grad is not None

        numeric = numerical_grad(
            lambda a: kl_gaussian_to_mog(Tensor(a), Tensor(lv_data), weights, means, variances)
            .sum()
            .item(),
            mu_data.copy(),
        )
        np.testing.assert_allclose(mu.grad, numeric, atol=1e-5)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            kl_gaussian_to_mog(
                Tensor(np.zeros((2, 3))),
                Tensor(np.zeros((2, 3))),
                [0.5, 0.5],
                np.zeros((2, 3)),
                np.ones((3, 3)),
            )
