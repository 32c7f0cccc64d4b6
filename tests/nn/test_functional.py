"""Tests for differentiable functional losses."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from tests.nn.test_autograd import numerical_grad


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.normal(size=(5, 7)))
        s = F.softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_logsumexp_matches_scipy(self, rng):
        from scipy.special import logsumexp as scipy_lse

        x = rng.normal(size=(4, 6)) * 10
        out = F.logsumexp(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data, scipy_lse(x, axis=1), atol=1e-10)

    def test_logsumexp_gradient(self, rng):
        x_data = rng.normal(size=(3, 4))
        x = Tensor(x_data.copy(), requires_grad=True)
        F.logsumexp(x, axis=1).sum().backward()
        numeric = numerical_grad(
            lambda a: F.logsumexp(Tensor(a), axis=1).sum().item(), x_data.copy()
        )
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6)

    def test_log_softmax_is_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(5, 3)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-10
        )


class TestLosses:
    def test_bce_matches_formula(self, rng):
        p = rng.uniform(0.05, 0.95, size=(8, 3))
        t = rng.integers(0, 2, size=(8, 3)).astype(float)
        loss = F.binary_cross_entropy(Tensor(p), t, reduction="mean")
        expected = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        np.testing.assert_allclose(loss.item(), expected, atol=1e-10)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((5, 4)))
        onehot = np.eye(4)[np.array([0, 1, 2, 3, 0])]
        ce = F.cross_entropy(logits, onehot).item()
        np.testing.assert_allclose(ce, np.log(4), atol=1e-12)


class TestKLTerms:
    def test_kl_standard_normal_zero_for_standard_normal(self):
        mu = Tensor(np.zeros((7, 3)))
        log_var = Tensor(np.zeros((7, 3)))
        assert abs(F.kl_standard_normal(mu, log_var).item()) < 1e-12

    def test_kl_standard_normal_positive(self, rng):
        mu = Tensor(rng.normal(size=(7, 3)))
        log_var = Tensor(rng.normal(size=(7, 3)))
        assert F.kl_standard_normal(mu, log_var).item() > 0

    def test_kl_diag_gaussians_zero_when_equal(self, rng):
        mu = rng.normal(size=(5, 4))
        lv = rng.normal(size=(5, 4))
        kl = F.kl_diag_gaussians(Tensor(mu), Tensor(lv), mu, lv)
        np.testing.assert_allclose(kl.data, np.zeros(5), atol=1e-12)

    def test_kl_diag_gaussians_matches_closed_form(self, rng):
        mu_q = rng.normal(size=(3, 2))
        lv_q = rng.normal(size=(3, 2)) * 0.1
        mu_p = rng.normal(size=(2,))
        lv_p = rng.normal(size=(2,)) * 0.1
        kl = F.kl_diag_gaussians(Tensor(mu_q), Tensor(lv_q), mu_p, lv_p).data
        vq, vp = np.exp(lv_q), np.exp(lv_p)
        expected = 0.5 * (lv_p - lv_q + (vq + (mu_q - mu_p) ** 2) / vp - 1).sum(axis=1)
        np.testing.assert_allclose(kl, expected, atol=1e-12)

    def test_kl_gradient(self, rng):
        mu_data = rng.normal(size=(4, 3))
        lv_data = rng.normal(size=(4, 3)) * 0.2
        mu = Tensor(mu_data.copy(), requires_grad=True)
        lv = Tensor(lv_data.copy(), requires_grad=True)
        F.kl_standard_normal(mu, lv, reduction="sum").backward()
        numeric_mu = numerical_grad(
            lambda a: F.kl_standard_normal(Tensor(a), Tensor(lv_data), reduction="sum").item(),
            mu_data.copy(),
        )
        np.testing.assert_allclose(mu.grad, numeric_mu, atol=1e-6)


class TestReductionModes:
    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_reductions_exist(self, rng, reduction):
        p = rng.uniform(0.1, 0.9, size=(4, 2))
        t = np.ones((4, 2))
        out = F.binary_cross_entropy(Tensor(p), t, reduction=reduction)
        if reduction == "none":
            assert out.shape == (4, 2)
        else:
            assert out.shape == ()

    def test_unknown_reduction_raises(self):
        with pytest.raises(ValueError):
            F.binary_cross_entropy(Tensor(np.full(3, 0.5)), np.ones(3), reduction="bogus")
