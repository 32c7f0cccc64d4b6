"""Tests for the Theorem-4 accountant and its RDP / moments / zCDP parts."""

import dataclasses
import math
from dataclasses import replace

import pytest

from repro.privacy.accounting import (
    ORDERS,
    P3GMAccountant,
    dp_em_moment_bound,
    dp_sgd_moment_bound,
    moments_epsilon,
    rdp_from_pure_dp,
    rdp_gaussian,
    rdp_subsampled_gaussian,
    rdp_to_dp,
    zcdp_compose,
    zcdp_gaussian,
    zcdp_to_dp,
)
from repro.privacy.accounting import p3gm_accountant


def dp_sgd_accountant(sigma, sample_rate, steps):
    """DP-SGD on its own: the Theorem-4 accountant with DP-PCA and DP-EM off."""
    return P3GMAccountant(
        epsilon_pca=0.0, em_iterations=0, sigma_sgd=sigma, sample_rate=sample_rate, sgd_steps=steps
    )


class TestRDPPrimitives:
    def test_gaussian_rdp_formula(self):
        assert rdp_gaussian(2.0, 10) == pytest.approx(10 / 8.0)

    def test_pure_dp_rdp_formula(self):
        # Small order: the paper's 2*alpha*eps^2 expression applies.
        assert rdp_from_pure_dp(0.1, 4) == pytest.approx(2 * 4 * 0.01)
        # Large order: capped at epsilon (Renyi divergence <= max divergence).
        assert rdp_from_pure_dp(0.1, 100) == pytest.approx(0.1)

    def test_subsampled_reduces_to_gaussian_at_q1(self):
        assert rdp_subsampled_gaussian(1.0, 2.0, 8) == pytest.approx(rdp_gaussian(2.0, 8))

    def test_subsampled_zero_rate_is_free(self):
        assert rdp_subsampled_gaussian(0.0, 1.0, 8) == 0.0

    def test_subsampling_amplifies_privacy(self):
        # Subsampled RDP must be far below the unsampled Gaussian RDP.
        full = rdp_gaussian(1.5, 16)
        sub = rdp_subsampled_gaussian(0.01, 1.5, 16)
        assert sub < 0.1 * full

    def test_subsampled_monotone_in_q(self):
        values = [rdp_subsampled_gaussian(q, 1.5, 8) for q in (0.001, 0.01, 0.1, 0.5)]
        assert values == sorted(values)

    def test_subsampled_monotone_in_sigma(self):
        values = [rdp_subsampled_gaussian(0.01, s, 8) for s in (4.0, 2.0, 1.0, 0.6)]
        assert values == sorted(values)

    def test_subsampled_requires_integer_alpha(self):
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(0.01, 1.0, 2.5)

    def test_rdp_to_dp_picks_minimum(self):
        alphas = [2, 4, 8]
        rdp = [1.0, 0.2, 0.5]
        eps, alpha = rdp_to_dp(rdp, alphas, delta=1e-5)
        expected = min(r + math.log(1e5) / (a - 1) for r, a in zip(rdp, alphas))
        assert eps == pytest.approx(expected)
        assert alpha in alphas


class TestMomentsAccountant:
    def test_dp_em_bound_formula(self):
        assert dp_em_moment_bound(3, 10.0, 4) == pytest.approx(7 * 20 / 200.0)

    def test_dp_sgd_bound_positive_and_monotone_in_lambda(self):
        values = [dp_sgd_moment_bound(0.01, 2.0, lam) for lam in (2, 4, 8, 16)]
        assert all(v > 0 for v in values)
        assert values == sorted(values)

    def test_dp_sgd_bound_overflows_to_inf_not_error(self):
        assert dp_sgd_moment_bound(0.01, 1.0, 200) == math.inf

    def test_dp_sgd_bound_decreases_with_sigma(self):
        assert dp_sgd_moment_bound(0.01, 4.0, 4) < dp_sgd_moment_bound(0.01, 1.0, 4)

    def test_moments_epsilon_conversion(self):
        lams = [1, 2, 4]
        total = [0.01, 0.05, 0.3]
        eps, lam = moments_epsilon(total, lams, 1e-5)
        expected = min((m + math.log(1e5)) / l for m, l in zip(total, lams))
        assert eps == pytest.approx(expected)
        assert lam in lams


class TestZCDP:
    def test_gaussian_rho(self):
        assert zcdp_gaussian(2.0) == pytest.approx(1 / 8.0)

    def test_compose(self):
        assert zcdp_compose([0.1, 0.2, 0.3]) == pytest.approx(0.6)

    def test_to_dp(self):
        rho = 0.05
        eps = zcdp_to_dp(rho, 1e-5)
        assert eps == pytest.approx(rho + 2 * math.sqrt(rho * math.log(1e5)))

    def test_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            zcdp_to_dp(-0.1, 1e-5)


class TestDPSGDCalibration:
    def test_epsilon_monotone_in_sigma(self):
        e1 = dp_sgd_accountant(1.0, 0.01, 500).epsilon(1e-5)
        e2 = dp_sgd_accountant(2.0, 0.01, 500).epsilon(1e-5)
        assert e2 < e1

    def test_calibration_meets_target(self):
        accountant = dp_sgd_accountant(1.0, 0.01, 500)
        sigma = accountant.calibrate_sigma_sgd(1.0, 1e-5)
        assert replace(accountant, sigma_sgd=sigma).epsilon(1e-5) <= 1.0 + 1e-6
        # And it is not wastefully large: slightly less noise must exceed the target.
        assert replace(accountant, sigma_sgd=sigma * 0.95).epsilon(1e-5) > 1.0

    def test_calibration_unreachable_raises(self):
        with pytest.raises(ValueError):
            dp_sgd_accountant(1.0, 0.5, 10000).calibrate_sigma_sgd(1e-9, 1e-5, high=5.0)


class TestP3GMAccountant:
    def make_accountant(self, **overrides):
        params = dict(
            epsilon_pca=0.1,
            sigma_em=100.0,
            em_iterations=20,
            n_components=3,
            sigma_sgd=1.5,
            sample_rate=240 / 63000,
            sgd_steps=2620,
        )
        params.update(overrides)
        return P3GMAccountant(**params)

    def test_epsilon_positive_and_finite(self):
        acc = self.make_accountant()
        eps = acc.epsilon(1e-5)
        assert 0 < eps < 50

    def test_rdp_composition_tighter_than_baseline(self):
        """Reproduces the qualitative claim of Figure 6: RDP < zCDP + MA."""
        for sigma in (1.0, 1.5, 2.0, 4.0):
            acc = self.make_accountant(sigma_sgd=sigma)
            assert acc.epsilon(1e-5) < acc.epsilon_baseline(1e-5)

    def test_epsilon_decreases_with_more_noise(self):
        eps = [self.make_accountant(sigma_sgd=s).epsilon(1e-5) for s in (1.0, 2.0, 4.0, 8.0)]
        assert eps == sorted(eps, reverse=True)

    def test_epsilon_increases_with_steps(self):
        e_few = self.make_accountant(sgd_steps=100).epsilon(1e-5)
        e_many = self.make_accountant(sgd_steps=5000).epsilon(1e-5)
        assert e_few < e_many

    def test_components_can_be_disabled(self):
        acc = self.make_accountant(em_iterations=0, sgd_steps=0)
        eps = acc.epsilon(1e-5)
        # Only the PCA term and the delta conversion remain.
        assert eps < 2.0

    def test_calibrate_sigma_sgd_hits_target(self):
        acc = self.make_accountant()
        sigma = acc.calibrate_sigma_sgd(1.0, 1e-5)
        assert replace(acc, sigma_sgd=sigma).epsilon(1e-5) <= 1.0 + 1e-3

    def test_calibrate_sigma_em_hits_target(self):
        acc = self.make_accountant(sigma_sgd=2.0)
        sigma_em = acc.calibrate_sigma_em(1.5, 1e-5)
        assert replace(acc, sigma_em=sigma_em).epsilon(1e-5) <= 1.5 + 1e-3

    def test_calibrate_restores_state_on_failure(self):
        acc = self.make_accountant(epsilon_pca=5.0)  # PCA alone blows the budget
        before = replace(acc)
        with pytest.raises(ValueError):
            acc.calibrate_sigma_sgd(0.5, 1e-5)
        acc.calibrate_sigma_em(20.0, 1e-5)
        assert acc == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            acc.sigma_sgd = 2.0

    def test_epsilon_with_order_reports_valid_alpha(self):
        acc = self.make_accountant()
        eps, alpha = acc.epsilon_with_order(1e-5)
        assert alpha in ORDERS
        assert eps == acc.epsilon(1e-5)

    def test_baseline_budget_validation(self):
        for overrides in ({"epsilon_pca": -1.0}, {"em_iterations": -1}, {"sgd_steps": -1}):
            with pytest.raises(ValueError):
                self.make_accountant(**overrides)

    def test_baseline_requires_valid_delta(self):
        with pytest.raises(ValueError):
            self.make_accountant().epsilon_baseline(0.0)

    def test_sigma_em_calibration_builds_the_dp_sgd_curve_once(self, monkeypatch):
        calls = []

        def counting(sample_rate, sigma, alpha):
            calls.append(alpha)
            return rdp_subsampled_gaussian(sample_rate, sigma, alpha)

        monkeypatch.setattr(p3gm_accountant, "rdp_subsampled_gaussian", counting)
        acc = self.make_accountant(sigma_sgd=2.0)
        acc.calibrate_sigma_em(1.5, 1e-5)
        replace(acc, sgd_steps=1).epsilon(1e-5)
        # Every bisection step and every step count reuse one DP-SGD curve.
        assert calls == list(ORDERS)
