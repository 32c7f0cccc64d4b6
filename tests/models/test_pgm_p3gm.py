"""Tests for the phased generative models (PGM and P3GM)."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.models import P3GM, PGM
from repro.privacy.accounting import ORDERS, p3gm_accountant


def small_pgm(**overrides):
    params = dict(
        latent_dim=5,
        n_mixture_components=3,
        em_iterations=10,
        hidden=(32,),
        epochs=3,
        batch_size=100,
        random_state=0,
    )
    params.update(overrides)
    return PGM(**params)


def small_p3gm(**overrides):
    params = dict(
        latent_dim=5,
        n_mixture_components=3,
        em_iterations=10,
        hidden=(32,),
        epochs=2,
        batch_size=100,
        epsilon=1.0,
        delta=1e-5,
        noise_multiplier=1.5,
        random_state=0,
    )
    params.update(overrides)
    return P3GM(**params)


class TestPGM:
    def test_two_phase_components_built(self, toy_unlabeled_data):
        model = small_pgm().fit(toy_unlabeled_data)
        assert model.reducer is not None
        assert model.prior is not None
        assert model.decoder is not None
        assert model.effective_latent_dim_ == 5

    def test_skips_pca_for_low_dimensional_data(self, rng):
        X = rng.uniform(size=(300, 4))
        model = small_pgm(latent_dim=10, epochs=1).fit(X)
        assert model.reducer is None
        assert model.effective_latent_dim_ == 4

    def test_sample_shapes_and_range(self, toy_unlabeled_data):
        model = small_pgm().fit(toy_unlabeled_data)
        samples = model.sample(40)
        assert samples.shape == (40, toy_unlabeled_data.shape[1])
        assert np.all((samples >= 0) & (samples <= 1))

    def test_loss_decreases(self, toy_unlabeled_data):
        model = small_pgm(epochs=6).fit(toy_unlabeled_data)
        losses = model.history.series("reconstruction_loss")
        assert losses[-1] < losses[0]

    def test_labeled_sampling(self, toy_labeled_data):
        X, y = toy_labeled_data
        model = small_pgm().fit(X, y)
        Xs, ys = model.sample_labeled(150, rng=0)
        assert Xs.shape == (150, X.shape[1])
        assert abs(np.mean(ys == 1) - np.mean(y == 1)) < 0.02

    def test_prior_is_mixture_fitted_on_projection(self, toy_unlabeled_data):
        model = small_pgm().fit(toy_unlabeled_data)
        assert model.prior.means_.shape == (3, 5)
        np.testing.assert_allclose(model.prior.weights_.sum(), 1.0, atol=1e-9)

    def test_fixed_variance_mode_drops_kl(self, toy_unlabeled_data):
        model = small_pgm(variance_mode="fixed", epochs=2).fit(toy_unlabeled_data)
        assert model.history.last("kl_loss") == 0.0

    def test_nonprivate(self, toy_unlabeled_data):
        model = small_pgm(epochs=1).fit(toy_unlabeled_data)
        assert not model.is_private

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            PGM(variance_mode="bogus")
        with pytest.raises(ValueError):
            PGM(n_mixture_components=0)

    def test_reconstruction_loss_evaluation(self, toy_unlabeled_data):
        X = toy_unlabeled_data
        model = small_pgm(epochs=8).fit(X)
        rng = np.random.default_rng(3)
        noise = rng.uniform(size=X.shape)
        assert model.reconstruction_loss(X) < model.reconstruction_loss(noise)


class TestP3GM:
    def test_privacy_budget_respected(self, toy_labeled_data):
        X, y = toy_labeled_data
        model = small_p3gm().fit(X, y)
        eps, delta = model.privacy_spent()
        assert eps <= 1.0 + 1e-3
        assert delta == 1e-5
        assert model.is_private

    def test_uses_private_components(self, toy_unlabeled_data):
        from repro.decomposition import DPPCA
        from repro.mixture import DPGaussianMixture

        model = small_p3gm().fit(toy_unlabeled_data)
        assert isinstance(model.reducer, DPPCA)
        assert isinstance(model.prior, DPGaussianMixture)

    def test_calibrates_sigma_em_when_not_given(self, toy_unlabeled_data):
        model = small_p3gm().fit(toy_unlabeled_data)
        assert model.sigma_em_ is not None and model.sigma_em_ > 0
        assert model.accountant_ is not None

    def test_explicit_sigma_em_calibrates_noise_multiplier(self, toy_unlabeled_data):
        model = small_p3gm(noise_multiplier=None, sigma_em=200.0).fit(toy_unlabeled_data)
        assert model.noise_multiplier_ is not None and model.noise_multiplier_ > 0
        eps, _ = model.privacy_spent()
        assert eps <= 1.0 + 1e-3

    def test_requires_some_noise_parameter(self):
        with pytest.raises(ValueError):
            P3GM(noise_multiplier=None, sigma_em=None)

    def test_rdp_tighter_than_baseline_composition(self, toy_unlabeled_data):
        model = small_p3gm().fit(toy_unlabeled_data)
        eps_rdp, _ = model.privacy_spent()
        assert eps_rdp < model.privacy_spent_baseline()

    def test_skips_pca_and_its_budget_for_low_dim_data(self, rng):
        X = rng.uniform(size=(400, 4))
        model = small_p3gm(latent_dim=10, epochs=1).fit(X)
        assert model.reducer is None
        assert model.accountant_.epsilon_pca == 0.0

    def test_sampling_and_label_ratio(self, toy_labeled_data):
        X, y = toy_labeled_data
        model = small_p3gm().fit(X, y)
        Xs, ys = model.sample_labeled(200, rng=0)
        assert Xs.shape == (200, X.shape[1])
        assert abs(np.mean(ys == 1) - np.mean(y == 1)) < 0.02

    def test_smaller_epsilon_means_more_noise(self, toy_unlabeled_data):
        tight = small_p3gm(epsilon=0.3).fit(toy_unlabeled_data)
        loose = small_p3gm(epsilon=3.0).fit(toy_unlabeled_data)
        assert tight.privacy_spent()[0] <= 0.3 + 1e-3
        assert loose.privacy_spent()[0] <= 3.0 + 1e-3
        # The tighter budget must not use *less* DP-SGD noise than the looser one.
        assert tight.noise_multiplier_ >= loose.noise_multiplier_ - 1e-9

    def test_ae_variant_trains(self, toy_unlabeled_data):
        model = small_p3gm(variance_mode="fixed", epochs=1).fit(toy_unlabeled_data)
        assert model.history.last("kl_loss") == 0.0
        assert model.sample(10).shape == (10, toy_unlabeled_data.shape[1])

    def test_reconstruction_loss_repeats_and_leaves_the_model_stream_alone(
        self, toy_labeled_data
    ):
        X, y = toy_labeled_data
        model, twin = small_p3gm(epochs=1).fit(X, y), small_p3gm(epochs=1).fit(X, y)
        first = model.reconstruction_loss(X, y)
        assert model.reconstruction_loss(X, y) == first
        assert model.sample(5).tobytes() == twin.sample(5).tobytes()

    def test_unfitted_privacy_spent_is_zero(self):
        assert small_p3gm().privacy_spent() == (0.0, 0.0)


def fit_credit_p3gm():
    """Credit, 2,000 rows: the requested noise multiplier meets epsilon = 1
    on its own, so only sigma_em is calibrated."""
    data = load_dataset("credit", n_samples=2000, random_state=0)
    model = P3GM(hidden=(16,), epochs=3, batch_size=200, noise_multiplier=5.0, random_state=0)
    return model.fit(data.X_train, data.y_train)


class TestP3GMAccounting:
    def test_fit_builds_the_dp_sgd_curve_at_most_twice(self, monkeypatch):
        calls = []
        original = p3gm_accountant.rdp_subsampled_gaussian

        def counting(sample_rate, sigma, alpha):
            calls.append(alpha)
            return original(sample_rate, sigma, alpha)

        monkeypatch.setattr(p3gm_accountant, "rdp_subsampled_gaussian", counting)
        fit_credit_p3gm()
        # The sigma_em bisection, the per-epoch tracker and privacy_spent()
        # all reuse the one per-step DP-SGD curve.
        assert len(calls) <= 2 * len(ORDERS)

    def test_state_dict_with_legacy_accountant_keys_loads(self):
        model = fit_credit_p3gm()
        state = model.state_dict()
        # Older state dicts also stored the accountant's order cap and DP-SGD
        # accounting mode, each of which only ever had one value in use.
        state["accountant.max_order"] = np.asarray(512)
        state["accountant.sgd_accounting"] = np.asarray("rdp")
        restored = P3GM(**model.get_config()).load_state_dict(state)
        assert restored.privacy_spent() == model.privacy_spent()
        # The value those older versions reported for this model.
        assert restored.privacy_spent() == (float.fromhex("0x1.fffffc0c0874ap-1"), 1e-5)
