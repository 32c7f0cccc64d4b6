"""Tests for the VAE and DP-VAE synthesizers."""

import numpy as np
import pytest

from repro.models import DPVAE, VAE
from repro.models.base import LABEL_COPIES


def small_vae(**overrides):
    params = dict(latent_dim=4, hidden=(32,), epochs=3, batch_size=100, random_state=0)
    params.update(overrides)
    return VAE(**params)


class TestVAE:
    def test_fit_sample_shapes(self, toy_unlabeled_data):
        model = small_vae().fit(toy_unlabeled_data)
        samples = model.sample(50)
        assert samples.shape == (50, toy_unlabeled_data.shape[1])
        assert np.all((samples >= 0) & (samples <= 1))

    def test_loss_decreases(self, toy_unlabeled_data):
        model = small_vae(epochs=30).fit(toy_unlabeled_data)
        losses = model.history.series("reconstruction_loss")
        assert losses[-1] < losses[0]

    def test_labeled_sampling_matches_ratio(self, toy_labeled_data):
        X, y = toy_labeled_data
        model = small_vae().fit(X, y)
        Xs, ys = model.sample_labeled(200, rng=0)
        assert Xs.shape == (200, X.shape[1])
        ratio = np.mean(ys == 1)
        assert abs(ratio - np.mean(y == 1)) < 0.02

    def test_sample_labeled_requires_labels(self, toy_unlabeled_data):
        model = small_vae().fit(toy_unlabeled_data)
        with pytest.raises(RuntimeError):
            model.sample_labeled(10)

    def test_reconstruction_loss_smaller_on_training_data_than_noise(self, toy_unlabeled_data):
        model = small_vae(epochs=6).fit(toy_unlabeled_data)
        rng = np.random.default_rng(1)
        noise = rng.uniform(size=toy_unlabeled_data.shape)
        assert model.reconstruction_loss(toy_unlabeled_data) < model.reconstruction_loss(noise)

    def test_not_private(self, toy_unlabeled_data):
        model = small_vae().fit(toy_unlabeled_data)
        eps, _ = model.privacy_spent()
        assert np.isinf(eps)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            small_vae().sample(5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            VAE(latent_dim=0)
        with pytest.raises(ValueError):
            small_vae().fit(np.ones((10, 3))).sample(0)

    def test_reconstruction_loss_repeats_and_leaves_the_model_stream_alone(
        self, toy_labeled_data
    ):
        X, y = toy_labeled_data
        model, twin = small_vae(epochs=1).fit(X, y), small_vae(epochs=1).fit(X, y)
        first = model.reconstruction_loss(X, y)
        assert model.reconstruction_loss(X, y) == first
        assert model.sample(5).tobytes() == twin.sample(5).tobytes()

    def test_reconstruction_loss_with_labels_requires_y(self, toy_labeled_data):
        X, y = toy_labeled_data
        model = small_vae().fit(X, y)
        with pytest.raises(ValueError):
            model.reconstruction_loss(X)
        assert model.reconstruction_loss(X, y) > 0

    @pytest.mark.parametrize("unseen", [1, 5])
    def test_reconstruction_loss_rejects_labels_outside_the_training_classes(
        self, toy_labeled_data, unseen
    ):
        # Trained on classes {0, 2}: label 1 lies between them and label 5
        # past them; neither may be scored under some other class's block.
        X, y = toy_labeled_data
        model = small_vae(epochs=1).fit(X, 2 * y)
        with pytest.raises(ValueError, match=rf"labels \[{unseen}\] are not among"):
            model.reconstruction_loss(X[:4], [0, 2, unseen, 0])

    def test_evaluation_label_block_is_the_training_layout(self, toy_labeled_data):
        X, y = toy_labeled_data
        model = small_vae(epochs=1).fit(X, 2 * y)
        block = model._with_label_block(X[:2], [2, 0])[:, X.shape[1]:]
        np.testing.assert_array_equal(block, [[0, 1] * LABEL_COPIES, [1, 0] * LABEL_COPIES])

    def test_respects_privacy_budget(self, toy_labeled_data):
        X, y = toy_labeled_data
        model = DPVAE(
            latent_dim=4, hidden=(32,), epochs=2, batch_size=100, epsilon=1.0, delta=1e-5, random_state=0
        ).fit(X, y)
        eps, delta = model.privacy_spent()
        assert eps <= 1.0 + 1e-6
        assert delta == 1e-5

    def test_explicit_noise_multiplier_reported(self, toy_unlabeled_data):
        model = DPVAE(
            latent_dim=4,
            hidden=(32,),
            epochs=1,
            batch_size=100,
            noise_multiplier=5.0,
            epsilon=10.0,
            random_state=0,
        ).fit(toy_unlabeled_data)
        eps, _ = model.privacy_spent()
        assert 0 < eps < 10.0

    def test_sampling_works(self, toy_labeled_data):
        X, y = toy_labeled_data
        model = DPVAE(latent_dim=4, hidden=(32,), epochs=1, batch_size=100, epsilon=2.0, random_state=0)
        model.fit(X, y)
        Xs, ys = model.sample_labeled(60, rng=1)
        assert Xs.shape == (60, X.shape[1])
        assert set(np.unique(ys)) <= {0, 1}

    def test_more_noise_than_nonprivate(self, toy_unlabeled_data):
        """DP-VAE's reconstruction should be worse than the non-private VAE's."""
        vae = small_vae(epochs=4).fit(toy_unlabeled_data)
        dpvae = DPVAE(
            latent_dim=4, hidden=(32,), epochs=4, batch_size=100, epsilon=0.5, random_state=0
        ).fit(toy_unlabeled_data)
        assert dpvae.reconstruction_loss(toy_unlabeled_data) >= vae.reconstruction_loss(
            toy_unlabeled_data
        )

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            DPVAE(epsilon=0.0)
