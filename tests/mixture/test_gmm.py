"""Tests for the Gaussian mixture model and DP-EM."""

import numpy as np
import pytest

from repro.mixture import DPGaussianMixture, GaussianMixture


def make_two_blob_data(rng, n=600, d=2, separation=6.0):
    half = n // 2
    a = rng.normal(size=(half, d)) + separation / 2
    b = rng.normal(size=(half, d)) - separation / 2
    return np.vstack([a, b])


class TestGaussianMixture:
    def test_recovers_two_clusters(self, rng):
        X = make_two_blob_data(rng)
        gmm = GaussianMixture(2, n_iter=50, random_state=0).fit(X)
        centers = np.sort(gmm.means_[:, 0])
        assert centers[0] == pytest.approx(-3.0, abs=0.5)
        assert centers[1] == pytest.approx(3.0, abs=0.5)
        np.testing.assert_allclose(gmm.weights_, [0.5, 0.5], atol=0.05)

    def test_log_likelihood_increases(self, rng):
        X = make_two_blob_data(rng)
        # Fits from one seed share their initialisation, so n_iter=k stops
        # EM after its k-th iteration; EM is monotone up to numerical noise.
        scores = [
            GaussianMixture(2, n_iter=n_iter, random_state=0).fit(X).score(X)
            for n_iter in (1, 2, 5, 30)
        ]
        assert scores[-1] >= scores[0]
        assert np.all(np.diff(scores) >= -1e-6)

    def test_responsibilities_rows_sum_to_one(self, rng):
        X = make_two_blob_data(rng)
        gmm = GaussianMixture(3, n_iter=20, random_state=0).fit(X)
        responsibilities = gmm._e_step(X)
        np.testing.assert_allclose(responsibilities.sum(axis=1), 1.0, atol=1e-9)
        assert responsibilities.shape == (len(X), 3)

    def test_responsibilities_separate_clusters(self, rng):
        X = make_two_blob_data(rng)
        gmm = GaussianMixture(2, n_iter=50, random_state=0).fit(X)
        labels = np.argmax(gmm._e_step(X), axis=1)
        first_half, second_half = labels[:300], labels[300:]
        # Each half should be (almost) uniformly one component.
        assert (first_half == np.bincount(first_half).argmax()).mean() > 0.95
        assert (second_half == np.bincount(second_half).argmax()).mean() > 0.95

    def test_sampling_matches_fitted_distribution(self, rng):
        X = make_two_blob_data(rng)
        gmm = GaussianMixture(2, n_iter=50, random_state=0).fit(X)
        samples, labels = gmm.sample(2000)
        assert samples.shape == (2000, 2)
        assert set(np.unique(labels)) <= {0, 1}
        # Sampled means should bracket the two blobs.
        assert samples[:, 0].min() < -2 and samples[:, 0].max() > 2

    def test_score_samples_higher_near_modes(self, rng):
        X = make_two_blob_data(rng)
        gmm = GaussianMixture(2, n_iter=50, random_state=0).fit(X)
        near = gmm.score_samples(np.array([[3.0, 3.0]]))
        far = gmm.score_samples(np.array([[30.0, 30.0]]))
        assert near > far

    def test_set_parameters_roundtrip(self):
        gmm = GaussianMixture(2)
        gmm.set_parameters([0.4, 0.6], np.zeros((2, 3)), np.ones((2, 3)))
        samples, _ = gmm.sample(10)
        assert samples.shape == (10, 3)

    @pytest.mark.parametrize(
        "weights, covariances",
        [
            ([0.7, 0.7], np.ones((2, 3))),
            ([1.5, -0.5], np.ones((2, 3))),
            ([0.5, 0.5], np.ones((2, 1))),
            ([0.5, 0.5], np.ones((2, 3, 3))),
            ([0.5, 0.5], -np.ones((2, 3))),
            ([0.5, 0.5], np.zeros((2, 3))),
            ([0.5, 0.5], np.full((2, 3), np.nan)),
            ([0.5, 0.5], np.full((2, 3), np.inf)),
        ],
        ids=[
            "weights-sum", "negative-weight", "narrow-variances", "full-matrices",
            "negative-variances", "zero-variances", "nan-variances", "inf-variances",
        ],
    )
    def test_set_parameters_validation(self, weights, covariances):
        gmm = GaussianMixture(2)
        with pytest.raises(ValueError):
            gmm.set_parameters(weights, np.zeros((2, 3)), covariances)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GaussianMixture(2).sample(5)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            GaussianMixture(0)
        with pytest.raises(ValueError):
            GaussianMixture(2, n_iter=0)

    def test_needs_enough_samples(self, rng):
        with pytest.raises(ValueError):
            GaussianMixture(5).fit(rng.normal(size=(3, 2)))


class TestDPGaussianMixture:
    def test_fits_and_samples(self, rng):
        X = make_two_blob_data(rng)
        # Blobs at +-3 get clipped onto the unit ball, but the model must still run.
        dpgmm = DPGaussianMixture(2, sigma=5.0, n_iter=10, random_state=0).fit(X)
        samples, _ = dpgmm.sample(50)
        assert samples.shape == (50, 2)
        np.testing.assert_allclose(dpgmm.weights_.sum(), 1.0, atol=1e-9)

    def test_low_noise_recovers_clusters(self, rng):
        X = make_two_blob_data(rng, separation=1.2)  # keep within unit ball mostly
        X = X / 4.0
        dpgmm = DPGaussianMixture(2, sigma=0.01, n_iter=30, random_state=0).fit(X)
        reference = GaussianMixture(2, n_iter=30, random_state=0).fit(
            np.clip(X, -1, 1)
        )
        assert abs(np.sort(dpgmm.means_[:, 0]) - np.sort(reference.means_[:, 0])).max() < 0.2

    def test_weights_remain_valid_under_heavy_noise(self, rng):
        X = rng.normal(size=(200, 3)) * 0.1
        dpgmm = DPGaussianMixture(3, sigma=50.0, n_iter=5, random_state=0).fit(X)
        assert np.all(dpgmm.weights_ > 0)
        np.testing.assert_allclose(dpgmm.weights_.sum(), 1.0, atol=1e-9)

    def test_variances_stay_positive_under_heavy_noise(self, rng):
        X = rng.normal(size=(200, 3)) * 0.1
        dpgmm = DPGaussianMixture(2, sigma=100.0, n_iter=5, random_state=1).fit(X)
        assert np.all(dpgmm.covariances_ > 0)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            DPGaussianMixture(2, sigma=0.0)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            lambda state: {**state, "prior.covariances": state["prior.covariances"][:, :1]},
            "covariances have shape",
        ),
        (
            lambda state: {**state, "prior.covariances": -state["prior.covariances"]},
            "finite and positive",
        ),
        (
            lambda state: {**state, "prior.weights": np.array([1.5, -0.5])},
            "non-negative",
        ),
    ],
    ids=["one-column-variances", "negated-variances", "negative-weight"],
)
def test_load_artifact_refuses_an_invalid_prior(corrupt, message, tmp_path):
    from repro.models import PGM
    from repro.serving import ArtifactError, load_artifact, save_artifact

    X = np.random.default_rng(0).random((60, 6))
    model = PGM(
        latent_dim=3, n_mixture_components=2, em_iterations=3, hidden=(8,),
        epochs=1, batch_size=30, random_state=0,
    ).fit(X)
    path = save_artifact(model, tmp_path / "pgm")
    with np.load(path / "weights.npz", allow_pickle=False) as archive:
        state = {key: archive[key] for key in archive.files}
    np.savez(path / "weights.npz", **corrupt(state))
    with pytest.raises(ArtifactError, match=message):
        load_artifact(path)
