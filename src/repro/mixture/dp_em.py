"""DP-EM: differentially private expectation-maximisation for Gaussian mixtures.

Following Park et al. (AISTATS 2017) as used by the paper (Section II-D), every
M step perturbs the updated parameters — mixing weights, means, and
covariances — with Gaussian noise whose scale is ``sigma_e`` times their
sensitivity.  Rows are clipped to L2 norm at most ``clip_norm`` (default 1) so
the sensitivity of each statistic is bounded by 1, matching the assumption
under which the paper's Equation (3) moment bound holds.

The per-iteration privacy cost is accounted by
:func:`repro.privacy.accounting.dp_em_moment_bound` /
:class:`repro.privacy.accounting.P3GMAccountant`.
"""

from __future__ import annotations

import numpy as np

from repro.mixture.gmm import VARIANCE_FLOOR, GaussianMixture
from repro.privacy.clipping import clip_rows
from repro.utils.rng import as_generator
from repro.utils.validation import check_array, check_positive

__all__ = ["DPGaussianMixture"]


class DPGaussianMixture(GaussianMixture):
    """Gaussian mixture fitted with the DP-EM algorithm.

    Parameters
    ----------
    sigma:
        Noise scale ``sigma_e`` applied to each released statistic per M step.
    clip_norm:
        L2 bound enforced on input rows so each statistic has sensitivity <= 1.
    n_iter:
        Number of noisy EM iterations ``T_e`` (20 in the paper's experiments).
    """

    def __init__(
        self,
        n_components: int = 3,
        sigma: float = 10.0,
        clip_norm: float = 1.0,
        n_iter: int = 20,
        random_state=None,
    ):
        super().__init__(n_components=n_components, n_iter=n_iter, random_state=random_state)
        check_positive(sigma, "sigma")
        check_positive(clip_norm, "clip_norm")
        self.sigma = sigma
        self.clip_norm = clip_norm

    def fit(self, X) -> "DPGaussianMixture":
        X = check_array(X, "X")
        X = clip_rows(X, self.clip_norm)
        return super().fit(X)

    def _m_step(self, X: np.ndarray, responsibilities: np.ndarray) -> None:
        # Standard maximum-likelihood update...
        super()._m_step(X, responsibilities)
        n_samples = len(X)
        rng = self._rng

        # ...followed by the Gaussian perturbation of each released statistic.
        # Statistics are averages of responsibility-weighted, norm-bounded
        # quantities, so their per-record sensitivity is at most clip_norm / n
        # (<= 1/n with the default clipping); the noise scale follows Park et al.
        noise_scale = self.sigma * self.clip_norm / n_samples

        noisy_weights = self.weights_ + rng.normal(0.0, noise_scale, size=self.weights_.shape)
        noisy_weights = np.clip(noisy_weights, 1e-6, None)
        self.weights_ = noisy_weights / noisy_weights.sum()

        self.means_ = self.means_ + rng.normal(0.0, noise_scale, size=self.means_.shape)

        noisy_cov = self.covariances_ + rng.normal(0.0, noise_scale, size=self.covariances_.shape)
        self.covariances_ = np.maximum(noisy_cov, VARIANCE_FLOOR)
