"""Gaussian mixture models fitted with expectation-maximisation.

The mixture of Gaussians is the latent prior ``r_lambda(z)`` of P3GM's
Encoding Phase.  Covariances are diagonal, so the decoding-phase KL term has
a cheap closed form.  The implementation provides responsibility-based E
steps, log-density evaluation, and ancestral sampling (used by the
data-synthesis procedure: draw ``z ~ MoG(lambda)``, then decode).

The differentially private estimator (DP-EM, Park et al.) extends the M step
with Gaussian noise; see :mod:`repro.mixture.dp_em`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.special import logsumexp

from repro.utils.rng import as_generator
from repro.utils.validation import check_array

__all__ = ["GaussianMixture"]

_LOG_2PI = float(np.log(2.0 * np.pi))

#: Variance floor added to covariance diagonals for numerical stability.
VARIANCE_FLOOR = 1e-6


class GaussianMixture:
    """Mixture of Gaussians estimated by EM.

    Parameters
    ----------
    n_components:
        Number of mixture components ``K`` (the paper's ``d_m``; 3 in the
        experiments).
    n_iter:
        Number of EM iterations (``T_e``).

    Every covariance diagonal carries :data:`VARIANCE_FLOOR`.
    """

    def __init__(
        self,
        n_components: int = 3,
        n_iter: int = 50,
        random_state=None,
    ):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        if n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        self.n_components = n_components
        self.n_iter = n_iter
        self._rng = as_generator(random_state)

        self.weights_: Optional[np.ndarray] = None
        self.means_: Optional[np.ndarray] = None
        #: Per-component diagonal variances, shape ``(n_components, n_features)``.
        self.covariances_: Optional[np.ndarray] = None

    # -- initialisation ------------------------------------------------------------

    def _initialise(self, X: np.ndarray) -> None:
        n_samples, n_features = X.shape
        indices = self._rng.choice(n_samples, size=self.n_components, replace=False)
        self.means_ = X[indices].copy()
        self.weights_ = np.full(self.n_components, 1.0 / self.n_components)
        global_var = X.var(axis=0) + VARIANCE_FLOOR
        self.covariances_ = np.tile(global_var, (self.n_components, 1))

    # -- densities --------------------------------------------------------------------

    def _component_log_density(self, X: np.ndarray) -> np.ndarray:
        """Log density of each sample under each component; shape (n, K)."""
        n_samples, n_features = X.shape
        log_prob = np.empty((n_samples, self.n_components))
        for k in range(self.n_components):
            diff = X - self.means_[k]
            var = self.covariances_[k]
            log_det = np.sum(np.log(var))
            maha = np.sum(diff**2 / var, axis=1)
            log_prob[:, k] = -0.5 * (n_features * _LOG_2PI + log_det + maha)
        return log_prob

    def score_samples(self, X) -> np.ndarray:
        """Log density of each sample under the mixture."""
        self._check_fitted()
        X = check_array(X, "X")
        weighted = self._component_log_density(X) + np.log(self.weights_)
        return logsumexp(weighted, axis=1)

    def score(self, X) -> float:
        """Mean log-likelihood of ``X``."""
        return float(np.mean(self.score_samples(X)))

    # -- EM -------------------------------------------------------------------------------

    def fit(self, X) -> "GaussianMixture":
        X = check_array(X, "X")
        if len(X) < self.n_components:
            raise ValueError("need at least n_components samples to fit the mixture")
        self._initialise(X)
        for _ in range(self.n_iter):
            responsibilities = self._e_step(X)
            self._m_step(X, responsibilities)
        return self

    def _e_step(self, X: np.ndarray) -> np.ndarray:
        """Posterior responsibilities ``p(component | x)``; shape (n, K)."""
        weighted = self._component_log_density(X) + np.log(self.weights_)
        weighted -= logsumexp(weighted, axis=1, keepdims=True)
        return np.exp(weighted)

    def _m_step(self, X: np.ndarray, responsibilities: np.ndarray) -> None:
        counts = responsibilities.sum(axis=0) + 1e-12
        self.weights_ = counts / counts.sum()
        self.means_ = (responsibilities.T @ X) / counts[:, None]
        covariances = np.empty_like(self.means_)
        for k in range(self.n_components):
            diff = X - self.means_[k]
            covariances[k] = (responsibilities[:, k] @ diff**2) / counts[k]
        self.covariances_ = covariances + VARIANCE_FLOOR

    # -- sampling -----------------------------------------------------------------------------

    def sample(self, n_samples: int, rng=None):
        """Draw ``n_samples`` from the mixture; returns ``(samples, component_labels)``."""
        self._check_fitted()
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        rng = self._rng if rng is None else as_generator(rng)
        labels = rng.choice(self.n_components, size=n_samples, p=self.weights_)
        n_features = self.means_.shape[1]
        samples = np.empty((n_samples, n_features))
        for k in range(self.n_components):
            mask = labels == k
            count = int(mask.sum())
            if count == 0:
                continue
            std = np.sqrt(self.covariances_[k])
            samples[mask] = self.means_[k] + rng.normal(size=(count, n_features)) * std
        return samples, labels

    # -- parameter access ------------------------------------------------------------------------

    def set_parameters(self, weights, means, covariances) -> "GaussianMixture":
        """Directly set mixture parameters (used by DP-EM and deserialisation)."""
        weights = np.asarray(weights, dtype=np.float64)
        means = np.asarray(means, dtype=np.float64)
        covariances = np.asarray(covariances, dtype=np.float64)
        if weights.shape != (self.n_components,):
            raise ValueError("weights have the wrong shape")
        if means.shape[0] != self.n_components:
            raise ValueError("means have the wrong shape")
        if covariances.shape != means.shape:
            raise ValueError(
                f"covariances have shape {covariances.shape}; the means' is {means.shape}"
            )
        if not (np.isfinite(covariances).all() and (covariances > 0).all()):
            raise ValueError("variances must be finite and positive")
        if (weights < 0).any() or not np.isclose(weights.sum(), 1.0):
            raise ValueError("weights must be non-negative and sum to 1")
        self.weights_ = weights
        self.means_ = means
        self.covariances_ = covariances
        return self

    def _check_fitted(self) -> None:
        if self.weights_ is None:
            raise RuntimeError("GaussianMixture is not fitted yet; call fit() first")
