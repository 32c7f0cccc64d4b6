"""Differentially private PCA via the Wishart mechanism (Jiang et al., AAAI'16).

The mechanism releases a noisy covariance matrix ``A + W`` where ``W`` follows
a Wishart distribution whose scale depends on the privacy budget, then runs
ordinary eigendecomposition on the noisy matrix.  Because each record is
assumed to have L2 norm at most 1 (we clip rows to enforce it), computing the
noisy covariance satisfies ``(epsilon, 0)``-DP, and by post-processing so does
the resulting projection.

This is the dimensionality reduction ``f`` of P3GM's Encoding Phase
(Algorithm 1, line 1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.decomposition.pca import PCA
from repro.privacy.mechanisms import wishart_noise
from repro.utils.rng import as_generator
from repro.utils.validation import check_array, check_positive

__all__ = ["DPPCA"]


class DPPCA(PCA):
    """Wishart-mechanism differentially private PCA.

    Parameters
    ----------
    n_components:
        Output dimensionality ``d'``.
    epsilon:
        Pure-DP budget of the covariance release (``epsilon_p`` in the paper;
        the experiments use 0.1).
    clip_norm:
        Rows are scaled to have L2 norm at most this value before computing the
        covariance so the mechanism's sensitivity analysis holds.  The default
        of 1.0 matches the mechanism's assumption.
    mean:
        Optional publicly known per-feature mean used for centering (the paper
        assumes the mean is public; see Section II-D).
    """

    def __init__(
        self,
        n_components: int,
        epsilon: float = 0.1,
        clip_norm: float = 1.0,
        mean: Optional[np.ndarray] = None,
        random_state=None,
    ):
        super().__init__(n_components, mean=mean)
        check_positive(epsilon, "epsilon")
        check_positive(clip_norm, "clip_norm")
        self.epsilon = epsilon
        self.clip_norm = clip_norm
        self._rng = as_generator(random_state)

    def fit(self, X) -> "DPPCA":
        from repro.privacy.clipping import clip_rows

        X = check_array(X, "X")
        n_samples, n_features = X.shape
        if self.n_components > n_features:
            raise ValueError(
                f"n_components={self.n_components} exceeds data dimensionality {n_features}"
            )
        self.mean_ = self._given_mean if self._given_mean is not None else X.mean(axis=0)
        centered = clip_rows(X - self.mean_, self.clip_norm)
        covariance = centered.T @ centered / n_samples
        noisy_covariance = covariance + wishart_noise(
            n_features, self.epsilon, n_samples, rng=self._rng
        )
        self._finalise(noisy_covariance)
        return self

    def transform(self, X) -> np.ndarray:
        """Project (clipped, centered) data onto the noisy principal subspace."""
        from repro.privacy.clipping import clip_rows

        self._check_fitted()
        X = check_array(X, "X")
        return clip_rows(X - self.mean_, self.clip_norm) @ self.components_.T
