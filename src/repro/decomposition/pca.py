"""Principal component analysis via eigendecomposition of the covariance matrix.

This is the non-private dimensionality reduction ``f`` used by PGM (the
non-private phased model); its differentially private counterpart is
:class:`repro.decomposition.DPPCA`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_array

__all__ = ["PCA"]


class PCA:
    """Linear dimensionality reduction keeping the top ``n_components`` directions.

    Attributes
    ----------
    components_:
        Array of shape ``(n_components, n_features)``; rows are principal axes.
    explained_variance_:
        Eigenvalues associated with each kept component.
    mean_:
        Per-feature mean used for centering.  The paper assumes the mean is
        publicly available (Section II-D footnote); callers that need a private
        mean can pass ``mean`` explicitly.
    """

    def __init__(self, n_components: int, mean: Optional[np.ndarray] = None):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = n_components
        self._given_mean = None if mean is None else np.asarray(mean, dtype=np.float64)
        self.components_: Optional[np.ndarray] = None
        self.explained_variance_: Optional[np.ndarray] = None
        self.mean_: Optional[np.ndarray] = None

    # -- fitting -----------------------------------------------------------------

    def fit(self, X) -> "PCA":
        X = check_array(X, "X")
        n_samples, n_features = X.shape
        if self.n_components > n_features:
            raise ValueError(
                f"n_components={self.n_components} exceeds data dimensionality {n_features}"
            )
        self.mean_ = self._given_mean if self._given_mean is not None else X.mean(axis=0)
        centered = X - self.mean_
        covariance = centered.T @ centered / n_samples
        self._finalise(covariance)
        return self

    def _finalise(self, covariance: np.ndarray) -> None:
        """Eigendecompose a covariance estimate and keep the top components."""
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        order = np.argsort(eigenvalues)[::-1][: self.n_components]
        self.explained_variance_ = np.maximum(eigenvalues[order], 0.0)
        self.components_ = eigenvectors[:, order].T

    # -- transforms -----------------------------------------------------------------

    def transform(self, X) -> np.ndarray:
        """Project data onto the principal subspace."""
        self._check_fitted()
        X = check_array(X, "X")
        return (X - self.mean_) @ self.components_.T

    def _check_fitted(self) -> None:
        if self.components_ is None:
            raise RuntimeError("PCA instance is not fitted yet; call fit() first")
