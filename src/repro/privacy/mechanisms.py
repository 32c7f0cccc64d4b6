"""Basic differentially private mechanisms.

Implements the noise mechanisms the paper relies on outside DP-SGD and DP-EM
(which draw their Gaussian noise inline):

- the **Laplace mechanism** (used by the PrivBayes and DP-GM baselines),
- the **Wishart noise** of the covariance mechanism used by DP-PCA
  (Jiang et al., AAAI 2016).

Each function takes an explicit sensitivity and privacy parameter so the
calling code documents its own sensitivity analysis.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["laplace_mechanism", "wishart_noise"]


def laplace_mechanism(value, epsilon: float, sensitivity: float = 1.0, rng=None) -> np.ndarray:
    """Add Laplace noise of scale ``sensitivity / epsilon`` to ``value``."""
    check_positive(epsilon, "epsilon")
    check_positive(sensitivity, "sensitivity")
    rng = as_generator(rng)
    value = np.asarray(value, dtype=np.float64)
    return value + rng.laplace(0.0, sensitivity / epsilon, size=value.shape)


def wishart_noise(dim: int, epsilon: float, n_samples: int, rng=None) -> np.ndarray:
    """Draw the Wishart noise matrix of the DP-PCA mechanism.

    Following Jiang et al. (and the paper's Section II-D), the noise is
    ``W ~ Wishart_d(d + 1, C)`` where ``C`` is a scale matrix with ``d`` equal
    eigenvalues ``3 / (2 n epsilon)``.  Adding ``W`` to the empirical
    covariance matrix (computed from rows with ``||x||_2 <= 1``) gives an
    ``(epsilon, 0)``-DP covariance estimate.

    Parameters
    ----------
    dim:
        Data dimensionality ``d``.
    epsilon:
        Privacy budget of the covariance release.
    n_samples:
        Number of rows ``n`` used to form the covariance matrix.
    """
    check_positive(epsilon, "epsilon")
    check_positive(n_samples, "n_samples")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = as_generator(rng)
    scale_eigenvalue = 3.0 / (2.0 * n_samples * epsilon)
    degrees_of_freedom = dim + 1
    # Wishart_d(df, c*I) sample: c * (G @ G.T) with G a (d, df) standard normal matrix.
    gaussian = rng.normal(size=(dim, degrees_of_freedom))
    return scale_eigenvalue * (gaussian @ gaussian.T)
