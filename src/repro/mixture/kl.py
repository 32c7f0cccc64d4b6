"""KL divergences involving Gaussian mixtures.

:func:`kl_gaussian_to_mog` is a *differentiable* (autograd Tensor) variational
upper-bound approximation of ``KL(N(mu, diag sigma^2) || MoG)``, following the
Hershey–Olsen matched-pair approximation the paper cites (Section IV-D).  For
a single-component "mixture" on the left the approximation reduces to
``-log sum_k pi_k exp(-KL(q || N_k))``.  This is the KL term of P3GM's
decoding-phase ELBO (Equation (8), second term).
:func:`kl_diag_gaussian_pair` is the closed-form KL between two diagonal
Gaussians in plain numpy, the reference the tests check the Tensor terms
against.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor
from repro.nn import functional as F

__all__ = ["kl_gaussian_to_mog", "kl_diag_gaussian_pair"]


def kl_diag_gaussian_pair(mu_a, var_a, mu_b, var_b) -> float:
    """Closed-form KL between two diagonal Gaussians (numpy scalars/arrays)."""
    mu_a, var_a = np.asarray(mu_a, float), np.asarray(var_a, float)
    mu_b, var_b = np.asarray(mu_b, float), np.asarray(var_b, float)
    return float(
        0.5
        * np.sum(np.log(var_b) - np.log(var_a) + (var_a + (mu_a - mu_b) ** 2) / var_b - 1.0)
    )


def kl_gaussian_to_mog(mu_q: Tensor, log_var_q: Tensor, weights, means, variances) -> Tensor:
    """Differentiable per-example ``KL(N(mu_q, diag exp(log_var_q)) || MoG)``.

    Parameters
    ----------
    mu_q, log_var_q:
        Tensors of shape ``(batch, d)`` — the encoder's output distribution.
    weights:
        Mixture weights, shape ``(K,)`` (plain numpy; the prior is fixed during
        the decoding phase).
    means, variances:
        Component means and *diagonal* variances, shape ``(K, d)``.

    Returns
    -------
    Tensor of shape ``(batch,)`` with the per-example approximate KL, clipped
    below at 0 (the Hershey–Olsen expression can go slightly negative when the
    encoder's Gaussian is broader than every component).
    """
    weights = np.asarray(weights, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    if weights.ndim != 1 or means.shape[0] != len(weights) or variances.shape != means.shape:
        raise ValueError("inconsistent mixture parameter shapes")

    log_weights = np.log(np.maximum(weights, 1e-12))
    per_component = []
    for k in range(len(weights)):
        kl_k = F.kl_diag_gaussians(
            mu_q, log_var_q, means[k], np.log(variances[k])
        )  # shape (batch,)
        batch = kl_k.shape[0]
        per_component.append((Tensor(np.full(batch, log_weights[k])) - kl_k).reshape(batch, 1))
    stacked = Tensor.concatenate(per_component, axis=1)  # (batch, K)
    kl = -F.logsumexp(stacked, axis=1)
    # The approximation is an estimate of a non-negative quantity.
    return kl.relu()
