"""Rényi differential privacy (RDP) accounting.

Implements the RDP curves used by the P3GM composition theorem (Theorem 4 in
the paper):

- the Gaussian mechanism,
- a pure ``epsilon``-DP mechanism (used for DP-PCA: ``(alpha, 2 alpha eps^2)``-RDP,
  Mironov 2017, Lemma 1 as cited by the paper),
- the subsampled Gaussian mechanism (DP-SGD steps), using the integer-order
  binomial bound of Mironov/Wang for Poisson subsampling,
- conversion from RDP to ``(epsilon, delta)``-DP (Theorem 2 in the paper).

:class:`~repro.privacy.accounting.P3GMAccountant` composes these curves over
its one grid of orders.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from repro.utils.validation import check_positive, check_probability

__all__ = [
    "rdp_gaussian",
    "rdp_from_pure_dp",
    "rdp_subsampled_gaussian",
    "rdp_to_dp",
]


def rdp_gaussian(sigma: float, alpha: float, sensitivity: float = 1.0) -> float:
    """RDP of the Gaussian mechanism at order ``alpha``: ``alpha * s^2 / (2 sigma^2)``."""
    check_positive(sigma, "sigma")
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    return alpha * sensitivity**2 / (2.0 * sigma**2)


def rdp_from_pure_dp(epsilon: float, alpha: float) -> float:
    """RDP curve of a pure ``epsilon``-DP mechanism.

    The paper applies ``2 * alpha * epsilon^2`` to DP-PCA (citing Mironov
    2017, Lemma 1, which holds for small epsilon).  A pure ``epsilon``-DP
    mechanism *also* satisfies ``(alpha, epsilon)``-RDP for every order,
    because the Rényi divergence is upper-bounded by the max divergence.  We
    therefore return ``min(2 alpha epsilon^2, epsilon)`` — never looser than
    the paper's expression, and tight at large orders where the quadratic
    bound becomes vacuous.
    """
    check_positive(epsilon, "epsilon")
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    return min(2.0 * alpha * epsilon**2, epsilon)


def rdp_subsampled_gaussian(
    sample_rate: float, sigma: float, alpha: int
) -> float:
    """RDP of one subsampled-Gaussian (DP-SGD) step at integer order ``alpha``.

    Uses the binomial-expansion upper bound for Poisson subsampling

    ``eps(alpha) = log( sum_k C(alpha,k) (1-q)^(alpha-k) q^k exp(k(k-1)/(2 sigma^2)) ) / (alpha-1)``

    computed in log space for numerical stability.
    """
    check_probability(sample_rate, "sample_rate")
    check_positive(sigma, "sigma")
    if alpha < 2 or int(alpha) != alpha:
        raise ValueError("the subsampled Gaussian bound requires an integer alpha >= 2")
    if sample_rate == 0.0:
        return 0.0
    if sample_rate == 1.0:
        return rdp_gaussian(sigma, alpha)
    alpha = int(alpha)
    q = sample_rate
    k = np.arange(alpha + 1, dtype=np.float64)
    log_binom = gammaln(alpha + 1) - gammaln(k + 1) - gammaln(alpha - k + 1)
    log_terms = (
        log_binom
        + k * math.log(q)
        + (alpha - k) * math.log1p(-q)
        + k * (k - 1) / (2.0 * sigma**2)
    )
    return float(logsumexp(log_terms)) / (alpha - 1)


def rdp_to_dp(rdp_values: Sequence[float], alphas: Sequence[float], delta: float):
    """Convert an RDP curve into ``(epsilon, delta)``-DP (paper Theorem 2).

    Returns ``(epsilon, best_alpha)`` where
    ``epsilon = min_alpha rdp(alpha) + log(1/delta) / (alpha - 1)``.
    """
    check_probability(delta, "delta")
    if delta <= 0:
        raise ValueError("delta must be in (0, 1)")
    rdp_values = np.asarray(rdp_values, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    if rdp_values.shape != alphas.shape:
        raise ValueError("rdp_values and alphas must have the same length")
    eps = rdp_values + math.log(1.0 / delta) / (alphas - 1.0)
    best = int(np.argmin(eps))
    return float(eps[best]), float(alphas[best])
