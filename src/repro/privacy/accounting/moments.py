"""Moments-accountant bounds used by the paper.

The paper composes three differentially private components and cites two
per-step moment bounds:

- Equation (3): the DP-EM bound of Park et al.,
  ``MA_DP-EM(lambda) <= (2K + 1)(lambda^2 + lambda) / (2 sigma_e^2)``.
- Equation (4): the DP-SGD bound of Abadi et al. for the subsampled Gaussian
  mechanism, an explicit series in the sampling probability ``s`` and noise
  multiplier ``sigma_s``.

Theorem 3 in the paper turns a moment bound into RDP:
a mechanism with ``lambda``-th moment ``MA(lambda)`` satisfies
``(lambda + 1, MA(lambda)/lambda)``-RDP; the P3GM accountant applies it to
the DP-EM bound.
"""

from __future__ import annotations

import math

from repro.utils.validation import check_positive, check_probability

__all__ = [
    "dp_em_moment_bound",
    "dp_sgd_moment_bound",
    "moments_epsilon",
]


def _double_factorial(n: int) -> float:
    """Return ``n!!``; by convention ``0!! = (-1)!! = 1``."""
    if n <= 0:
        return 1.0
    result = 1.0
    while n > 1:
        result *= n
        n -= 2
    return result


def dp_em_moment_bound(n_components: int, sigma_e: float, lam: int) -> float:
    """Paper Eq. (3): per-iteration moment bound of DP-EM with ``K`` components."""
    check_positive(sigma_e, "sigma_e")
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    if lam < 1:
        raise ValueError("lam must be >= 1")
    return (2 * n_components + 1) * (lam**2 + lam) / (2.0 * sigma_e**2)


def dp_sgd_moment_bound(sample_rate: float, sigma_s: float, lam: int) -> float:
    """Paper Eq. (4): per-step moment bound of DP-SGD (Abadi et al.).

    ``sample_rate`` is the probability ``s`` that a given record is in the
    batch, ``sigma_s`` the noise multiplier, ``lam`` the moment order.
    """
    check_probability(sample_rate, "sample_rate")
    check_positive(sigma_s, "sigma_s")
    if lam < 1:
        raise ValueError("lam must be >= 1")
    s = sample_rate
    if s == 0.0:
        return 0.0
    if s >= 1.0:
        # The series assumes s < 1; fall back to the unsampled Gaussian moment.
        return lam * (lam + 1) / (2.0 * sigma_s**2)

    total = s**2 * lam * (lam - 1) / ((1.0 - s) * sigma_s**2)
    for t in range(3, lam + 2):
        dfact = _double_factorial(t - 1)
        try:
            term1 = (2 * s) ** t * dfact / (2.0 * (1.0 - s) ** (t - 1) * sigma_s**t)
            term2 = s**t / ((1.0 - s) ** t * sigma_s ** (2 * t))
            term3 = (
                (2 * s) ** t
                * math.exp((t**2 - t) / (2.0 * sigma_s**2))
                * (sigma_s**t * dfact + float(t) ** t)
                / (2.0 * (1.0 - s) ** (t - 1) * sigma_s ** (2 * t))
            )
        except OverflowError:
            # For large moment orders the series diverges numerically; the bound
            # is vacuous there, so report +inf and let the accountant's
            # minimisation over orders ignore it.
            return math.inf
        total += term1 + term2 + term3
        if not math.isfinite(total):
            return math.inf
    return total


def moments_epsilon(total_moments, lams, delta: float):
    """Convert composed moment bounds to ``(epsilon, delta)``-DP.

    Abadi et al.'s tail bound:  ``delta = min_lam exp(MA(lam) - lam * eps)``,
    i.e. ``eps = min_lam (MA(lam) + log(1/delta)) / lam``.
    Returns ``(epsilon, best_lambda)``.
    """
    check_probability(delta, "delta")
    if delta <= 0:
        raise ValueError("delta must be in (0, 1)")
    best_eps = math.inf
    best_lam = None
    for ma, lam in zip(total_moments, lams):
        eps = (ma + math.log(1.0 / delta)) / lam
        if eps < best_eps:
            best_eps = eps
            best_lam = lam
    return best_eps, best_lam
