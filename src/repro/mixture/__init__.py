"""``repro.mixture`` — Gaussian mixtures, DP-EM, and Gaussian-mixture KL terms."""

from repro.mixture.dp_em import DPGaussianMixture
from repro.mixture.gmm import GaussianMixture
from repro.mixture.kl import kl_diag_gaussian_pair, kl_gaussian_to_mog

__all__ = [
    "GaussianMixture",
    "DPGaussianMixture",
    "kl_gaussian_to_mog",
    "kl_diag_gaussian_pair",
]
