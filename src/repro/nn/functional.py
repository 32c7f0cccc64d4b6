"""Functional building blocks composed from autograd primitives.

These functions operate on :class:`repro.nn.Tensor` objects and are fully
differentiable.  They are the pieces the generative models assemble their
objective functions from (reconstruction terms, KL terms, classifier losses).
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor

__all__ = [
    "logsumexp",
    "softmax",
    "log_softmax",
    "binary_cross_entropy",
    "kl_standard_normal",
    "kl_diag_gaussians",
    "cross_entropy",
]

_EPS = 1e-12


def _t(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- softmax family --------------------------------------------------------------


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` along ``axis``."""
    x = _t(x)
    x_max = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - x_max
    out = shifted.exp().sum(axis=axis, keepdims=True).log() + x_max
    if not keepdims:
        out = out.reshape(np.squeeze(out.data, axis=axis).shape)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _t(x)
    x_max = Tensor(x.data.max(axis=axis, keepdims=True))
    e = (x - x_max).exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _t(x)
    return x - logsumexp(x, axis=axis, keepdims=True)


# -- losses --------------------------------------------------------------------


def binary_cross_entropy(
    probs: Tensor, targets, reduction: str = "mean", axis=None
) -> Tensor:
    """BCE on probabilities.  ``targets`` may be a Tensor or ndarray."""
    probs = _t(probs).clip(_EPS, 1.0 - _EPS)
    targets = _t(targets)
    loss = -(targets * probs.log() + (1.0 - targets) * (1.0 - probs).log())
    return _reduce(loss, reduction, axis)


def kl_standard_normal(mu: Tensor, log_var: Tensor, reduction: str = "mean") -> Tensor:
    """KL( N(mu, exp(log_var)) || N(0, I) ), summed over the latent dimension.

    This is the VAE KL term: ``-0.5 * sum(1 + log_var - mu^2 - exp(log_var))``.
    """
    mu = _t(mu)
    log_var = _t(log_var)
    per_dim = -0.5 * (1.0 + log_var - mu**2 - log_var.exp())
    per_example = per_dim.sum(axis=-1)
    return _reduce(per_example, reduction, axis=None)


def kl_diag_gaussians(
    mu_q: Tensor, log_var_q: Tensor, mu_p, log_var_p
) -> Tensor:
    """KL( N(mu_q, diag exp(log_var_q)) || N(mu_p, diag exp(log_var_p)) ).

    Returns the per-example KL (summed over the latent dimension), leaving the
    batch dimension intact so DP-SGD can treat it as a per-example loss term.
    ``mu_p``/``log_var_p`` may broadcast against the batch.
    """
    mu_q, log_var_q = _t(mu_q), _t(log_var_q)
    mu_p, log_var_p = _t(mu_p), _t(log_var_p)
    var_q = log_var_q.exp()
    var_p = log_var_p.exp()
    per_dim = 0.5 * (
        log_var_p - log_var_q + (var_q + (mu_q - mu_p) ** 2) / var_p - 1.0
    )
    return per_dim.sum(axis=-1)


def cross_entropy(logits: Tensor, targets_onehot, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy with one-hot targets."""
    logp = log_softmax(_t(logits), axis=-1)
    per_example = -(logp * _t(targets_onehot)).sum(axis=-1)
    return _reduce(per_example, reduction, axis=None)


# -- reduction helper -----------------------------------------------------------


def _reduce(loss: Tensor, reduction: str, axis) -> Tensor:
    if reduction == "none":
        return loss
    if reduction == "mean":
        return loss.mean(axis=axis) if axis is not None else loss.mean()
    if reduction == "sum":
        return loss.sum(axis=axis) if axis is not None else loss.sum()
    raise ValueError(f"unknown reduction {reduction!r}")
