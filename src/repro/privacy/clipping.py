"""Norm clipping utilities.

Clipping bounds the sensitivity of data-dependent quantities:

- per-example gradient clipping for DP-SGD (Abadi et al., Section II-D),
- row-norm clipping used before DP-PCA and DP-EM so that each record's
  contribution to covariance / sufficient statistics has sensitivity at most 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["clip_rows", "per_example_clip", "per_example_scale_factors"]


def clip_rows(X: np.ndarray, max_norm: float = 1.0) -> np.ndarray:
    """Clip every row of ``X`` to L2 norm at most ``max_norm`` (vectorised)."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    scale = np.minimum(1.0, max_norm / np.maximum(norms, 1e-12))
    return X * scale


def per_example_clip(grad_samples: list, max_norm: float) -> list:
    """Clip the concatenated per-example gradient of each example to ``max_norm``.

    ``grad_samples`` is a list of arrays, one per parameter, each of shape
    ``(batch, *param_shape)``.  The clipping norm is computed over the full
    per-example gradient (all parameters concatenated), exactly as DP-SGD
    requires, and the same scaling factor is applied to every parameter's
    slice for that example.

    Returns a list of clipped arrays with the same shapes.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    if not grad_samples:
        return []
    scale = per_example_scale_factors(_concatenated_sq_norms(grad_samples), max_norm)
    clipped = []
    for g in grad_samples:
        shape = (g.shape[0],) + (1,) * (g.ndim - 1)
        clipped.append(g * scale.reshape(shape))
    return clipped


def _concatenated_sq_norms(grad_samples: list) -> np.ndarray:
    """Squared L2 norms of each example's concatenated gradient, shape (batch,)."""
    batch = grad_samples[0].shape[0]
    squared = np.zeros(batch)
    for g in grad_samples:
        if g.shape[0] != batch:
            raise ValueError("inconsistent batch dimension across grad samples")
        squared += (g.reshape(batch, -1) ** 2).sum(axis=1)
    return squared


def per_example_scale_factors(squared_norms: np.ndarray, max_norm: float) -> np.ndarray:
    """Per-example scaling factors that clip gradients of the given squared norms.

    ``scale[b] = min(1, max_norm / norm[b])`` — multiplying example ``b``'s
    full gradient by ``scale[b]`` bounds its L2 norm by ``max_norm``.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norms = np.sqrt(np.asarray(squared_norms, dtype=np.float64))
    return np.minimum(1.0, max_norm / np.maximum(norms, 1e-12))
