"""Weight initialisation schemes for the neural layers."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["kaiming_uniform", "zeros"]


def kaiming_uniform(shape, rng=None) -> np.ndarray:
    """He/Kaiming uniform initialisation of a ``(fan_in, fan_out)`` matrix,
    suited to ReLU networks."""
    rng = as_generator(rng)
    limit = np.sqrt(6.0 / shape[0])
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape) -> np.ndarray:
    """All-zero initialisation (used for biases)."""
    return np.zeros(shape)
