"""Preprocessing utilities used by the evaluation pipeline.

The generative models expect features in ``[0, 1]`` (Bernoulli decoders).
The scaler here is a thin alias of the shared numeric column transform in
:mod:`repro.transforms` — one implementation of the arithmetic serves the
datasets, the evaluation pipeline, and mixed-type table preprocessing — kept
under its historical name for the sklearn-style API.  It raises the same
not-fitted ``RuntimeError`` from ``transform`` *and* ``inverse_transform``.
"""

from __future__ import annotations

import numpy as np

from repro.transforms.column import MinMaxNumeric
from repro.utils.rng import as_generator

__all__ = ["MinMaxScaler", "train_test_split"]


class MinMaxScaler(MinMaxNumeric):
    """Scale features to ``[0, 1]`` column-wise (constant columns map to 0)."""


def train_test_split(X, y, test_size: float = 0.1, stratify: bool = True, random_state=None):
    """Split ``(X, y)`` into train and test partitions.

    ``stratify=True`` keeps the label ratio identical in both splits, which the
    paper's protocol relies on for the heavily imbalanced Kaggle Credit data.
    Returns ``(X_train, X_test, y_train, y_test)``.
    """
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    X = np.asarray(X)
    y = np.asarray(y)
    if len(X) != len(y):
        raise ValueError("X and y have inconsistent lengths")
    rng = as_generator(random_state)

    if stratify:
        test_indices = []
        for label in np.unique(y):
            members = np.flatnonzero(y == label)
            members = rng.permutation(members)
            n_test = max(1, int(round(test_size * len(members))))
            test_indices.append(members[:n_test])
        test_index = np.concatenate(test_indices)
    else:
        order = rng.permutation(len(X))
        test_index = order[: max(1, int(round(test_size * len(X))))]

    mask = np.zeros(len(X), dtype=bool)
    mask[test_index] = True
    return X[~mask], X[mask], y[~mask], y[mask]
