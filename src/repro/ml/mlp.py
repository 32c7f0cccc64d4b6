"""Multi-layer perceptron classifier built on :mod:`repro.nn`.

Stands in for the small CNN the paper trains on the image datasets (Table VII,
Figure 5, Figure 7c).  The evaluation compares generative models against each
other with a *fixed* downstream classifier, so an MLP on flattened pixels
preserves the comparison.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import MLP, Adam, Tensor, no_grad
from repro.nn import functional as F
from repro.utils.rng import as_generator
from repro.utils.validation import check_X_y, check_array, check_positive

__all__ = ["MLPClassifier"]


class MLPClassifier:
    """Softmax MLP classifier with dropout, trained with Adam."""

    def __init__(
        self,
        hidden: tuple = (128,),
        epochs: int = 20,
        batch_size: int = 128,
        learning_rate: float = 1e-3,
        dropout: float = 0.2,
        random_state=None,
    ):
        check_positive(epochs, "epochs")
        check_positive(batch_size, "batch_size")
        check_positive(learning_rate, "learning_rate")
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.dropout = dropout
        self._rng = as_generator(random_state)
        self.classes_: Optional[np.ndarray] = None
        self.network_: Optional[MLP] = None

    def fit(self, X, y) -> "MLPClassifier":
        X, y = check_X_y(X, y)
        self.classes_, y_index = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)
        if n_classes < 2:
            raise ValueError("need at least two classes")
        onehot = np.eye(n_classes)[y_index]

        self.network_ = MLP(
            X.shape[1], self.hidden, n_classes, dropout=self.dropout, rng=self._rng
        )
        optimizer = Adam(list(self.network_.parameters()), lr=self.learning_rate)
        n_samples = len(X)
        batch_size = min(self.batch_size, n_samples)
        self.network_.train()
        for _ in range(self.epochs):
            order = self._rng.permutation(n_samples)
            for start in range(0, n_samples, batch_size):
                index = order[start : start + batch_size]
                optimizer.zero_grad()
                logits = self.network_(Tensor(X[index]))
                loss = F.cross_entropy(logits, onehot[index])
                loss.backward()
                optimizer.step()
        self.network_.eval()
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.network_ is None:
            raise RuntimeError("MLPClassifier is not fitted yet")
        X = check_array(X, "X")
        with no_grad():
            logits = self.network_(Tensor(X))
            probabilities = F.softmax(logits, axis=-1).data
        return probabilities

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def predict_score(self, X) -> np.ndarray:
        """Positive-class probability (binary problems only)."""
        proba = self.predict_proba(X)
        if proba.shape[1] != 2:
            raise ValueError("predict_score is only defined for binary problems")
        return proba[:, 1]
