"""Logistic regression (binary and multinomial) trained by gradient descent.

One of the four downstream classifiers of the paper's utility protocol
(Tables V and VI).  Training is full-batch gradient descent with L2
regularisation — adequate for the dataset sizes the pipeline evaluates and
free of external dependencies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.special import expit, softmax

from repro.utils.validation import check_X_y, check_array, check_positive

__all__ = ["LogisticRegression"]

#: L2 penalty on the coefficients.
L2_PENALTY = 1e-4


class LogisticRegression:
    """L2-regularised logistic regression (penalty :data:`L2_PENALTY`).

    Parameters
    ----------
    learning_rate, n_iter:
        Gradient-descent schedule.  Full-batch descent from zero weights
        draws no random numbers, so a fit is deterministic.
    """

    def __init__(self, learning_rate: float = 0.1, n_iter: int = 300):
        check_positive(learning_rate, "learning_rate")
        check_positive(n_iter, "n_iter")
        self.learning_rate = learning_rate
        self.n_iter = n_iter

        self.classes_: Optional[np.ndarray] = None
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    def fit(self, X, y) -> "LogisticRegression":
        X, y = check_X_y(X, y)
        self.classes_, y_index = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)
        if n_classes < 2:
            raise ValueError("need at least two classes")

        # Standardise internally for stable conditioning.
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._scale = np.where(std > 1e-12, std, 1.0)
        Xs = (X - self._mean) / self._scale

        n_outputs = 1 if n_classes == 2 else n_classes
        self.coef_ = np.zeros((n_outputs, X.shape[1]))
        self.intercept_ = np.zeros(n_outputs)

        if n_classes == 2:
            targets = y_index.astype(np.float64)
            for _ in range(self.n_iter):
                logits = Xs @ self.coef_[0] + self.intercept_[0]
                probabilities = expit(logits)
                error = probabilities - targets
                grad_w = Xs.T @ error / len(Xs) + L2_PENALTY * self.coef_[0]
                grad_b = error.mean()
                self.coef_[0] -= self.learning_rate * grad_w
                self.intercept_[0] -= self.learning_rate * grad_b
        else:
            onehot = np.eye(n_classes)[y_index]
            for _ in range(self.n_iter):
                logits = Xs @ self.coef_.T + self.intercept_
                probabilities = softmax(logits, axis=1)
                error = probabilities - onehot
                grad_w = error.T @ Xs / len(Xs) + L2_PENALTY * self.coef_
                grad_b = error.mean(axis=0)
                self.coef_ -= self.learning_rate * grad_w
                self.intercept_ -= self.learning_rate * grad_b
        return self

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X, "X")
        Xs = (X - self._mean) / self._scale
        scores = Xs @ self.coef_.T + self.intercept_
        return scores[:, 0] if scores.shape[1] == 1 else scores

    def predict_proba(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        if scores.ndim == 1:
            positive = expit(scores)
            return np.column_stack([1 - positive, positive])
        return softmax(scores, axis=1)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def _check_fitted(self) -> None:
        if self.coef_ is None:
            raise RuntimeError("LogisticRegression is not fitted yet")
