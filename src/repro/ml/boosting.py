"""Boosted tree ensembles: AdaBoost and gradient boosting (binary classification).

These stand in for sklearn's AdaBoostClassifier / GradientBoostingClassifier
in the paper's utility protocol.  Both are binary classifiers (the paper uses
them only on the binary tabular datasets; the image tasks use the MLP/CNN
classifier instead).  Each ``fit`` sorts the feature columns once
(``repro.ml.tree.SortedColumns``) and grows every tree from that presort: the
same trees, bit for bit, as trees that sort for themselves.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.special import expit

from repro.ml.tree import DecisionTreeRegressor, SortedColumns
from repro.utils.rng import as_generator
from repro.utils.validation import check_X_y, check_array, check_positive

__all__ = ["AdaBoostClassifier", "GradientBoostingClassifier"]


class _BinaryClassifierBase:
    """Shared label handling for binary ensemble classifiers."""

    classes_: Optional[np.ndarray] = None

    def _encode_labels(self, y: np.ndarray) -> np.ndarray:
        self.classes_, y_index = np.unique(y, return_inverse=True)
        if len(self.classes_) != 2:
            raise ValueError(f"{type(self).__name__} supports binary classification only")
        return y_index

    def predict_proba(self, X) -> np.ndarray:
        positive = self.predict_score(X)
        return np.column_stack([1.0 - positive, positive])

    def predict(self, X) -> np.ndarray:
        return self.classes_[(self.predict_score(X) >= 0.5).astype(int)]

    def predict_score(self, X) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class AdaBoostClassifier(_BinaryClassifierBase):
    """Discrete AdaBoost with decision stumps as weak learners."""

    def __init__(self, n_estimators: int = 50, max_depth: int = 1, random_state=None):
        check_positive(n_estimators, "n_estimators")
        check_positive(max_depth, "max_depth")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self._rng = as_generator(random_state)
        self.estimators_: list = []
        self.estimator_weights_: list = []

    def fit(self, X, y) -> "AdaBoostClassifier":
        X, y = check_X_y(X, y)
        y_index = self._encode_labels(y)
        signs = 2.0 * y_index - 1.0  # {-1, +1}
        weights = np.full(len(y), 1.0 / len(y))
        columns = SortedColumns(X)
        self.estimators_ = []
        self.estimator_weights_ = []

        for _ in range(self.n_estimators):
            stump = DecisionTreeRegressor(
                max_depth=self.max_depth, min_samples_leaf=1, random_state=self._rng
            )
            stump.fit_sorted(columns, signs, sample_weight=weights)
            predictions = np.sign(stump.predict(X))
            predictions[predictions == 0] = 1.0
            misclassified = predictions != signs
            error = float(np.sum(weights * misclassified))
            error = min(max(error, 1e-10), 1 - 1e-10)
            alpha = 0.5 * np.log((1 - error) / error)
            weights = weights * np.exp(-alpha * signs * predictions)
            weights /= weights.sum()
            self.estimators_.append(stump)
            self.estimator_weights_.append(alpha)
            if error < 1e-9:
                break
        return self

    def decision_function(self, X) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("AdaBoostClassifier is not fitted yet")
        X = check_array(X, "X")
        total = np.zeros(len(X))
        for stump, alpha in zip(self.estimators_, self.estimator_weights_):
            predictions = np.sign(stump.predict(X))
            predictions[predictions == 0] = 1.0
            total += alpha * predictions
        return total

    def predict_score(self, X) -> np.ndarray:
        # Squash the margin into (0, 1) so it can be used as a ranking score.
        return expit(self.decision_function(X))


class GradientBoostingClassifier(_BinaryClassifierBase):
    """Gradient boosting with logistic loss and regression-tree base learners.

    Defaults mirror the paper's sklearn configuration where it matters for
    behaviour: ``max_features="sqrt"``, ``max_depth=8``, ``min_samples_leaf=50``,
    ``min_samples_split=200`` (the ensemble size and learning rate are scaled
    down to keep pure-Python training time reasonable).
    """

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 8,
        min_samples_leaf: int = 50,
        min_samples_split: int = 200,
        max_features="sqrt",
        random_state=None,
    ):
        check_positive(n_estimators, "n_estimators")
        check_positive(learning_rate, "learning_rate")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self._rng = as_generator(random_state)
        self.estimators_: list = []
        self.initial_log_odds_: float = 0.0

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = check_X_y(X, y)
        y_index = self._encode_labels(y).astype(np.float64)
        positive_rate = np.clip(y_index.mean(), 1e-6, 1 - 1e-6)
        self.initial_log_odds_ = float(np.log(positive_rate / (1 - positive_rate)))
        raw = np.full(len(y), self.initial_log_odds_)
        columns = SortedColumns(X)
        self.estimators_ = []

        for _ in range(self.n_estimators):
            probabilities = expit(raw)
            residuals = y_index - probabilities  # negative gradient of log-loss
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                min_samples_split=self.min_samples_split,
                max_features=self.max_features,
                random_state=self._rng,
            )
            tree.fit_sorted(columns, residuals)
            raw = raw + self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)
        return self

    def decision_function(self, X) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("GradientBoostingClassifier is not fitted yet")
        X = check_array(X, "X")
        raw = np.full(len(X), self.initial_log_odds_)
        for tree in self.estimators_:
            raw += self.learning_rate * tree.predict(X)
        return raw

    def predict_score(self, X) -> np.ndarray:
        return expit(self.decision_function(X))
