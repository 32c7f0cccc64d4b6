"""A second-order (XGBoost-style) gradient-boosting classifier.

Stands in for the ``xgboost`` package in the paper's utility protocol.  Each
round fits a regression tree to the negative gradients of the logistic loss,
then replaces the leaf values with the Newton step
``-sum(grad) / (sum(hess) + LEAF_L2)`` — the core of XGBoost's objective —
so the ensemble benefits from second-order information and L2 leaf
regularisation.  As in XGBoost's exact greedy algorithm, ``fit`` sorts the
columns once; each round passes its row subsample to the tree as indices into
that presort rather than copying and re-sorting ``X[chosen]``, and grows the
same tree bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from repro.ml.boosting import _BinaryClassifierBase
from repro.ml.tree import DecisionTreeRegressor, SortedColumns
from repro.utils.rng import as_generator
from repro.utils.validation import check_X_y, check_array, check_positive

__all__ = ["XGBClassifier"]

#: L2 regularisation on leaf weights (XGBoost's lambda).
LEAF_L2 = 1.0


class XGBClassifier(_BinaryClassifierBase):
    """Second-order boosted trees with logistic loss.

    Parameters
    ----------
    subsample:
        Row subsampling rate per boosting round.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.3,
        max_depth: int = 4,
        subsample: float = 1.0,
        max_features=None,
        random_state=None,
    ):
        check_positive(n_estimators, "n_estimators")
        check_positive(learning_rate, "learning_rate")
        if not 0 < subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.max_features = max_features
        self._rng = as_generator(random_state)
        self.estimators_: list = []
        self.base_score_: float = 0.0

    def fit(self, X, y) -> "XGBClassifier":
        X, y = check_X_y(X, y)
        y_index = self._encode_labels(y).astype(np.float64)
        self.base_score_ = 0.0
        raw = np.zeros(len(y))
        columns = SortedColumns(X)
        self.estimators_ = []

        for _ in range(self.n_estimators):
            probabilities = expit(raw)
            grad = probabilities - y_index
            hess = probabilities * (1.0 - probabilities)

            rows = np.arange(len(y))
            if self.subsample < 1.0:
                chosen = self._rng.random(len(y)) < self.subsample
                if chosen.sum() >= 10:
                    rows = np.flatnonzero(chosen)

            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=5,
                max_features=self.max_features,
                random_state=self._rng,
            )
            tree.fit_sorted(columns, -grad, rows=rows)

            # Newton leaf weights: -G / (H + lambda) computed per leaf.
            leaves = tree.apply(X)
            round_leaves = leaves[rows]
            for leaf in np.unique(round_leaves):
                members = rows[round_leaves == leaf]
                tree.value_[leaf] = -grad[members].sum() / (hess[members].sum() + LEAF_L2)

            raw = raw + self.learning_rate * tree.value_[leaves]
            self.estimators_.append(tree)
        return self

    def decision_function(self, X) -> np.ndarray:
        if not self.estimators_:
            raise RuntimeError("XGBClassifier is not fitted yet")
        X = check_array(X, "X")
        raw = np.full(len(X), self.base_score_)
        for tree in self.estimators_:
            raw += self.learning_rate * tree.predict(X)
        return raw

    def predict_score(self, X) -> np.ndarray:
        return expit(self.decision_function(X))
