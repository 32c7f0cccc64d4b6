"""Reference regression tree for the presorted split search in ``repro.ml.tree``.

This is the per-node, per-feature loop that ``DecisionTreeRegressor`` used
before its split search was presorted: every node argsorts each candidate
feature of its own rows, takes prefix sums over that order and keeps the
first feature whose best gain is strictly larger.  It is slow and obviously
right, which is what a reference is for.  ``test_tree_reference.py`` holds
the library tree to it node for node and bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rng import as_generator


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value", "node_id")

    def __init__(self, value: float, node_id: int):
        self.feature: Optional[int] = None
        self.threshold: float = 0.0
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.value = value
        self.node_id = node_id

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class ReferenceTree:
    """Weighted least-squares regression tree, one argsort per node and feature."""

    def __init__(self, max_depth=3, min_samples_split=2, min_samples_leaf=1,
                 max_features=None, random_state=None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = as_generator(random_state)
        self.root_: Optional[_Node] = None
        self.n_leaves_ = 0
        self._node_counter = 0

    def fit(self, X, y, sample_weight=None) -> "ReferenceTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
        self._node_counter = 0
        self.n_leaves_ = 0
        self.root_ = self._grow(X, y, w, depth=0)
        return self

    def _n_features_per_split(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return min(int(self.max_features), n_features)

    def _grow(self, X, y, w, depth: int) -> _Node:
        node = _Node(value=_weighted_mean(y, w), node_id=self._node_counter)
        self._node_counter += 1
        if depth >= self.max_depth or len(y) < self.min_samples_split or _is_constant(y):
            self.n_leaves_ += 1
            return node
        split = self._best_split(X, y, w)
        if split is None:
            self.n_leaves_ += 1
            return node
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], w[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], w[~mask], depth + 1)
        return node

    def _best_split(self, X, y, w):
        n_samples, n_features = X.shape
        k = self._n_features_per_split(n_features)
        features = (
            np.arange(n_features)
            if k == n_features
            else self._rng.choice(n_features, size=k, replace=False)
        )
        best_gain = 1e-12
        best = None
        total_w = w.sum()
        total_wy = (w * y).sum()
        parent_loss = (w * y**2).sum() - total_wy**2 / max(total_w, 1e-12)

        for feature in features:
            order = np.argsort(X[:, feature], kind="mergesort")
            x_sorted = X[order, feature]
            y_sorted = y[order]
            w_sorted = w[order]
            cum_w = np.cumsum(w_sorted)
            cum_wy = np.cumsum(w_sorted * y_sorted)
            cum_wyy = np.cumsum(w_sorted * y_sorted**2)

            candidate = np.arange(self.min_samples_leaf - 1, n_samples - self.min_samples_leaf)
            if len(candidate) == 0:
                continue
            distinct = x_sorted[candidate] < x_sorted[candidate + 1]
            candidate = candidate[distinct]
            if len(candidate) == 0:
                continue

            left_w = cum_w[candidate]
            left_wy = cum_wy[candidate]
            left_wyy = cum_wyy[candidate]
            right_w = total_w - left_w
            right_wy = total_wy - left_wy
            right_wyy = cum_wyy[-1] - left_wyy

            left_loss = left_wyy - left_wy**2 / np.maximum(left_w, 1e-12)
            right_loss = right_wyy - right_wy**2 / np.maximum(right_w, 1e-12)
            gains = parent_loss - (left_loss + right_loss)
            best_index = int(np.argmax(gains))
            if gains[best_index] > best_gain:
                best_gain = gains[best_index]
                position = candidate[best_index]
                threshold = 0.5 * (x_sorted[position] + x_sorted[position + 1])
                best = (int(feature), float(threshold))
        return best

    def apply(self, X) -> np.ndarray:
        """Leaf node ids, walking the tree one row at a time."""
        out = []
        for row in np.asarray(X, dtype=np.float64):
            node = self.root_
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out.append(node.node_id)
        return np.array(out)

    def preorder(self) -> list:
        """``(node_id, feature, threshold, value)`` per node in pre-order; ``-1`` marks a leaf."""
        nodes, stack = [], [self.root_]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                nodes.append((node.node_id, -1, None, node.value))
            else:
                nodes.append((node.node_id, node.feature, node.threshold, node.value))
                stack.extend([node.right, node.left])
        return nodes


def _weighted_mean(y: np.ndarray, w: np.ndarray) -> float:
    total = w.sum()
    if total <= 0:
        return float(y.mean()) if len(y) else 0.0
    return float((w * y).sum() / total)


def _is_constant(y: np.ndarray) -> bool:
    return len(y) == 0 or float(y.max() - y.min()) < 1e-12
