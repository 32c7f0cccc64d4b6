"""Decision-tree regressor used as the weak learner for the boosted ensembles.

The tree is a CART-style regressor with weighted squared-error splitting,
``max_depth`` / ``min_samples_split`` / ``min_samples_leaf`` regularisation and
optional per-split feature subsampling (``max_features="sqrt"``) — the
parameters the paper sets on sklearn's GradientBoostingClassifier.

Split search is presorted, as in XGBoost's exact greedy algorithm (Chen &
Guestrin, KDD 2016, §4.1): ``SortedColumns`` stable-sorts each column once per
ensemble ``fit``, and a node filters that order by its row-membership mask,
which is exactly the stable sort of the node's rows.  Each pass scores 32
features with axis-1 prefix sums of ``w``, ``w*y``, ``w*y**2`` (the same
sequential sums as 1-D ones), ``-inf`` where the next sorted value ties, and
the first maximum; features are taken in draw order and replace the best only
by a strictly larger gain, and nodes grow depth first in pre-order.  So the
trees equal those of a per-node, per-feature sort-and-scan loop bit for bit
(``tests/ml/tree_reference.py``).  A fitted tree is flat pre-order arrays
indexed by node id (``feature_``, ``-1`` at a leaf, ``threshold_``, ``left_``,
``right_``, ``value_``) that ``apply`` walks one level at a time.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_array

__all__ = ["DecisionTreeRegressor", "SortedColumns"]

_BLOCK = 32  # features scored per pass of the split search


class SortedColumns:
    """``X`` plus each column's stable argsort (``order``) and sorted ``values``."""

    def __init__(self, X):
        self.X = check_array(X, "X")
        columns = np.ascontiguousarray(self.X.T)
        self.order = np.argsort(columns, axis=1, kind="stable")
        self.values = np.take_along_axis(columns, self.order, axis=1)


class DecisionTreeRegressor:
    """Weighted least-squares regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (1 gives a decision stump).
    min_samples_split, min_samples_leaf:
        Minimum number of samples required to split a node / allowed in a leaf.
    max_features:
        ``None`` (all features), ``"sqrt"``, or an integer count (>= 1) of
        features sampled per split.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state=None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        is_int = isinstance(max_features, (int, np.integer)) and not isinstance(max_features, bool)
        if max_features not in (None, "sqrt") and not (is_int and max_features >= 1):
            raise ValueError(f'max_features must be None, "sqrt" or an int >= 1: {max_features!r}')
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = as_generator(random_state)
        self.n_features_in_ = None
        self.n_leaves_ = 0
        self.feature_ = self.threshold_ = self.left_ = self.right_ = self.value_ = None

    # -- fitting --------------------------------------------------------------------

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
        return self.fit_sorted(SortedColumns(X), y, sample_weight)

    def fit_sorted(self, columns: SortedColumns, y, sample_weight=None, rows=None):
        """Fit on the increasing row indices ``rows`` (default: all) of a presorted
        matrix, as ``fit`` on ``columns.X[rows]`` would; ``y`` and
        ``sample_weight`` are indexed like the rows of ``columns.X``."""
        n_samples = len(columns.X)
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (n_samples,):
            raise ValueError("y must be a vector matching X")
        w = np.ones(n_samples) if sample_weight is None else np.asarray(sample_weight, np.float64)
        if w.shape != y.shape:
            raise ValueError(f"sample_weight must match y: shape {w.shape} vs {y.shape}")
        if not np.all((w >= 0) & np.isfinite(w)):
            raise ValueError("sample_weight must be finite and non-negative")
        rows = np.arange(n_samples) if rows is None else np.asarray(rows, dtype=np.intp)
        if len(rows) == 0 or np.any(np.diff(rows) <= 0) or rows[0] < 0 or rows[-1] >= n_samples:
            raise ValueError("rows must be increasing row indices of X")
        nodes: list = []  # [feature, threshold, left, right, value] in pre-order
        self._grow(nodes, columns, y, (w, w * y, w * y**2), rows, depth=0)
        arrays = map(np.array, zip(*nodes))
        self.feature_, self.threshold_, self.left_, self.right_, self.value_ = arrays
        self.n_leaves_ = int(np.sum(self.feature_ < 0))
        self.n_features_in_ = columns.X.shape[1]
        return self

    def _n_features_per_split(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return min(int(self.max_features), n_features)

    def _grow(self, nodes: list, columns, y, moments, rows, depth: int) -> int:
        """Append the subtree over ``rows`` to ``nodes`` in pre-order; return its id."""
        node = len(nodes)
        y_node = y[rows]
        w, wy, wyy = (moment[rows] for moment in moments)
        total_w = w.sum()
        value = float(wy.sum() / total_w) if total_w > 0 else float(y_node.mean())
        nodes.append([-1, 0.0, -1, -1, value])
        if (depth >= self.max_depth or len(rows) < self.min_samples_split
                or float(y_node.max() - y_node.min()) < 1e-12):
            return node
        split = self._best_split(columns, moments, rows, total_w, wy.sum(), wyy.sum())
        if split is None:
            return node
        feature, threshold = split
        go_left = columns.X[rows, feature] <= threshold
        left = self._grow(nodes, columns, y, moments, rows[go_left], depth + 1)
        right = self._grow(nodes, columns, y, moments, rows[~go_left], depth + 1)
        nodes[node][:4] = feature, threshold, left, right
        return node

    def _best_split(self, columns, moments, rows, total_w, total_wy, total_wyy):
        n_features = columns.X.shape[1]
        k = self._n_features_per_split(n_features)
        features = np.arange(n_features)
        if k < n_features:
            features = self._rng.choice(n_features, size=k, replace=False)
        # Split after sorted position lo..hi-1, honouring leaf sizes.
        n_node = len(rows)
        lo, hi = self.min_samples_leaf - 1, n_node - self.min_samples_leaf
        if hi <= lo:
            return None
        parent_loss = total_wyy - total_wy**2 / max(total_w, 1e-12)
        member = np.zeros(len(columns.X), dtype=bool)
        member[rows] = True

        best_gain, best = 1e-12, None
        for start in range(0, k, _BLOCK):
            block = features[start:start + _BLOCK]
            # Each column's sort restricted to the node's rows (a no-op at a full root).
            index, x_sorted = columns.order[block], columns.values[block]
            if n_node < len(columns.X):
                kept = np.flatnonzero(member[index])
                index = index.take(kept).reshape(len(block), n_node)
                x_sorted = x_sorted.take(kept).reshape(len(block), n_node)
            cum_w, cum_wy, cum_wyy = (np.cumsum(moment[index], axis=1) for moment in moments)

            # gains = parent_loss - (left_loss + right_loss), where a side's loss
            # is wyy - wy**2 / max(w, 1e-12): the same operations in the same
            # order, written in place because the temporaries cost more.
            left_w, left_wy, left_wyy = cum_w[:, lo:hi], cum_wy[:, lo:hi], cum_wyy[:, lo:hi]
            gains = np.square(left_wy)
            gains /= np.maximum(left_w, 1e-12)
            np.subtract(left_wyy, gains, out=gains)
            right_w = np.maximum(total_w - left_w, 1e-12)
            right_loss = np.square(total_wy - left_wy)
            right_loss /= right_w
            right_wyy = np.subtract(cum_wyy[:, -1:], left_wyy, out=right_w)
            np.subtract(right_wyy, right_loss, out=right_loss)
            gains += right_loss
            np.subtract(parent_loss, gains, out=gains)
            gains[x_sorted[:, lo:hi] == x_sorted[:, lo + 1:hi + 1]] = -np.inf

            positions = np.argmax(gains, axis=1)
            feature_gains = gains[np.arange(len(block)), positions]
            winner = int(np.argmax(feature_gains))
            if feature_gains[winner] > best_gain:
                best_gain = feature_gains[winner]
                position = lo + positions[winner]
                x = x_sorted[winner]
                best = (int(block[winner]), float(0.5 * (x[position] + x[position + 1])))
        return best

    # -- prediction ---------------------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        """Predicted leaf values for each row."""
        return self.value_[self.apply(X)]

    def apply(self, X) -> np.ndarray:
        """Leaf node ids for each row (used by the second-order booster)."""
        if self.feature_ is None:
            raise RuntimeError("tree is not fitted yet; call fit() first")
        X = check_array(X, "X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(f"X has {X.shape[1]} features; fitted on {self.n_features_in_}")
        leaves = np.zeros(len(X), dtype=np.intp)
        rows = np.arange(len(X))
        while len(rows):
            node = leaves[rows]
            internal = self.feature_[node] >= 0
            rows, node = rows[internal], node[internal]
            go_left = X[rows, self.feature_[node]] <= self.threshold_[node]
            leaves[rows] = np.where(go_left, self.left_[node], self.right_[node])
        return leaves
