"""The presorted tree against the per-feature loop reference, node for node.

``tree_reference.ReferenceTree`` is the split search that sorts each feature
of each node separately.  ``DecisionTreeRegressor`` presorts every column
once and scores a block of features per pass; both must grow the same tree
bit for bit: the same pre-order node ids, features, ``float.hex`` thresholds
and leaf values, ``apply`` ids and ``n_leaves_``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ml.tree import DecisionTreeRegressor, SortedColumns
from tree_reference import ReferenceTree


def assert_same_tree(tree, reference, X):
    nodes = reference.preorder()
    assert len(tree.value_) == len(nodes)
    for node_id, (reference_id, feature, threshold, value) in enumerate(nodes):
        assert reference_id == node_id
        assert tree.feature_[node_id] == feature, node_id
        if feature >= 0:
            assert float(tree.threshold_[node_id]).hex() == float(threshold).hex(), node_id
        assert float(tree.value_[node_id]).hex() == float(value).hex(), node_id
    assert tree.n_leaves_ == reference.n_leaves_
    np.testing.assert_array_equal(tree.apply(X), reference.apply(X))


@st.composite
def tree_problems(draw):
    """A seeded regression problem plus tree hyper-parameters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([40, 97, 150, 64, 17, 9, 5, 3, 2]))
    d = draw(st.sampled_from([7, 33, 70, 31, 32, 2, 1]))
    X = rng.normal(size=(n, d))
    decimals = draw(st.sampled_from([None, 1, 0]))
    if decimals is not None:
        X = np.round(X, decimals)  # heavily tied columns
    if d > 1 and draw(st.booleans()):
        X[:, d - 1] = X[:, 0]  # a duplicate column: the first must win
    if d > 1 and draw(st.booleans()):
        X[:, rng.integers(d)] = 0.25  # a constant column
    y = rng.normal(size=n)
    if draw(st.booleans()):
        y = np.round(y)
    weights = draw(st.sampled_from([None, "uniform", "some-zero", "all-zero"]))
    if weights == "uniform":
        weights = rng.uniform(0.1, 2.0, size=n)
    elif weights == "some-zero":
        weights = rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.7)
    elif weights == "all-zero":
        weights = np.zeros(n)
    if draw(st.integers(0, 3)) == 0:  # edge sizes: at or just past the node size
        min_samples_split = draw(st.sampled_from([3, 10, n, n + 1]))
        min_samples_leaf = draw(st.sampled_from([max(1, n // 2), n // 2 + 1, n]))
    else:
        min_samples_split = draw(st.sampled_from([2, 5]))
        min_samples_leaf = draw(st.sampled_from([1, 2, 5]))
    params = dict(
        max_depth=draw(st.integers(1, 5)),
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        max_features=draw(st.sampled_from([None, "sqrt", 1, 3, d, d + 4])),
    )
    return X, y, weights, params, draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=tree_problems())
def test_presorted_tree_matches_the_per_feature_loop(problem):
    X, y, weights, params, seed = problem
    tree = DecisionTreeRegressor(random_state=seed, **params).fit(X, y, weights)
    reference = ReferenceTree(random_state=seed, **params).fit(X, y, weights)
    assert_same_tree(tree, reference, X)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=tree_problems(), keep=st.floats(0.1, 1.0))
def test_row_subset_matches_a_fit_on_the_copied_rows(problem, keep):
    # The XGBoost path: one presort of all rows, each round fitted on a subset.
    X, y, weights, params, seed = problem
    rows = np.flatnonzero(np.random.default_rng(seed).random(len(X)) < keep)
    if len(rows) == 0:
        rows = np.arange(len(X))
    tree = DecisionTreeRegressor(random_state=seed, **params)
    tree.fit_sorted(SortedColumns(X), y, weights, rows=rows)
    sub_weights = None if weights is None else weights[rows]
    reference = ReferenceTree(random_state=seed, **params).fit(X[rows], y[rows], sub_weights)
    assert_same_tree(tree, reference, X[rows])
    np.testing.assert_array_equal(tree.apply(X), reference.apply(X))


def test_first_of_duplicate_best_columns_wins():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(200, 40))
    X[:, 36] = X[:, 4]  # same values in a later feature block
    X[:, 9] = X[:, 4]
    y = np.where(X[:, 4] > 0.6, 3.0, -1.0)
    tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
    assert tree.feature_[0] == 4


@pytest.mark.parametrize("max_features", [None, "sqrt", 5])
def test_one_presort_serves_every_tree(max_features):
    # Trees fitted on a shared presort equal trees that sort for themselves.
    rng = np.random.default_rng(1)
    X = np.round(rng.normal(size=(150, 45)), 1)
    columns = SortedColumns(X)
    for round_ in range(3):
        y = rng.normal(size=150)
        shared = DecisionTreeRegressor(max_depth=4, max_features=max_features, random_state=round_)
        shared.fit_sorted(columns, y)
        alone = DecisionTreeRegressor(max_depth=4, max_features=max_features, random_state=round_)
        alone.fit(X, y)
        for name in ("feature_", "threshold_", "left_", "right_", "value_"):
            assert getattr(shared, name).tobytes() == getattr(alone, name).tobytes()
