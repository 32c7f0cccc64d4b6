"""Tests for the downstream classifiers used by the utility protocol."""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    MLPClassifier,
    XGBClassifier,
    accuracy_score,
    roc_auc_score,
)


def make_binary_problem(seed=0, n=500, d=8, nonlinear=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if nonlinear:
        # XOR of the signs of the first two features: impossible for a linear
        # model, easy for depth>=2 trees.
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
    else:
        w = rng.normal(size=d)
        y = (X @ w + 0.3 * rng.normal(size=n) > 0).astype(int)
    return X, y


def make_multiclass_problem(seed=0, n=600, d=6, k=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(k, d))
    y = rng.integers(0, k, n)
    X = centers[y] + rng.normal(size=(n, d))
    return X, y


ALL_BINARY = [
    lambda: LogisticRegression(n_iter=200, random_state=0),
    lambda: AdaBoostClassifier(n_estimators=20, random_state=0),
    lambda: GradientBoostingClassifier(
        n_estimators=40, max_depth=3, min_samples_leaf=5, min_samples_split=10, max_features=None, random_state=0
    ),
    lambda: XGBClassifier(n_estimators=20, max_depth=3, random_state=0),
    lambda: MLPClassifier(hidden=(32,), epochs=60, learning_rate=0.01, dropout=0.0, random_state=0),
]


class TestBinaryClassifiers:
    @pytest.mark.parametrize("factory", ALL_BINARY)
    def test_learns_linear_problem(self, factory):
        X, y = make_binary_problem()
        X_train, y_train = X[:400], y[:400]
        X_test, y_test = X[400:], y[400:]
        model = factory().fit(X_train, y_train)
        assert accuracy_score(y_test, model.predict(X_test)) > 0.8
        proba = model.predict_proba(X_test)
        assert proba.shape == (len(X_test), 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)
        assert roc_auc_score(y_test, proba[:, 1]) > 0.85

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: GradientBoostingClassifier(
                n_estimators=60, max_depth=4, min_samples_leaf=5, min_samples_split=10, max_features=None, random_state=0
            ),
            lambda: XGBClassifier(n_estimators=60, max_depth=4, random_state=0),
        ],
    )
    def test_trees_learn_nonlinear_problem(self, factory):
        X, y = make_binary_problem(nonlinear=True, n=800)
        model = factory().fit(X[:600], y[:600])
        assert accuracy_score(y[600:], model.predict(X[600:])) > 0.75

    def test_boosting_rejects_multiclass(self):
        X, y = make_multiclass_problem()
        with pytest.raises(ValueError):
            AdaBoostClassifier(n_estimators=5).fit(X, y)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(n_estimators=5).fit(X, y)

    def test_unfitted_raises(self):
        X, _ = make_binary_problem(n=10)
        with pytest.raises(RuntimeError):
            AdaBoostClassifier().decision_function(X)
        with pytest.raises(RuntimeError):
            GradientBoostingClassifier().decision_function(X)
        with pytest.raises(RuntimeError):
            XGBClassifier().decision_function(X)
        with pytest.raises(RuntimeError):
            LogisticRegression().predict(X)
        with pytest.raises(RuntimeError):
            MLPClassifier().predict(X)

    @pytest.mark.parametrize("factory", ALL_BINARY[1:4])  # the three tree ensembles
    def test_tree_ensembles_reject_a_different_width(self, factory):
        X, y = make_binary_problem(n=120)
        model = factory().fit(X, y)
        for wrong in (X[:5, :4], np.hstack([X[:5], X[:5]])):
            with pytest.raises(ValueError, match="fitted on 8"):
                model.predict_proba(wrong)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            AdaBoostClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            XGBClassifier(subsample=0.0)


class TestMulticlass:
    def test_logistic_multiclass(self):
        X, y = make_multiclass_problem()
        model = LogisticRegression(n_iter=300, random_state=0).fit(X[:450], y[:450])
        assert accuracy_score(y[450:], model.predict(X[450:])) > 0.8
        proba = model.predict_proba(X[450:])
        assert proba.shape == (150, 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_mlp_multiclass(self):
        X, y = make_multiclass_problem()
        model = MLPClassifier(hidden=(32,), epochs=40, dropout=0.0, random_state=0).fit(X[:450], y[:450])
        assert accuracy_score(y[450:], model.predict(X[450:])) > 0.8

    def test_mlp_predict_score_binary_only(self):
        X, y = make_multiclass_problem()
        model = MLPClassifier(hidden=(16,), epochs=3, random_state=0).fit(X, y)
        with pytest.raises(ValueError):
            model.predict_score(X)

    def test_classes_preserved(self):
        X, y = make_binary_problem()
        labels = np.where(y == 1, "fraud", "ok")
        model = LogisticRegression(n_iter=100, random_state=0).fit(X, labels)
        assert set(model.predict(X[:10])) <= {"fraud", "ok"}
