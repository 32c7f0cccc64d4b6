"""Pinned ``predict_proba`` bytes of the paper's classifier suite.

``tests/experiments/golden_values.json`` rounds every score to four decimals,
so a last-bit drift in a tree's threshold or leaf value passes it unseen.
These pins hash the exact float64 bytes that each classifier built by
``default_classifier_suite`` predicts on two seeded fixtures:

* ``credit`` — credit-shaped: 29 min-max-scaled continuous columns and a
  rare positive class;
* ``rounded`` — 72 columns (more than two 32-feature blocks of the split
  search) rounded to one decimal, so nearly every split position is tied,
  with a duplicated column and a constant column.

The digests were recorded before the split search was presorted and must
keep matching.  They depend on the float64 kernels of numpy and BLAS
(``exp``/``log``, GEMV), which can differ between CPU families; if a digest
moves with no change to ``repro.ml``, re-record all of them from a commit
whose trees are known good and compare the trees with
``tests/ml/test_tree_reference.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.evaluation import default_classifier_suite


def credit_fixture():
    rng = np.random.default_rng(2029)
    X = rng.uniform(size=(900, 29))
    logits = 5.0 * X[:, 0] - 4.0 * X[:, 3] * X[:, 7] + X[:, 28] + rng.normal(scale=0.6, size=900)
    y = (logits > 3.2).astype(int)
    return X[:700], y[:700], X[700:]


def rounded_fixture():
    rng = np.random.default_rng(2072)
    X = np.round(rng.uniform(size=(640, 72)), 1)
    X[:, 40] = X[:, 3]  # duplicate of an informative column: the first must win
    X[:, 11] = 0.5  # constant column: never a split candidate
    y = ((X[:, 3] + X[:, 65] > 1.0) ^ (X[:, 50] > 0.7)).astype(int)
    return X[:520], y[:520], X[520:]


FIXTURES = {"credit": (credit_fixture, 0), "rounded": (rounded_fixture, 5)}

# (fixture, classifier) -> sha256 of ``predict_proba(X_test)`` as float64 bytes.
PINS = {
    ("credit", "LogisticRegression"): "42a27de32c5589161dacb171047a0532f9f9fd03a11bee90a10bd5ed33cd1c32",
    ("credit", "AdaBoost"): "334638052df5b0c6225e8475f291b659b78f2a99260be1495260a3e6ad9d30d5",
    ("credit", "GBM"): "7565cf7642c75e9702862af83ba9fd06fbcba23047898b342a76038181506be8",
    ("credit", "XgBoost"): "cd2f6a669b04ebf05ba3b636064a5754575869ef4886608a71da718da30db392",
    ("rounded", "LogisticRegression"): "650a0f95877fb2d2e85043cf4149268075b4318d7155dbd8232d927da28ca48b",
    ("rounded", "AdaBoost"): "6f3f097b0ab7aa7f07e5128199da45ccfc4ea078a8856b2dca632ab9f1c913dd",
    ("rounded", "GBM"): "f995de780cd450ac73a21a77f390547348e4359add2fd14d7f177d5362f1d551",
    ("rounded", "XgBoost"): "80b5f3055cc78d72140f35a6f7adf4970711c4a072fa71325be492427851174d",
}


def proba_digest(fixture: str, name: str) -> str:
    make, random_state = FIXTURES[fixture]
    X_train, y_train, X_test = make()
    model = default_classifier_suite(random_state)[name]().fit(X_train, y_train)
    proba = np.ascontiguousarray(model.predict_proba(X_test), dtype=np.float64)
    return hashlib.sha256(proba.tobytes()).hexdigest()


@pytest.mark.parametrize("fixture, name", sorted(PINS))
def test_predict_proba_bytes_are_pinned(fixture, name):
    assert proba_digest(fixture, name) == PINS[(fixture, name)]
