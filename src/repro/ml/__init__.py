"""``repro.ml`` — downstream classifiers, metrics, and preprocessing.

These reproduce the evaluation toolchain the paper borrows from
scikit-learn/xgboost: four tabular classifiers (logistic regression, AdaBoost,
gradient boosting, an XGBoost-style booster), an MLP classifier for the image
tasks, the AUROC/AUPRC/accuracy metrics, and the scalers used by the
evaluation pipeline.
"""

from repro.ml.boosting import AdaBoostClassifier, GradientBoostingClassifier
from repro.ml.linear import LogisticRegression
from repro.ml.metrics import (
    accuracy_score,
    average_precision_score,
    precision_recall_curve,
    roc_auc_score,
    roc_curve,
)
from repro.ml.mlp import MLPClassifier
from repro.ml.preprocessing import MinMaxScaler, train_test_split
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.xgb import XGBClassifier

__all__ = [
    "LogisticRegression",
    "AdaBoostClassifier",
    "GradientBoostingClassifier",
    "XGBClassifier",
    "MLPClassifier",
    "DecisionTreeRegressor",
    "accuracy_score",
    "roc_auc_score",
    "average_precision_score",
    "precision_recall_curve",
    "roc_curve",
    "MinMaxScaler",
    "train_test_split",
]
