"""The synthetic-data utility protocol (Jordon et al., adopted by the paper).

For every experiment the paper runs the same loop:

1. train a synthesizer on the real *training* split,
2. generate a synthetic dataset with the same size and label ratio,
3. train downstream classifiers on the synthetic data,
4. evaluate those classifiers on the real *test* split,
5. report AUROC/AUPRC (binary) or accuracy (multi-class), averaged over the
   classifier suite.

:func:`evaluate_synthesizer` implements steps 1–5 for one model;
:func:`evaluate_original` produces the "original" reference column of
Table VI by skipping the synthesis step.

Mixed-type datasets (any :class:`~repro.datasets.Dataset` whose schema has a
non-numeric column) are encoded through the shared
:class:`repro.transforms.TableTransformer` — fitted on the training split,
applied to both splits — before any synthesizer or classifier sees them,
exactly the paper's Section IV-E preprocessing.  All-numeric datasets pass
through untouched (their features are already in ``[0, 1]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.datasets.base import Dataset
from repro.ml import (
    AdaBoostClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    MLPClassifier,
    XGBClassifier,
    accuracy_score,
    average_precision_score,
    roc_auc_score,
)
from repro.utils.rng import as_generator

__all__ = [
    "default_classifier_suite",
    "image_classifier_suite",
    "UtilityResult",
    "evaluate_artifact",
    "evaluate_synthesizer",
    "evaluate_original",
]


def default_classifier_suite(random_state=0) -> dict:
    """The paper's four tabular classifiers, with laptop-scale hyper-parameters.

    The relative comparison between synthesizers (which is what the tables
    report) is preserved; absolute scores differ slightly from full-size
    sklearn/xgboost models.
    """
    return {
        "LogisticRegression": lambda: LogisticRegression(n_iter=200),
        "AdaBoost": lambda: AdaBoostClassifier(n_estimators=15, random_state=random_state),
        "GBM": lambda: GradientBoostingClassifier(
            n_estimators=15,
            max_depth=3,
            min_samples_leaf=20,
            min_samples_split=50,
            max_features="sqrt",
            random_state=random_state,
        ),
        "XgBoost": lambda: XGBClassifier(
            n_estimators=15, max_depth=3, subsample=0.8, random_state=random_state
        ),
    }


def image_classifier_suite(random_state=0) -> dict:
    """Classifier used for the image datasets (MLP stand-in for the paper's CNN)."""
    return {
        "MLP": lambda: MLPClassifier(
            hidden=(128,), epochs=15, learning_rate=3e-3, dropout=0.2, random_state=random_state
        )
    }


@dataclass
class UtilityResult:
    """Scores of one synthesizer on one dataset."""

    dataset: str
    model: str
    per_classifier: dict = field(default_factory=dict)
    privacy: tuple = (float("inf"), 0.0)

    def mean(self, metric: str) -> float:
        """Average a metric over the classifier suite (the tables' headline number)."""
        values = [scores[metric] for scores in self.per_classifier.values() if metric in scores]
        if not values:
            raise KeyError(f"metric {metric!r} was not computed")
        return float(np.mean(values))

    def as_row(self) -> dict:
        row = {"dataset": self.dataset, "model": self.model}
        metrics = set()
        for scores in self.per_classifier.values():
            metrics.update(scores)
        for metric in sorted(metrics):
            row[metric] = round(self.mean(metric), 4)
        return row


def _score_classifier(classifier, X_test, y_test, task: str) -> dict:
    if task == "binary":
        scores = classifier.predict_proba(X_test)[:, 1]
        return {
            "auroc": roc_auc_score(y_test, scores),
            "auprc": average_precision_score(y_test, scores),
        }
    predictions = classifier.predict(X_test)
    return {"accuracy": accuracy_score(y_test, predictions)}


def _task_of(dataset: Dataset) -> str:
    return "binary" if dataset.n_classes == 2 else "multiclass"


def _encoded_splits(dataset: Dataset, transformer=None):
    """``(X_train, X_test, transformer)`` in model space.

    Mixed-type datasets are encoded through ``transformer`` (fitted on the
    training split when not supplied — e.g. by :func:`evaluate_artifact`,
    which passes the transformer persisted in the artifact); all-numeric
    datasets pass through unchanged.
    """
    from repro.transforms import TableTransformer

    if transformer is None:
        if not dataset.is_mixed_type:
            return dataset.X_train, dataset.X_test, None
        transformer = TableTransformer(dataset.schema).fit(dataset.X_train)
    return (
        transformer.transform(dataset.X_train),
        transformer.transform(dataset.X_test),
        transformer,
    )


def evaluate_synthesizer(
    model,
    dataset: Dataset,
    model_name: Optional[str] = None,
    classifiers: Optional[dict] = None,
    n_synthetic: Optional[int] = None,
    fit: bool = True,
    random_state=0,
    transformer=None,
) -> UtilityResult:
    """Run the full utility protocol for one synthesizer on one dataset.

    Parameters
    ----------
    model:
        A synthesizer following the :class:`repro.models.GenerativeModel`
        protocol (``fit`` + ``sample_labeled``).
    dataset:
        A :class:`repro.datasets.Dataset`.  All-numeric datasets carry
        features already in [0, 1]; mixed-type ones are encoded through a
        :class:`repro.transforms.TableTransformer` here.
    classifiers:
        Mapping name -> zero-argument factory; defaults to the tabular suite
        for binary datasets and the MLP suite for multi-class ones.
    n_synthetic:
        Number of synthetic rows (defaults to the size of the training split).
    fit:
        Set to False if ``model`` is already fitted on this dataset.
    transformer:
        Optional *fitted* transformer to encode a mixed-type dataset with
        (e.g. the one persisted in a released artifact); defaults to one
        fitted on the training split.
    """
    rng = as_generator(random_state)
    task = _task_of(dataset)
    if classifiers is None:
        classifiers = (
            default_classifier_suite(random_state)
            if task == "binary"
            else image_classifier_suite(random_state)
        )
    X_train, X_test, _ = _encoded_splits(dataset, transformer)

    if fit:
        model.fit(X_train, dataset.y_train)
    n_rows = n_synthetic if n_synthetic is not None else len(X_train)
    X_syn, y_syn = model.sample_labeled(n_rows, rng=rng)

    result = UtilityResult(
        dataset=dataset.name,
        model=model_name or type(model).__name__,
        privacy=model.privacy_spent(),
    )
    for name, factory in classifiers.items():
        classifier = factory()
        try:
            classifier.fit(X_syn, y_syn)
            result.per_classifier[name] = _score_classifier(
                classifier, X_test, dataset.y_test, task
            )
        except ValueError:
            # A degenerate synthesizer can emit a single class; score it at chance.
            result.per_classifier[name] = (
                {"auroc": 0.5, "auprc": float(np.mean(dataset.y_test == 1))}
                if task == "binary"
                else {"accuracy": 1.0 / dataset.n_classes}
            )
    return result


def evaluate_artifact(
    artifact_path,
    dataset: Dataset,
    classifiers: Optional[dict] = None,
    n_synthetic: Optional[int] = None,
    random_state=0,
    model_name: Optional[str] = None,
) -> UtilityResult:
    """Run the utility protocol against a *released* model artifact.

    The model is loaded from disk (:func:`repro.serving.load_artifact`) and
    evaluated as-is (``fit=False``) — this is the consumer-side check that a
    released synthesizer still carries usable signal.  When the artifact
    persists a preprocessing transformer, the dataset is encoded through
    *that* transformer (not a freshly fitted one), so evaluation sees exactly
    the feature space the model was trained on.
    """
    from repro.serving.artifacts import load_release

    model, transformer, manifest = load_release(artifact_path)
    return evaluate_synthesizer(
        model,
        dataset,
        model_name=model_name or manifest.get("name"),
        classifiers=classifiers,
        n_synthetic=n_synthetic,
        fit=False,
        random_state=random_state,
        transformer=transformer,
    )


def evaluate_original(
    dataset: Dataset, classifiers: Optional[dict] = None, random_state=0
) -> UtilityResult:
    """Reference scores of classifiers trained on the real training split."""
    task = _task_of(dataset)
    if classifiers is None:
        classifiers = (
            default_classifier_suite(random_state)
            if task == "binary"
            else image_classifier_suite(random_state)
        )
    X_train, X_test, _ = _encoded_splits(dataset)
    result = UtilityResult(dataset=dataset.name, model="original", privacy=(float("inf"), 0.0))
    for name, factory in classifiers.items():
        classifier = factory()
        classifier.fit(X_train, dataset.y_train)
        result.per_classifier[name] = _score_classifier(
            classifier, X_test, dataset.y_test, task
        )
    return result
