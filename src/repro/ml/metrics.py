"""Evaluation metrics used throughout the paper's experiments.

- AUROC and AUPRC for the binary tabular tasks (Tables V, VI; Figure 4),
- classification accuracy for the image tasks (Table VII; Figures 5, 7c).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "accuracy_score",
    "roc_auc_score",
    "average_precision_score",
    "precision_recall_curve",
]


def _validate_binary(y_true, y_score):
    y_true = np.asarray(y_true)
    y_score = np.asarray(y_score, dtype=np.float64)
    if y_true.shape != y_score.shape:
        raise ValueError("y_true and y_score must have the same shape")
    labels = np.unique(y_true)
    if not np.all(np.isin(labels, [0, 1])):
        raise ValueError("binary metrics require labels in {0, 1}")
    return y_true.astype(int), y_score


def accuracy_score(y_true, y_pred) -> float:
    """Fraction of exactly matching predictions."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    return float(np.mean(y_true == y_pred))


def roc_auc_score(y_true, y_score) -> float:
    """Area under the ROC curve via the rank (Mann–Whitney U) formulation."""
    y_true, y_score = _validate_binary(y_true, y_score)
    n_pos = int(y_true.sum())
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC AUC is undefined with a single class present")
    order = np.argsort(y_score, kind="mergesort")
    ranks = np.empty(len(y_score), dtype=np.float64)
    sorted_scores = y_score[order]
    # Average ranks for ties.
    i = 0
    position = 1
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        average_rank = 0.5 * (position + position + (j - i))
        ranks[order[i : j + 1]] = average_rank
        position += j - i + 1
        i = j + 1
    rank_sum_positive = ranks[y_true == 1].sum()
    u_statistic = rank_sum_positive - n_pos * (n_pos + 1) / 2.0
    return float(u_statistic / (n_pos * n_neg))


def precision_recall_curve(y_true, y_score):
    """Return ``(precision, recall, thresholds)`` for decreasing thresholds."""
    y_true, y_score = _validate_binary(y_true, y_score)
    order = np.argsort(-y_score, kind="mergesort")
    y_true = y_true[order]
    y_score = y_score[order]
    tps = np.cumsum(y_true)
    fps = np.cumsum(1 - y_true)
    precision = tps / (tps + fps)
    recall = tps / max(y_true.sum(), 1)
    distinct = np.r_[np.where(np.diff(y_score))[0], len(y_true) - 1]
    return (
        np.r_[precision[distinct][::-1], 1.0],
        np.r_[recall[distinct][::-1], 0.0],
        y_score[distinct][::-1],
    )


def average_precision_score(y_true, y_score) -> float:
    """Area under the precision–recall curve (step-wise interpolation).

    This is the AUPRC metric of Tables V/VI and Figure 4b.
    """
    precision, recall, _ = precision_recall_curve(y_true, y_score)
    # precision/recall are ordered by increasing threshold (recall decreasing).
    return float(-np.sum(np.diff(recall) * precision[:-1]))
