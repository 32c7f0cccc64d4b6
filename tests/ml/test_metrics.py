"""Tests for evaluation metrics."""

import numpy as np
import pytest

from repro.ml import (
    accuracy_score,
    average_precision_score,
    precision_recall_curve,
    roc_auc_score,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score([0, 1, 1], [0, 1, 1]) == 1.0

    def test_partial(self):
        assert accuracy_score([0, 1, 1, 0], [0, 1, 0, 1]) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_score([0, 1], [0, 1, 1])


class TestROCAUC:
    def test_perfect_separation(self):
        assert roc_auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_reversed_scores(self):
        assert roc_auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_random_scores_near_half(self, rng):
        y = rng.integers(0, 2, 4000)
        scores = rng.random(4000)
        assert roc_auc_score(y, scores) == pytest.approx(0.5, abs=0.03)

    def test_ties_handled(self):
        # Half the positives tied with half the negatives at the same score.
        auc = roc_auc_score([0, 0, 1, 1], [0.5, 0.2, 0.5, 0.9])
        assert auc == pytest.approx(0.875)

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_auc_score([1, 1, 1], [0.1, 0.2, 0.3])

    def test_invariant_to_monotone_transform(self, rng):
        y = rng.integers(0, 2, 500)
        y[0], y[1] = 0, 1
        scores = rng.random(500)
        assert roc_auc_score(y, scores) == pytest.approx(roc_auc_score(y, scores * 10 - 3))

    def test_agrees_with_the_pairwise_definition(self, rng):
        # AUROC is P(positive outranks negative), ties counted as a half.
        y = rng.integers(0, 2, 300)
        y[:2] = [0, 1]
        scores = np.round(rng.random(300), 2)
        positive, negative = scores[y == 1, None], scores[None, y == 0]
        pairwise = np.mean(positive > negative) + 0.5 * np.mean(positive == negative)
        assert roc_auc_score(y, scores) == pytest.approx(pairwise, abs=1e-12)


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_worst_case_equals_prevalence_for_all_negative_ranking(self):
        # Positives ranked last: AP approaches the positive prevalence.
        ap = average_precision_score([1, 1, 0, 0, 0, 0, 0, 0], [0.1, 0.2, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        assert 0.1 < ap < 0.4

    def test_random_scores_close_to_prevalence(self, rng):
        y = (rng.random(5000) < 0.1).astype(int)
        scores = rng.random(5000)
        assert average_precision_score(y, scores) == pytest.approx(0.1, abs=0.05)

    def test_curve_monotone_recall(self, rng):
        y = rng.integers(0, 2, 200)
        y[:2] = [0, 1]
        precision, recall, _ = precision_recall_curve(y, rng.random(200))
        assert np.all(np.diff(recall) <= 1e-12)
        assert precision[-1] == 1.0
