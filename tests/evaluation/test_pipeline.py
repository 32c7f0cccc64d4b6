"""Tests for the synthetic-data utility protocol and sample-quality metrics."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.evaluation import (
    SampleQuality,
    UtilityResult,
    default_classifier_suite,
    evaluate_original,
    evaluate_synthesizer,
    format_curves,
    format_rows,
    image_classifier_suite,
    model_factories,
    sample_quality,
)
from repro.ml import LogisticRegression
from repro.models import PGM


@pytest.fixture(scope="module")
def small_credit():
    return load_dataset("credit", n_samples=4000, random_state=0)


@pytest.fixture(scope="module")
def small_mnist():
    return load_dataset("mnist", n_samples=800, random_state=0)


FAST_CLASSIFIERS = {"LogisticRegression": lambda: LogisticRegression(n_iter=150, random_state=0)}


class TestUtilityProtocol:
    def test_original_reference_scores_high(self, small_credit):
        result = evaluate_original(small_credit, classifiers=FAST_CLASSIFIERS)
        assert result.mean("auroc") > 0.9
        assert result.model == "original"

    def test_synthesizer_evaluation_returns_scores(self, small_credit):
        model = PGM(latent_dim=10, hidden=(64,), epochs=3, batch_size=200, random_state=0)
        result = evaluate_synthesizer(
            model, small_credit, model_name="PGM", classifiers=FAST_CLASSIFIERS
        )
        assert set(result.per_classifier) == {"LogisticRegression"}
        assert 0.0 <= result.mean("auroc") <= 1.0
        assert 0.0 <= result.mean("auprc") <= 1.0
        row = result.as_row()
        assert row["dataset"] == "credit" and row["model"] == "PGM"

    def test_synthesizer_not_refit_when_fit_false(self, small_credit):
        model = PGM(latent_dim=10, hidden=(64,), epochs=2, batch_size=200, random_state=0)
        model.fit(small_credit.X_train, small_credit.y_train)
        result = evaluate_synthesizer(
            model, small_credit, classifiers=FAST_CLASSIFIERS, fit=False
        )
        assert result.per_classifier

    def test_multiclass_uses_accuracy(self, small_mnist):
        model = PGM(latent_dim=10, hidden=(64,), epochs=2, batch_size=200, random_state=0)
        result = evaluate_synthesizer(
            model,
            small_mnist,
            classifiers={"MLP": image_classifier_suite(0)["MLP"]},
        )
        assert "accuracy" in result.as_row()

    def test_degenerate_synthesizer_scored_at_chance(self, small_credit):
        class SingleClassModel(PGM):
            def sample_labeled(self, n_samples, rng=None):
                X, _ = super().sample_labeled(n_samples, rng=rng)
                return X, np.zeros(len(X), dtype=int)

        model = SingleClassModel(latent_dim=10, hidden=(32,), epochs=1, batch_size=200, random_state=0)
        result = evaluate_synthesizer(model, small_credit, classifiers=FAST_CLASSIFIERS)
        assert result.mean("auroc") == 0.5

    def test_mixed_type_dataset_is_encoded_through_the_transformer(self):
        from repro.models import PrivBayes

        dataset = load_dataset("adult_mixed", n_samples=900, random_state=0)
        result = evaluate_synthesizer(
            PrivBayes(epsilon=3.0, random_state=0),
            dataset,
            classifiers=FAST_CLASSIFIERS,
            n_synthetic=400,
            random_state=0,
        )
        assert result.dataset == "adult_mixed"
        assert 0.0 <= result.mean("auroc") <= 1.0

    def test_mixed_type_original_reference_learns_signal(self):
        dataset = load_dataset("adult_mixed", n_samples=2000, random_state=0)
        result = evaluate_original(dataset, classifiers=FAST_CLASSIFIERS)
        # The label depends on encoded columns (education, sex, married), so
        # a classifier on the transformer's encoding must beat chance clearly.
        assert result.mean("auroc") > 0.6

    def test_mean_unknown_metric_raises(self):
        result = UtilityResult(dataset="d", model="m", per_classifier={"a": {"auroc": 0.7}})
        with pytest.raises(KeyError):
            result.mean("accuracy")

    def test_default_suites_contain_paper_classifiers(self):
        tabular = default_classifier_suite()
        assert set(tabular) == {"LogisticRegression", "AdaBoost", "GBM", "XgBoost"}
        assert set(image_classifier_suite()) == {"MLP"}


class TestModelZoo:
    def test_all_models_constructible(self):
        factories = model_factories(epsilon=1.0, dataset_name="credit", scale="small")
        assert set(factories) >= {"VAE", "PGM", "DP-VAE", "P3GM", "P3GM-AE", "DP-GM", "PrivBayes"}
        for factory in factories.values():
            factory()  # must not raise

    def test_include_subsets(self):
        factories = model_factories(include=("P3GM", "PrivBayes"))
        assert set(factories) == {"P3GM", "PrivBayes"}

    def test_unknown_include_raises(self):
        with pytest.raises(KeyError):
            model_factories(include=("GPT",))

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            model_factories(scale="huge")


class TestSampleQuality:
    def test_identical_samples_are_perfect(self, rng):
        X = rng.normal(size=(200, 10))
        quality = sample_quality(X, X.copy(), random_state=0)
        # Distances are computed via the expanded quadratic form, so "zero" is
        # only zero up to floating-point cancellation.
        assert quality.fidelity == pytest.approx(0.0, abs=1e-3)
        assert quality.diversity == pytest.approx(1.0, abs=0.15)
        assert quality.coverage > 0.9

    def test_collapsed_samples_have_low_diversity(self, rng):
        real = rng.normal(size=(300, 8))
        collapsed = np.tile(real.mean(axis=0), (300, 1)) + 0.01 * rng.normal(size=(300, 8))
        quality = sample_quality(real, collapsed, random_state=0)
        assert quality.diversity < 0.2
        assert quality.coverage < 0.5

    def test_noisy_samples_have_poor_fidelity(self, rng):
        real = rng.normal(size=(300, 8))
        noisy = real + 3.0 * rng.normal(size=(300, 8))
        clean = real + 0.1 * rng.normal(size=(300, 8))
        assert (
            sample_quality(real, noisy, random_state=0).fidelity
            > sample_quality(real, clean, random_state=0).fidelity
        )

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            sample_quality(rng.normal(size=(10, 3)), rng.normal(size=(10, 4)))

    def test_as_row(self):
        row = SampleQuality(fidelity=1.0, diversity=0.5, coverage=0.25).as_row()
        assert row == {"fidelity": 1.0, "diversity": 0.5, "coverage": 0.25}


class TestReporting:
    def test_format_rows_renders_all_columns(self):
        rows = [{"model": "P3GM", "auroc": 0.91}, {"model": "DP-GM", "auroc": 0.88}]
        text = format_rows(rows, title="Table")
        assert "P3GM" in text and "DP-GM" in text and "0.9100" in text

    def test_format_rows_empty(self):
        assert "(no rows)" in format_rows([], title="Empty")

    def test_format_curves(self):
        text = format_curves({"P3GM": {"loss": [1.0, 0.5]}}, metric="loss")
        assert "P3GM" in text and "0.5000" in text
