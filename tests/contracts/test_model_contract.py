"""The shared synthesizer contract, asserted for every registered model.

Every test is parametrized over ``repro.serving.registry`` — registering a
seventh model gives it this entire suite with zero new test code:

- ``fit -> sample`` shape and dtype,
- seeded-sample determinism with and without an explicit ``rng=``,
- ``privacy_spent() <= (epsilon, delta)`` after fit,
- ``save -> load -> sample`` bit-equality of the released artifact,
- mixed-type round-trip: fitted on a :class:`repro.transforms.TableTransformer`
  encoding of the ``adult_mixed`` simulator, every model's samples decode back
  to valid original-space rows (real category labels, in-range numerics) —
  including through a released artifact carrying the transformer,
- ``get_config()`` is the constructor: one JSON-safe entry per argument,
- ``sample_labeled`` rejects malformed ``class_counts``.
"""

import inspect
import json

import numpy as np
import pytest

from contract_kit import tiny_model
from repro.serving.artifacts import load_artifact, load_transformer, save_artifact
from repro.serving.registry import MODEL_REGISTRY, registered_synthesizers

ALL_MODELS = registered_synthesizers()


def test_registry_is_nonempty_and_kit_covers_it():
    assert set(ALL_MODELS) == set(MODEL_REGISTRY)
    assert len(ALL_MODELS) >= 6


@pytest.mark.parametrize("name", ALL_MODELS)
def test_fit_then_sample_shape_and_dtype(name, fitted_contract_models, contract_data):
    X, y = contract_data
    model = fitted_contract_models[name]
    rows = model.sample(17, rng=11)
    assert rows.ndim == 2 and rows.shape[0] == 17
    assert np.issubdtype(rows.dtype, np.floating)
    assert np.all(np.isfinite(rows))
    X_syn, y_syn = model.sample_labeled(23, rng=11)
    assert X_syn.shape == (23, X.shape[1])
    assert y_syn.shape == (23,)
    assert np.issubdtype(X_syn.dtype, np.floating)
    assert set(np.unique(y_syn)) <= set(np.unique(y))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_seeded_sampling_is_deterministic_with_explicit_rng(name, fitted_contract_models):
    model = fitted_contract_models[name]
    # The same request seed replayed against the same fitted model must be
    # bit-identical, and a different seed must give a different draw.
    assert np.array_equal(model.sample(31, rng=7), model.sample(31, rng=7))
    assert not np.array_equal(model.sample(31, rng=7), model.sample(31, rng=8))
    X_a, y_a = model.sample_labeled(19, rng=7, generation_rng=7)
    X_b, y_b = model.sample_labeled(19, rng=7, generation_rng=7)
    assert np.array_equal(X_a, X_b) and np.array_equal(y_a, y_b)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_internal_stream_is_deterministic_across_twin_fits(name, contract_data):
    # Without rng=: two identically-seeded models fitted on the same data
    # must advance identical internal streams (no hidden global RNG).
    X, y = contract_data
    twin_a = tiny_model(name, random_state=5).fit(X, y)
    twin_b = tiny_model(name, random_state=5).fit(X, y)
    assert np.array_equal(twin_a.sample(13), twin_b.sample(13))
    assert np.array_equal(twin_a.sample(13), twin_b.sample(13))  # streams stay in lockstep


@pytest.mark.parametrize("name", ALL_MODELS)
def test_privacy_spent_respects_the_configured_budget(name, fitted_contract_models):
    model = fitted_contract_models[name]
    epsilon_spent, delta_spent = model.privacy_spent()
    assert epsilon_spent >= 0 and 0 <= delta_spent < 1
    if hasattr(model, "epsilon"):
        assert epsilon_spent <= model.epsilon * (1 + 1e-9), (
            f"{name} spent epsilon={epsilon_spent} over its target {model.epsilon}"
        )
        assert delta_spent <= getattr(model, "delta", delta_spent) + 1e-12
        assert model.is_private
    else:
        assert np.isinf(epsilon_spent) and not model.is_private


@pytest.mark.parametrize("name", ALL_MODELS)
def test_config_holds_every_constructor_argument(name):
    model = tiny_model(name)
    config = model.get_config()
    arguments = set(inspect.signature(type(model)).parameters) - {"random_state"}
    assert set(config) == arguments
    assert json.loads(json.dumps(config)) == config
    assert type(model)(**config).get_config() == config


@pytest.mark.parametrize(
    "class_counts", [[23], [25, -2], [12, 10]], ids=["shape", "negative", "sum"]
)
@pytest.mark.parametrize("name", ALL_MODELS)
def test_sample_labeled_rejects_malformed_class_counts(
    name, class_counts, fitted_contract_models
):
    model = fitted_contract_models[name]
    with pytest.raises(ValueError, match="class_counts"):
        model.sample_labeled(23, rng=0, generation_rng=0, class_counts=class_counts)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_save_load_sample_bit_equality(name, fitted_contract_models, tmp_path):
    model = fitted_contract_models[name]
    path = tmp_path / f"{name}-artifact"
    save_artifact(model, path, name=name)
    clone = load_artifact(path)
    assert clone.privacy_spent() == model.privacy_spent()
    assert np.array_equal(model.sample(29, rng=3), clone.sample(29, rng=3))
    X_m, y_m = model.sample_labeled(21, rng=3, generation_rng=3)
    X_c, y_c = clone.sample_labeled(21, rng=3, generation_rng=3)
    assert np.array_equal(X_m, X_c) and np.array_equal(y_m, y_c)


def _assert_original_space(dataset, decoded):
    """Decoded rows carry real labels / in-range numerics for every column."""
    for index, column in enumerate(dataset.schema):
        values = decoded[:, index]
        if column.kind == "numeric":
            numeric = values.astype(float)
            train = dataset.X_train[:, index].astype(float)
            assert np.all(np.isfinite(numeric))
            assert numeric.min() >= train.min() - 1e-9, column.name
            assert numeric.max() <= train.max() + 1e-9, column.name
        else:
            assert set(values) <= set(column.categories), column.name


@pytest.mark.parametrize("name", ALL_MODELS)
def test_mixed_type_samples_decode_to_original_space(name, mixed_contract_setup):
    # sample_labeled strips the label block, so its features are exactly the
    # transformer's model space (raw sample() keeps the block for the mixin
    # models — that asymmetry is part of the existing contract).
    dataset, transformer, models = mixed_contract_setup
    model = models[name]
    X_syn, y_syn = model.sample_labeled(25, rng=5, generation_rng=5)
    assert X_syn.shape == (25, transformer.output_width)
    _assert_original_space(dataset, transformer.inverse_transform(X_syn))
    assert set(np.unique(y_syn)) <= set(np.unique(dataset.y_train))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_mixed_type_artifact_restores_transformer_and_decodes(
    name, mixed_contract_setup, tmp_path
):
    dataset, transformer, models = mixed_contract_setup
    path = tmp_path / f"{name}-mixed-artifact"
    save_artifact(models[name], path, name=name, transformer=transformer)
    clone = load_artifact(path)
    restored = load_transformer(path)
    assert restored is not None
    assert restored.schema == transformer.schema
    rows, _ = clone.sample_labeled(25, rng=5, generation_rng=5)
    original, _ = models[name].sample_labeled(25, rng=5, generation_rng=5)
    assert np.array_equal(rows, original)
    decoded = restored.inverse_transform(rows)
    _assert_original_space(dataset, decoded)
    assert np.array_equal(decoded, transformer.inverse_transform(rows))
