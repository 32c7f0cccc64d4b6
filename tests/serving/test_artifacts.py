"""Artifact round-trip and manifest validation tests.

The satellite requirement: every registered synthesizer must round-trip
``fit -> save -> load`` into a fresh object that draws *bit-identical* samples
under the same seed and reports the exact same privacy guarantee.
"""

import json

import numpy as np
import pytest

from repro.serving import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    load_artifact,
    manifest_privacy,
    read_manifest,
    registered_synthesizers,
    save_artifact,
)

ALL_NAMES = registered_synthesizers()


def test_fitted_models_cover_the_whole_registry(fitted_models):
    assert tuple(sorted(fitted_models)) == ALL_NAMES


@pytest.mark.parametrize("name", ALL_NAMES)
class TestRoundTrip:
    def test_seeded_sample_is_bit_identical_after_reload(self, name, fitted_models, tmp_path):
        model = fitted_models[name]
        path = save_artifact(model, tmp_path / name)
        loaded = load_artifact(path)
        assert type(loaded) is type(model)
        original = model.sample(64, rng=np.random.default_rng(11))
        reloaded = loaded.sample(64, rng=np.random.default_rng(11))
        assert np.array_equal(original, reloaded)

    def test_seeded_labeled_sample_round_trips(self, name, fitted_models, tmp_path):
        model = fitted_models[name]
        loaded = load_artifact(save_artifact(model, tmp_path / name))
        Xa, ya = model.sample_labeled(
            32, rng=np.random.default_rng(5), generation_rng=np.random.default_rng(6)
        )
        Xb, yb = loaded.sample_labeled(
            32, rng=np.random.default_rng(5), generation_rng=np.random.default_rng(6)
        )
        assert np.array_equal(Xa, Xb)
        assert np.array_equal(ya, yb)

    def test_privacy_guarantee_round_trips_exactly(self, name, fitted_models, tmp_path):
        model = fitted_models[name]
        path = save_artifact(model, tmp_path / name)
        loaded = load_artifact(path)
        # Exact equality, not approximate: releasing a model must not change
        # the stated (epsilon, delta) by even one ulp.
        assert loaded.privacy_spent() == model.privacy_spent()
        # The manifest records the same guarantee for zero-load inspection.
        eps, delta = manifest_privacy(read_manifest(path))
        assert (eps, delta) == model.privacy_spent()

    def test_manifest_records_class_config_and_schema(self, name, fitted_models, tmp_path):
        model = fitted_models[name]
        manifest = read_manifest(save_artifact(model, tmp_path / name, name=f"rel-{name}"))
        assert manifest["format_version"] == ARTIFACT_FORMAT_VERSION
        assert manifest["model_class"] == type(model).__name__
        assert manifest["name"] == f"rel-{name}"
        assert manifest["hyperparameters"] == model.get_config()
        assert manifest["schema"]["n_input_features"] == model.n_input_features_
        assert manifest["schema"]["classes"] == [0, 1]


class TestManifestValidation:
    @pytest.fixture
    def artifact(self, fitted_models, tmp_path):
        return save_artifact(fitted_models["vae"], tmp_path / "artifact")

    def _rewrite(self, artifact, **changes):
        manifest = json.loads((artifact / "manifest.json").read_text())
        manifest.update(changes)
        (artifact / "manifest.json").write_text(json.dumps(manifest))

    def test_unknown_format_version_is_refused(self, artifact):
        self._rewrite(artifact, format_version=ARTIFACT_FORMAT_VERSION + 1)
        with pytest.raises(ArtifactError, match="format version"):
            load_artifact(artifact)

    def test_unknown_model_class_is_refused(self, artifact):
        self._rewrite(artifact, model_class="TotallyMadeUp")
        with pytest.raises(ArtifactError, match="TotallyMadeUp"):
            load_artifact(artifact)

    def test_expected_class_mismatch_is_refused(self, artifact):
        with pytest.raises(ArtifactError, match="holds a VAE"):
            load_artifact(artifact, expected_class="P3GM")
        # Both class objects and names are accepted; the right class passes.
        from repro.models import VAE

        assert isinstance(load_artifact(artifact, expected_class=VAE), VAE)

    def test_missing_manifest_key_is_refused(self, artifact):
        manifest = json.loads((artifact / "manifest.json").read_text())
        del manifest["privacy"]
        (artifact / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="privacy"):
            read_manifest(artifact)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("from_the_future", 42, "does not accept"),
            # A retired parameter loads only at the one value now fixed.
            ("decoder_type", "gaussian", "decoder_type='gaussian'"),
        ],
    )
    def test_unacceptable_hyperparameters_are_refused(self, artifact, key, value, message):
        manifest = json.loads((artifact / "manifest.json").read_text())
        manifest["hyperparameters"][key] = value
        (artifact / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match=message):
            load_artifact(artifact)

    def test_missing_weights_is_refused(self, artifact):
        (artifact / "weights.npz").unlink()
        with pytest.raises(ArtifactError, match="weights.npz"):
            load_artifact(artifact)

    def test_damaged_weights_are_an_artifact_error(self, artifact, damage_npz):
        damage_npz(artifact / "weights.npz")
        with pytest.raises(ArtifactError, match="weights.npz"):
            load_artifact(artifact)

    def test_non_artifact_directory_is_refused(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest.json"):
            load_artifact(tmp_path)

    def test_unfitted_model_cannot_be_saved(self, tmp_path):
        from repro.models import VAE

        with pytest.raises(RuntimeError, match="not fitted"):
            save_artifact(VAE(), tmp_path / "unfitted")


#: Parameters earlier builds recorded in each model's manifest, at the one
#: value this build fixes.
RETIRED_AT_FIXED_VALUES = {
    "p3gm": {"decoder_type": "bernoulli", "fixed_variance": 0.0, "label_repeat": 10},
    "dp-gm": {
        "decoder_type": "bernoulli",
        "label_repeat": 10,
        "kmeans_iterations": 4,
        "kmeans_budget_fraction": 0.1,
    },
    "privbayes": {"max_parent_candidates": 50},
}


@pytest.mark.parametrize("name", sorted(RETIRED_AT_FIXED_VALUES))
def test_manifest_with_retired_hyperparameters_loads_bit_identically(
    name, fitted_models, tmp_path
):
    model = fitted_models[name]
    path = save_artifact(model, tmp_path / name)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["hyperparameters"].update(RETIRED_AT_FIXED_VALUES[name])
    (path / "manifest.json").write_text(json.dumps(manifest))
    loaded = load_artifact(path)
    assert loaded.get_config() == model.get_config()
    assert loaded.privacy_spent() == model.privacy_spent()
    for draw in (
        lambda m: m.sample(64, rng=np.random.default_rng(11)),
        lambda m: m.sample_labeled(
            32, rng=np.random.default_rng(5), generation_rng=np.random.default_rng(6)
        )[0],
    ):
        assert draw(loaded).tobytes() == draw(model).tobytes()
