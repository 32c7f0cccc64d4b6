"""Format-v2 artifacts: persisted transformers, v1 back-compat, original-space serving."""

import json

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.serving import (
    ArtifactError,
    SynthesisService,
    load_artifact,
    load_transformer,
    read_manifest,
    save_artifact,
)
from repro.serving.cli import main
from repro.transforms import TableTransformer


@pytest.fixture(scope="module")
def mixed_release(tmp_path_factory):
    """(artifact path, dataset, transformer, model) for a PrivBayes release."""
    from repro.models import PrivBayes

    dataset = load_dataset("adult_mixed", n_samples=400, random_state=0)
    transformer = TableTransformer(dataset.schema).fit(dataset.X_train)
    model = PrivBayes(epsilon=1.0, random_state=0).fit(
        transformer.transform(dataset.X_train), dataset.y_train
    )
    path = tmp_path_factory.mktemp("mixed") / "privbayes-mixed"
    save_artifact(model, path, name="privbayes-mixed", transformer=transformer)
    return path, dataset, transformer, model


class TestTransformerPersistence:
    def test_manifest_records_config_and_npz_holds_state(self, mixed_release):
        path, dataset, transformer, _ = mixed_release
        manifest = read_manifest(path)
        assert manifest["format_version"] == 2
        assert manifest["transformer"] == transformer.get_config()
        assert (path / "transformer.npz").is_file()
        with np.load(path / "transformer.npz", allow_pickle=False) as archive:
            assert set(archive.files) == set(transformer.state_dict())

    def test_load_transformer_round_trips_bitwise(self, mixed_release):
        path, dataset, transformer, _ = mixed_release
        restored = load_transformer(path)
        assert restored.schema == transformer.schema
        encoded = transformer.transform(dataset.X_test)
        assert np.array_equal(restored.transform(dataset.X_test), encoded)
        assert (
            restored.inverse_transform(encoded)
            == transformer.inverse_transform(encoded)
        ).all()

    def test_artifacts_without_transformer_return_none(self, tmp_path):
        from repro.models import PrivBayes

        X = np.random.default_rng(0).random((80, 4))
        path = save_artifact(PrivBayes(epsilon=1.0, random_state=0).fit(X), tmp_path / "plain")
        assert read_manifest(path)["transformer"] is None
        assert load_transformer(path) is None

    def test_declared_but_missing_state_file_is_an_explicit_error(self, mixed_release, tmp_path):
        import shutil

        path, *_ = mixed_release
        broken = tmp_path / "broken"
        shutil.copytree(path, broken)
        (broken / "transformer.npz").unlink()
        with pytest.raises(ArtifactError, match="transformer.npz is missing"):
            load_transformer(broken)

    def test_damaged_state_file_is_an_artifact_error(self, mixed_release, tmp_path, damage_npz):
        import shutil

        path, *_ = mixed_release
        broken = tmp_path / "broken"
        shutil.copytree(path, broken)
        damage_npz(broken / "transformer.npz")
        with pytest.raises(ArtifactError, match="transformer.npz"):
            load_transformer(broken)

    def test_recorded_numeric_encoding_other_than_minmax_is_refused(self, mixed_release, tmp_path):
        import shutil

        path, *_ = mixed_release
        recorded = tmp_path / "recorded"
        shutil.copytree(path, recorded)
        manifest = json.loads((recorded / "manifest.json").read_text())
        manifest["transformer"]["numeric"] = "standard"
        (recorded / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="invalid transformer config"):
            load_transformer(recorded)


class TestFormatV1BackCompat:
    def test_old_artifacts_still_load(self, mixed_release, tmp_path):
        # A v1 artifact is exactly a v2 artifact minus the transformer
        # machinery; rewriting the manifest back to the old shape must load.
        import shutil

        path, *_ = mixed_release
        old = tmp_path / "v1-artifact"
        shutil.copytree(path, old)
        (old / "transformer.npz").unlink()
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["format_version"] = 1
        del manifest["transformer"]
        (old / "manifest.json").write_text(json.dumps(manifest))

        model = load_artifact(old)
        assert load_transformer(old) is None
        reference = load_artifact(path)
        assert np.array_equal(
            model.sample(30, rng=np.random.default_rng(2)),
            reference.sample(30, rng=np.random.default_rng(2)),
        )


class TestOriginalSpaceService:
    def test_stream_decodes_chunks_and_respects_chunking(self, mixed_release):
        path, dataset, transformer, model = mixed_release
        service = SynthesisService()
        chunks = list(
            service.stream(path, 70, seed=9, chunk_size=32, original_space=True)
        )
        assert [len(chunk) for chunk in chunks] == [32, 32, 6]
        decoded = np.vstack(chunks)
        assert decoded.dtype == object
        workclass = set(decoded[:, dataset.schema.index_of("workclass")])
        assert workclass <= set(dataset.schema["workclass"].categories)
        # Same request in model space, decoded manually, is bit-identical.
        service_model_space = SynthesisService()
        raw = np.vstack(
            list(service_model_space.stream(path, 70, seed=9, chunk_size=32))
        )
        assert (decoded == transformer.inverse_transform(raw)).all()

    def test_stream_labeled_decodes_features_and_keeps_labels(self, mixed_release):
        path, dataset, *_ = mixed_release
        service = SynthesisService()
        X_chunks, y_chunks = zip(
            *service.stream_labeled(path, 50, seed=4, chunk_size=20, original_space=True)
        )
        X = np.vstack(X_chunks)
        y = np.concatenate(y_chunks)
        assert X.shape == (50, len(dataset.schema))
        assert set(np.unique(y)) <= set(np.unique(dataset.y_train))
        sexes = set(X[:, dataset.schema.index_of("sex")])
        assert sexes <= {"Female", "Male"}

    def test_original_space_without_transformer_is_an_explicit_error(self, tmp_path):
        from repro.models import PrivBayes

        X = np.random.default_rng(0).random((80, 4))
        path = save_artifact(PrivBayes(epsilon=1.0, random_state=0).fit(X), tmp_path / "plain")
        service = SynthesisService()
        with pytest.raises(ArtifactError, match="original-space output is unavailable"):
            next(service.stream(path, 5, original_space=True))

    @pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
    @pytest.mark.parametrize("model_space", [False, True], ids=["original", "model_space"])
    def test_a_release_makes_one_counted_lookup(self, mixed_release, labeled, model_space):
        path, *_ = mixed_release
        service = SynthesisService()
        for _ in range(2):  # a cold request, then a warm one
            before = service.cache_stats
            stream, _ = service.open_release(
                path, 5, labeled=labeled, seed=0, model_space=model_space
            )
            list(stream)
            after = service.cache_stats
            counted = after["hits"] + after["misses"] - before["hits"] - before["misses"]
            assert counted == 1
        assert (after["misses"], after["hits"]) == (1, 1)

    def test_transformer_is_cached_with_the_model(self, mixed_release):
        path, *_ = mixed_release
        service = SynthesisService()
        assert service.transformer(path) is service.transformer(path)
        service.evict(path)
        assert service.transformer(path) is not None  # reloaded after evict

    def test_unlabeled_stream_strips_the_label_block_of_mixin_models(self, tmp_path):
        # Regression: VAE-family sample() returns features + the one-hot
        # label block; original-space decoding must use the feature columns.
        from repro.models import VAE

        dataset = load_dataset("adult_mixed", n_samples=300, random_state=0)
        transformer = TableTransformer(dataset.schema).fit(dataset.X_train)
        model = VAE(
            latent_dim=3, hidden=(16,), epochs=1, batch_size=50, random_state=0
        ).fit(transformer.transform(dataset.X_train), dataset.y_train)
        path = save_artifact(model, tmp_path / "vae-mixed", transformer=transformer)
        service = SynthesisService()
        decoded = np.vstack(
            list(service.stream(path, 30, seed=1, chunk_size=16, original_space=True))
        )
        assert decoded.shape == (30, len(dataset.schema))
        sex = set(decoded[:, dataset.schema.index_of("sex")])
        assert sex <= {"Female", "Male"} and sex


class TestMixedTypeCli:
    def test_train_on_csv_then_sample_restores_labels(self, tmp_path, capsys):
        from repro.transforms import write_csv

        dataset = load_dataset("adult_mixed", n_samples=400, random_state=0)
        rows = np.empty((len(dataset.X_train), dataset.X_train.shape[1] + 1), dtype=object)
        rows[:, :-1] = dataset.X_train
        rows[:, -1] = dataset.y_train
        csv_path = tmp_path / "adult.csv"
        write_csv(csv_path, rows, names=list(dataset.schema.names) + ["income"])

        artifact = tmp_path / "artifact"
        assert main(
            [
                "train", "--model", "privbayes", "--data", str(csv_path),
                "--label", "income", "--epsilon", "1.0",
                "--output", str(artifact), "--seed", "0",
            ]
        ) == 0
        manifest = json.loads((artifact / "manifest.json").read_text())
        assert manifest["metadata"]["label"] == "income"
        assert manifest["transformer"] is not None

        out_csv = tmp_path / "synthetic.csv"
        assert main(
            [
                "sample", "--artifact", str(artifact), "-n", "40",
                "--seed", "7", "--labeled", "--output", str(out_csv),
            ]
        ) == 0
        capsys.readouterr()
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == ",".join(list(dataset.schema.names) + ["label"])
        assert len(lines) == 41
        sex_column = dataset.schema.index_of("sex")
        values = {line.split(",")[sex_column] for line in lines[1:]}
        assert values <= {"Female", "Male"} and values

    def test_model_space_flag_emits_raw_floats(self, mixed_release, tmp_path, capsys):
        path, *_ = mixed_release
        out_csv = tmp_path / "raw.csv"
        assert main(
            [
                "sample", "--artifact", str(path), "-n", "10", "--seed", "1",
                "--model-space", "--output", str(out_csv),
            ]
        ) == 0
        capsys.readouterr()
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("feature_0,")
        first = np.array(lines[1].split(","), dtype=float)
        assert first.min() >= 0.0 and first.max() <= 1.0

    def test_declared_schema_file_overrides_inference(self, tmp_path, capsys):
        from repro.transforms import write_csv

        dataset = load_dataset("adult_mixed", n_samples=400, random_state=0)
        rows = dataset.X_train
        csv_path = tmp_path / "features.csv"
        write_csv(csv_path, rows, names=list(dataset.schema.names))
        schema_path = dataset.schema.to_json(tmp_path / "schema.json")

        artifact = tmp_path / "declared"
        assert main(
            [
                "train", "--model", "privbayes", "--data", str(csv_path),
                "--schema", str(schema_path), "--epsilon", "1.0",
                "--output", str(artifact), "--seed", "0",
            ]
        ) == 0
        capsys.readouterr()
        restored = load_transformer(artifact)
        # Declared ordinal stays ordinal (inference would one-hot it).
        assert restored.schema["education"].kind == "ordinal"

    def test_evaluate_works_on_csv_trained_artifacts(self, tmp_path, capsys):
        # Regression: CSV-trained artifacts record 'data'/'label' metadata,
        # and evaluate must split the CSV and use the stored transformer.
        from repro.transforms import write_csv

        dataset = load_dataset("adult_mixed", n_samples=500, random_state=0)
        rows = np.empty((len(dataset.X_train), dataset.X_train.shape[1] + 1), dtype=object)
        rows[:, :-1] = dataset.X_train
        rows[:, -1] = dataset.y_train
        csv_path = tmp_path / "adult.csv"
        write_csv(csv_path, rows, names=list(dataset.schema.names) + ["income"])
        artifact = tmp_path / "artifact"
        assert main(
            [
                "train", "--model", "privbayes", "--data", str(csv_path),
                "--label", "income", "--epsilon", "3.0",
                "--output", str(artifact), "--seed", "0",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["evaluate", "--artifact", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "Utility of privbayes on adult.csv" in out
        assert "auroc" in out

    def test_unknown_label_column_is_an_explicit_error(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_text("a,b\n1,2\n3,4\n")
        code = main(
            [
                "train", "--model", "privbayes", "--data", str(tmp_path / "t.csv"),
                "--label", "income", "--output", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "label column 'income'" in capsys.readouterr().err