"""Tests for mid-training checkpointing and bit-identical resume."""

import numpy as np
import pytest

from repro.engine import (
    CheckpointCallback,
    CheckpointError,
    EpochHook,
    HistoryLogger,
    ShuffleSampler,
    Trainer,
    latest_checkpoint,
    load_checkpoint,
    restore_trainer_state,
    save_checkpoint,
)
from repro.engine.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    KEEP_CHECKPOINTS,
    CheckpointableMixin,
)
from repro.models import VAE


def tiny_vae(epochs=4, seed=0):
    return VAE(latent_dim=3, hidden=(12,), epochs=epochs, batch_size=100, random_state=seed)


def make_training_setup(data, epochs=4, seed=0, callbacks=None):
    """A live trainer mid-construction, mirroring VAE.fit's internals."""
    model = tiny_vae(epochs=epochs, seed=seed)
    prepared = model._attach_labels(data, None)
    model.n_input_features_ = prepared.shape[1]
    model._build(model.n_input_features_)
    optimizer = model._make_optimizer(len(prepared))
    if callbacks is None:
        callbacks = [HistoryLogger(), EpochHook()]
    trainer = Trainer(
        model, optimizer, ShuffleSampler(model.batch_size), callbacks=callbacks, rng=model._rng
    )
    return (
        model, trainer, prepared, lambda idx: model._per_example_loss(prepared[idx], model._rng)
    )


def abort_at(epoch_to_abort):
    def hook(model, epoch):
        if epoch == epoch_to_abort:
            raise KeyboardInterrupt

    return hook


class TestSaveLoadRoundTrip:
    def test_round_trip_preserves_state_and_manifest(self, tmp_path, toy_unlabeled_data):
        model, trainer, _, loss = make_training_setup(toy_unlabeled_data, epochs=2)
        trainer.fit(len(toy_unlabeled_data), 2, loss)
        path = save_checkpoint(tmp_path / "epoch-000002", trainer, model, next_epoch=2)

        checkpoint = load_checkpoint(path)
        assert checkpoint.next_epoch == 2
        assert checkpoint.global_step == trainer.global_step
        assert checkpoint.manifest["model_class"] == "VAE"
        assert checkpoint.manifest["checkpoint_format_version"] == CHECKPOINT_FORMAT_VERSION
        assert checkpoint.manifest["callbacks"] == ["HistoryLogger", "EpochHook"]
        for i, p in enumerate(trainer.optimizer.params):
            np.testing.assert_array_equal(checkpoint.state[f"param.{i}"], p.data)

    def test_build_model_salvages_weights_standalone(self, tmp_path, toy_unlabeled_data):
        model, trainer, _, loss = make_training_setup(toy_unlabeled_data, epochs=2)
        trainer.fit(len(toy_unlabeled_data), 2, loss)
        path = save_checkpoint(tmp_path / "epoch-000002", trainer, model, next_epoch=2)

        salvaged = load_checkpoint(path).build_model()
        assert type(salvaged) is VAE
        expected = model.state_dict()
        for key, value in salvaged.state_dict().items():
            np.testing.assert_array_equal(value, expected[key])
        assert salvaged.sample(5, rng=0).shape == (5, toy_unlabeled_data.shape[1])

    @pytest.mark.parametrize(
        "recorded, refused",
        [
            ({"decoder_type": "bernoulli", "label_repeat": 10}, None),
            ({"decoder_type": "gaussian"}, "decoder_type"),
            ({"label_repeat": 3}, "label_repeat"),
        ],
    )
    def test_build_model_reads_parameters_an_earlier_build_recorded(
        self, tmp_path, toy_unlabeled_data, recorded, refused
    ):
        import json

        model, trainer, _, loss = make_training_setup(toy_unlabeled_data, epochs=1)
        trainer.fit(len(toy_unlabeled_data), 1, loss)
        path = save_checkpoint(tmp_path / "epoch-000001", trainer, model, next_epoch=1)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["hyperparameters"].update(recorded)
        (path / "manifest.json").write_text(json.dumps(manifest))
        if refused is not None:
            with pytest.raises(CheckpointError, match=refused):
                load_checkpoint(path).build_model()
            return
        salvaged = load_checkpoint(path).build_model()
        assert salvaged.get_config() == model.get_config()
        assert salvaged.sample(9, rng=4).tobytes() == model.sample(9, rng=4).tobytes()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nowhere")

    def test_damaged_state_raises(self, tmp_path, toy_unlabeled_data, damage_npz):
        model, trainer, _, loss = make_training_setup(toy_unlabeled_data, epochs=1)
        trainer.fit(len(toy_unlabeled_data), 1, loss)
        path = save_checkpoint(tmp_path / "epoch-000001", trainer, model, next_epoch=1)
        damage_npz(path / "state.npz")
        with pytest.raises(CheckpointError, match="state.npz"):
            load_checkpoint(path)

    def test_unsupported_format_version_raises(self, tmp_path, toy_unlabeled_data):
        import json

        model, trainer, _, loss = make_training_setup(toy_unlabeled_data, epochs=1)
        trainer.fit(len(toy_unlabeled_data), 1, loss)
        path = save_checkpoint(tmp_path / "epoch-000001", trainer, model, next_epoch=1)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["checkpoint_format_version"] = 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(path)

    def test_missing_manifest_key_raises(self, tmp_path, toy_unlabeled_data):
        import json

        model, trainer, _, loss = make_training_setup(toy_unlabeled_data, epochs=1)
        trainer.fit(len(toy_unlabeled_data), 1, loss)
        path = save_checkpoint(tmp_path / "epoch-000001", trainer, model, next_epoch=1)
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["global_step"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="global_step"):
            load_checkpoint(path)


class TestLatestCheckpoint:
    def test_missing_or_empty_directory_gives_none(self, tmp_path):
        assert latest_checkpoint(tmp_path / "absent") is None
        assert latest_checkpoint(tmp_path) is None

    def test_picks_highest_epoch(self, tmp_path):
        for n in (1, 3, 2):
            (tmp_path / f"epoch-{n:06d}").mkdir()
        assert latest_checkpoint(tmp_path) == tmp_path / "epoch-000003"

    def test_ignores_staging_and_foreign_entries(self, tmp_path):
        (tmp_path / "epoch-000002").mkdir()
        (tmp_path / "epoch-000005.tmp").mkdir()  # killed mid-save
        (tmp_path / "notes.txt").write_text("x")
        assert latest_checkpoint(tmp_path) == tmp_path / "epoch-000002"


class TestRestoreValidation:
    def make_checkpoint(self, tmp_path, data, **kwargs):
        model, trainer, _, loss = make_training_setup(data, epochs=1, **kwargs)
        trainer.fit(len(data), 1, loss)
        path = save_checkpoint(tmp_path / "epoch-000001", trainer, model, next_epoch=1)
        return load_checkpoint(path)

    def test_model_class_mismatch(self, tmp_path, toy_unlabeled_data):
        checkpoint = self.make_checkpoint(tmp_path, toy_unlabeled_data)
        checkpoint.manifest["model_class"] = "PGM"
        _, trainer, _, _ = make_training_setup(toy_unlabeled_data)
        with pytest.raises(CheckpointError, match="cannot resume"):
            restore_trainer_state(trainer, checkpoint)

    def test_callback_list_mismatch(self, tmp_path, toy_unlabeled_data):
        checkpoint = self.make_checkpoint(tmp_path, toy_unlabeled_data)
        _, trainer, _, _ = make_training_setup(
            toy_unlabeled_data, callbacks=[HistoryLogger()]
        )
        with pytest.raises(CheckpointError, match="callback"):
            restore_trainer_state(trainer, checkpoint)

    def test_parameter_count_mismatch(self, tmp_path, toy_unlabeled_data):
        checkpoint = self.make_checkpoint(tmp_path, toy_unlabeled_data)
        checkpoint.manifest["n_params"] = 1
        _, trainer, _, _ = make_training_setup(toy_unlabeled_data)
        with pytest.raises(CheckpointError, match="parameters"):
            restore_trainer_state(trainer, checkpoint)

    def test_parameter_shape_mismatch(self, tmp_path, toy_unlabeled_data):
        checkpoint = self.make_checkpoint(tmp_path, toy_unlabeled_data)
        checkpoint.state["param.0"] = np.zeros((2, 2))
        _, trainer, _, _ = make_training_setup(toy_unlabeled_data)
        with pytest.raises(CheckpointError, match="shape"):
            restore_trainer_state(trainer, checkpoint)

    def test_restore_is_in_place_on_the_optimizer_params(self, tmp_path, toy_unlabeled_data):
        checkpoint = self.make_checkpoint(tmp_path, toy_unlabeled_data)
        model, trainer, _, _ = make_training_setup(toy_unlabeled_data)
        live_params = list(trainer.optimizer.params)
        restore_trainer_state(trainer, checkpoint)
        # Same Parameter objects, new values: the model's networks and the
        # optimizer keep sharing them after the restore.
        assert trainer.optimizer.params is live_params or trainer.optimizer.params == live_params
        assert list(model._parameters()) == list(trainer.optimizer.params)
        assert trainer.epoch == 1


class TestCheckpointCallback:
    def test_writes_every_n_epochs_and_prunes(self, tmp_path, toy_unlabeled_data):
        model, trainer, _, loss = make_training_setup(
            toy_unlabeled_data,
            epochs=6,
            callbacks=[HistoryLogger(), CheckpointCallback(tmp_path, every=1)],
        )
        trainer.fit(len(toy_unlabeled_data), 6, loss)
        kept = sorted(p.name for p in tmp_path.iterdir())
        assert len(kept) == KEEP_CHECKPOINTS == 3
        assert kept == ["epoch-000004", "epoch-000005", "epoch-000006"]

    def test_every_skips_intermediate_epochs(self, tmp_path, toy_unlabeled_data):
        model, trainer, _, loss = make_training_setup(
            toy_unlabeled_data,
            epochs=5,
            callbacks=[CheckpointCallback(tmp_path, every=2)],
        )
        trainer.fit(len(toy_unlabeled_data), 5, loss)
        kept = sorted(p.name for p in tmp_path.iterdir())
        assert kept == ["epoch-000002", "epoch-000004"]

    def test_invalid_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointCallback(tmp_path, every=0)


class TestResumeBitIdentity:
    def test_vae_resumes_bit_identically_after_interrupt(self, tmp_path, toy_unlabeled_data):
        full = tiny_vae().fit(toy_unlabeled_data)

        interrupted = tiny_vae()
        interrupted.configure_checkpointing(tmp_path, every=1)
        interrupted.epoch_callback = abort_at(1)
        with pytest.raises(KeyboardInterrupt):
            interrupted.fit(toy_unlabeled_data)
        assert latest_checkpoint(tmp_path) is not None

        resumed = tiny_vae()
        resumed.configure_checkpointing(tmp_path, every=1, resume=True)
        resumed.fit(toy_unlabeled_data)

        expected = full.state_dict()
        actual = resumed.state_dict()
        assert set(actual) == set(expected)
        for key, value in expected.items():
            assert np.asarray(actual[key]).tobytes() == np.asarray(value).tobytes(), key
        assert resumed.history.records == full.history.records
        # The RNG position also matches, so post-training sampling agrees.
        np.testing.assert_array_equal(resumed.sample(10), full.sample(10))

    def test_resume_flag_without_checkpoints_starts_fresh(self, tmp_path, toy_unlabeled_data):
        model = tiny_vae(epochs=2)
        model.configure_checkpointing(tmp_path / "empty", every=1, resume=True)
        model.fit(toy_unlabeled_data)
        assert len(model.history) == 2


class TestCheckpointableMixin:
    def test_configure_checkpointing_validates_every(self):
        with pytest.raises(ValueError):
            tiny_vae().configure_checkpointing("x", every=0)

    def test_defaults_add_nothing(self):
        model = tiny_vae()
        assert model._engine_callbacks() == []
        assert model._engine_fit_kwargs() == {}

    def test_resume_kwarg_points_at_latest(self, tmp_path):
        (tmp_path / "epoch-000004").mkdir()

        class Anything(CheckpointableMixin):
            pass

        configured = Anything().configure_checkpointing(tmp_path, resume=True)
        assert configured._engine_fit_kwargs()["resume_from"] == tmp_path / "epoch-000004"
