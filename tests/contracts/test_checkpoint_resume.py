"""Registry-driven checkpoint/resume contract.

Every Trainer-based synthesizer (anything mixing in
:class:`repro.engine.CheckpointableMixin`) must survive a mid-training kill
and resume **bit-identically**: same weights, same optimizer buffers, same
history records, same privacy guarantee, same post-training samples.  A new
Trainer-based model registered in :mod:`repro.serving.registry` gets this
suite for free.
"""

import numpy as np
import pytest

from contract_kit import make_contract_data, tiny_model
from repro.engine import CheckpointableMixin, Trainer, latest_checkpoint
from repro.serving.registry import get_model_spec, registered_synthesizers

RESUMABLE = tuple(
    name
    for name in registered_synthesizers()
    if issubclass(get_model_spec(name).cls, CheckpointableMixin)
)

EPOCHS = 3
ABORT_AT_EPOCH = 1  # killed during the second epoch's hook


def test_every_trainer_based_model_is_checkpointable():
    assert set(RESUMABLE) == {"vae", "dp-vae", "pgm", "p3gm"}


#: Checkpoint manifests record the callback class names in order, and resume
#: refuses a checkpoint whose names differ from the live trainer's.
PUBLIC_CALLBACKS = ["HistoryLogger", "MetricsCallback", "EpochHook"]
PRIVATE_CALLBACKS = ["PrivacyBudgetTracker", "MetricsCallback", "HistoryLogger", "EpochHook"]
TRAINER_CALLBACKS = {
    "vae": PUBLIC_CALLBACKS,
    "pgm": PUBLIC_CALLBACKS,
    "dp-vae": PRIVATE_CALLBACKS,
    "p3gm": PRIVATE_CALLBACKS,
}


@pytest.mark.parametrize("checkpointing", [False, True], ids=["plain", "checkpointed"])
@pytest.mark.parametrize("name", RESUMABLE)
def test_trainer_callback_names_are_pinned(name, checkpointing, contract_X, tmp_path, monkeypatch):
    built = []

    def record(trainer, *args, **kwargs):
        built.append([type(callback).__name__ for callback in trainer.callbacks])
        return trainer

    monkeypatch.setattr(Trainer, "fit", record)
    model = tiny_model(name)
    if checkpointing:
        model.configure_checkpointing(tmp_path)
    model.fit(contract_X)
    checkpoint = ["CheckpointCallback"] if checkpointing else []
    assert built == [TRAINER_CALLBACKS[name] + checkpoint]


def resumable_model(name):
    model = tiny_model(name)
    # The kit's single-epoch override leaves no room to interrupt; the epoch
    # count feeds sigma calibration, so both runs must use the same value.
    model.epochs = EPOCHS
    return model


@pytest.fixture(scope="module")
def contract_X():
    X, _ = make_contract_data()
    return X


@pytest.fixture(scope="module")
def resumed_pairs(tmp_path_factory, contract_X):
    """For each resumable model: (uninterrupted run, interrupted+resumed run)."""
    pairs = {}
    for name in RESUMABLE:
        directory = tmp_path_factory.mktemp(f"ckpt-{name}")
        full = resumable_model(name).fit(contract_X)

        interrupted = resumable_model(name)
        interrupted.configure_checkpointing(directory, every=1)

        def abort(model, epoch):
            if epoch == ABORT_AT_EPOCH:
                raise KeyboardInterrupt

        interrupted.epoch_callback = abort
        with pytest.raises(KeyboardInterrupt):
            interrupted.fit(contract_X)
        assert latest_checkpoint(directory) is not None, name

        resumed = resumable_model(name)
        resumed.configure_checkpointing(directory, every=1, resume=True)
        resumed.fit(contract_X)
        pairs[name] = (full, resumed)
    return pairs


@pytest.mark.parametrize("name", RESUMABLE)
def test_resume_reproduces_the_uninterrupted_state_bit_for_bit(name, resumed_pairs):
    full, resumed = resumed_pairs[name]
    expected = full.state_dict()
    actual = resumed.state_dict()
    assert set(actual) == set(expected)
    for key, value in expected.items():
        assert np.asarray(actual[key]).tobytes() == np.asarray(value).tobytes(), (
            f"{name}: state entry {key!r} diverged across resume"
        )


@pytest.mark.parametrize("name", RESUMABLE)
def test_resume_reproduces_the_training_history(name, resumed_pairs):
    full, resumed = resumed_pairs[name]
    assert len(resumed.history) == EPOCHS
    assert resumed.history.records == full.history.records


@pytest.mark.parametrize("name", RESUMABLE)
def test_resume_reproduces_the_privacy_guarantee_exactly(name, resumed_pairs):
    full, resumed = resumed_pairs[name]
    assert resumed.privacy_spent() == full.privacy_spent()


@pytest.mark.parametrize("name", RESUMABLE)
def test_resume_leaves_the_rng_at_the_same_position(name, resumed_pairs):
    # Sampling without an explicit rng draws from the model's own stream: if
    # the resumed stream ended anywhere else, these draws would differ.
    full, resumed = resumed_pairs[name]
    np.testing.assert_array_equal(resumed.sample(13), full.sample(13))
