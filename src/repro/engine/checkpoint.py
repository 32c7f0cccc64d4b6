"""Mid-training checkpointing with bit-identical resume.

A checkpoint freezes *everything* the training loop would need to continue as
if it had never stopped:

- the live parameter values being optimised (written **in place** into the
  optimizer's parameter arrays, so optimizer and model keep sharing them);
- the optimizer's mutable buffers (`Adam` moments and step count, `DPSGD`
  steps taken + base-optimizer state + noise-RNG state);
- the sampler RNG's bit-generator state (the models share one generator for
  batch order, reparameterisation noise, and DP noise, so this single state
  pins the entire stochastic stream);
- resumable callback state (the `HistoryLogger` records accumulated so
  far);
- the model's full ``state_dict()`` and config, so a checkpoint can also be
  loaded standalone (e.g. to salvage weights from a dead run);
- trainer progress (next epoch, global step) in the manifest.

Checkpoints reuse the artifact layout (``manifest.json`` + one ``.npz``,
``allow_pickle=False``) via :func:`repro.serving.artifacts.write_state_archive`
— imported lazily, because :mod:`repro.serving` imports the models, which
import this package.  Writes go to a temp directory renamed into place, so a
kill during saving never leaves a half-written checkpoint where resume would
find it.
"""

from __future__ import annotations

import os
import re
import shutil
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from repro.engine.callbacks import Callback
from repro.utils.rng import dump_generator_state, restore_generator_state
from repro.utils.validation import check_positive

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "CheckpointCallback",
    "CheckpointError",
    "CheckpointableMixin",
    "latest_checkpoint",
    "load_checkpoint",
    "restore_trainer_state",
    "save_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 1
STATE_FILENAME = "state.npz"
#: Checkpoints a :class:`CheckpointCallback` keeps; it prunes the oldest.
KEEP_CHECKPOINTS = 3
_EPOCH_DIR = re.compile(r"^epoch-(\d{6})$")
_REQUIRED_MANIFEST_KEYS = (
    "checkpoint_format_version",
    "model_class",
    "hyperparameters",
    "next_epoch",
    "global_step",
    "callbacks",
    "n_params",
)


class CheckpointError(RuntimeError):
    """A training checkpoint is missing, malformed, or incompatible."""


class Checkpoint:
    """A loaded checkpoint: its manifest plus the flat state arrays."""

    def __init__(self, manifest: dict, state: dict, path: Optional[Path] = None):
        self.manifest = manifest
        self.state = state
        self.path = path

    @property
    def next_epoch(self) -> int:
        return int(self.manifest["next_epoch"])

    @property
    def global_step(self) -> int:
        return int(self.manifest["global_step"])

    def model_state(self) -> dict:
        """The model's ``state_dict()`` entries, with the ``model.`` prefix stripped."""
        return _unpack(self.state, "model.")

    def build_model(self):
        """Construct the checkpointed model standalone (weights as of saving).

        This is the salvage path: it resolves the class through the serving
        registry and loads the persisted ``state_dict()``, without touching
        optimizer or RNG state.  The result samples like the model did at the
        checkpointed epoch — resuming *training* goes through
        :meth:`repro.engine.Trainer.fit` instead.
        """
        from repro.serving.registry import model_from_config, resolve_model_class

        try:
            cls = resolve_model_class(self.manifest["model_class"])
        except KeyError as error:
            raise CheckpointError(str(error)) from error
        try:
            model = model_from_config(cls, self.manifest["hyperparameters"])
            model.load_state_dict(self.model_state())
        except (TypeError, KeyError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint {self.path} has corrupt or incompatible model state: {error}"
            ) from error
        return model


def _unpack(state: dict, prefix: str) -> dict:
    return {
        key[len(prefix):]: value for key, value in state.items() if key.startswith(prefix)
    }


def save_checkpoint(path, trainer, model, next_epoch: int) -> Path:
    """Persist the full training state of ``trainer``/``model`` at ``path``."""
    from repro import __version__
    from repro.serving.artifacts import write_state_archive

    path = Path(path)
    optimizer = trainer.optimizer
    state = {"rng.sampler": np.asarray(dump_generator_state(trainer.rng))}
    for i, p in enumerate(optimizer.params):
        state[f"param.{i}"] = p.data.copy()
    for key, value in optimizer.state_dict().items():
        state[f"optimizer.{key}"] = value
    for key, value in model.state_dict().items():
        state[f"model.{key}"] = value
    for i, callback in enumerate(trainer.callbacks):
        for key, value in callback.state_dict(trainer, model).items():
            state[f"callback.{i}.{key}"] = value
    manifest = {
        "checkpoint_format_version": CHECKPOINT_FORMAT_VERSION,
        "repro_version": __version__,
        "model_class": type(model).__name__,
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "hyperparameters": model.get_config(),
        "next_epoch": int(next_epoch),
        "global_step": int(trainer.global_step),
        "callbacks": [type(callback).__name__ for callback in trainer.callbacks],
        "n_params": len(optimizer.params),
        "state_entries": len(state),
    }
    # Stage into a sibling temp directory and rename into place: a crash while
    # saving must never leave a partial directory that resume() would pick up.
    staging = path.with_name(path.name + ".tmp")
    if staging.exists():
        shutil.rmtree(staging)
    write_state_archive(staging, manifest, state, npz_name=STATE_FILENAME)
    if path.exists():
        shutil.rmtree(path)
    os.replace(staging, path)
    return path


def load_checkpoint(path) -> Checkpoint:
    """Read and structurally validate a checkpoint directory."""
    from repro.serving.artifacts import ArtifactError, read_state_archive

    path = Path(path)
    try:
        manifest, state = read_state_archive(path, npz_name=STATE_FILENAME)
    except ArtifactError as error:
        raise CheckpointError(str(error)) from error
    for key in _REQUIRED_MANIFEST_KEYS:
        if key not in manifest:
            raise CheckpointError(f"checkpoint {path} is missing manifest key {key!r}")
    version = manifest["checkpoint_format_version"]
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version!r} is not supported by this build "
            f"(supported: {CHECKPOINT_FORMAT_VERSION}); refusing to load {path}"
        )
    if "rng.sampler" not in state:
        raise CheckpointError(f"checkpoint {path} is missing the sampler RNG state")
    return Checkpoint(manifest, state, path)


def latest_checkpoint(directory) -> Optional[Path]:
    """The highest-epoch ``epoch-NNNNNN`` checkpoint under ``directory``, if any.

    In-progress ``.tmp`` staging directories are ignored, so a run killed in
    the middle of a save resumes from the last *complete* checkpoint.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    found = []
    for entry in directory.iterdir():
        match = _EPOCH_DIR.match(entry.name)
        if match and entry.is_dir():
            found.append((int(match.group(1)), entry))
    if not found:
        return None
    return max(found)[1]


def restore_trainer_state(trainer, checkpoint: Checkpoint) -> None:
    """Load ``checkpoint`` into a live trainer, mid-``fit``.

    Parameter values are written in place into the arrays of
    ``trainer.optimizer.params`` (the same objects the model's networks hold,
    whose ``data`` are views into the optimizer's arena), rather than through
    the model's ``load_state_dict`` — which would rebuild the networks and
    silently orphan the optimizer's parameter list.
    """
    manifest, state = checkpoint.manifest, checkpoint.state
    model_class = type(trainer.model).__name__
    if manifest["model_class"] != model_class:
        raise CheckpointError(
            f"checkpoint {checkpoint.path} holds a {manifest['model_class']} run, "
            f"cannot resume a {model_class}"
        )
    callback_names = [type(callback).__name__ for callback in trainer.callbacks]
    if list(manifest["callbacks"]) != callback_names:
        raise CheckpointError(
            f"checkpoint {checkpoint.path} was saved with callbacks "
            f"{manifest['callbacks']}, this trainer runs {callback_names}; "
            "callback state cannot be matched up"
        )
    params = trainer.optimizer.params
    if int(manifest["n_params"]) != len(params):
        raise CheckpointError(
            f"checkpoint {checkpoint.path} holds {manifest['n_params']} parameters, "
            f"this optimizer has {len(params)}"
        )
    for i, p in enumerate(params):
        key = f"param.{i}"
        if key not in state:
            raise CheckpointError(f"checkpoint {checkpoint.path} is missing {key!r}")
        value = np.asarray(state[key], dtype=np.float64)
        if value.shape != p.data.shape:
            raise CheckpointError(
                f"checkpoint parameter {i} has shape {value.shape}, the live "
                f"parameter expects {p.data.shape}"
            )
        p.data[...] = value
    try:
        trainer.optimizer.load_state_dict(_unpack(state, "optimizer."))
        for i, callback in enumerate(trainer.callbacks):
            callback.load_state_dict(trainer, trainer.model, _unpack(state, f"callback.{i}."))
    except ValueError as error:
        raise CheckpointError(
            f"checkpoint {checkpoint.path} is incompatible with this trainer: {error}"
        ) from error
    # Last: the sampler stream.  The models share one generator across the
    # sampler, reparameterisation noise, and DPSGD's noise draws (which
    # restored the same object just above) — restoring it once pins them all.
    restore_generator_state(trainer.rng, str(state["rng.sampler"]))
    trainer.epoch = checkpoint.next_epoch
    trainer.global_step = checkpoint.global_step


class CheckpointCallback(Callback):
    """Write a checkpoint every ``every`` completed epochs.

    Place it *last* in the callback list (the :class:`CheckpointableMixin`
    wiring does) so it snapshots every other callback's post-epoch state.
    It bounds disk usage by keeping the newest :data:`KEEP_CHECKPOINTS`.
    """

    def __init__(self, directory, every: int = 1):
        check_positive(every, "every")
        self.directory = Path(directory)
        self.every = int(every)
        #: Path of the most recently written checkpoint (None until one exists).
        self.last_saved: Optional[Path] = None

    def on_epoch_end(self, trainer, model, epoch: int, logs: dict) -> None:
        completed = epoch + 1
        if completed % self.every:
            return
        path = self.directory / f"epoch-{completed:06d}"
        self.last_saved = save_checkpoint(path, trainer, model, next_epoch=completed)
        self._prune()

    def _prune(self) -> None:
        found = sorted(
            entry
            for entry in self.directory.iterdir()
            if entry.is_dir() and _EPOCH_DIR.match(entry.name)
        )
        for stale in found[:-KEEP_CHECKPOINTS]:
            shutil.rmtree(stale, ignore_errors=True)


class CheckpointableMixin:
    """Opt-in checkpoint/resume wiring for Trainer-based models.

    Models mixing this in call :meth:`_engine_callbacks` when assembling their
    trainer's callback list and splat :meth:`_engine_fit_kwargs` into
    ``trainer.fit``; users configure the behaviour before ``fit()``::

        model.configure_checkpointing("run/checkpoints", every=2, resume=True)
        model.fit(X, y)

    With ``resume=True``, ``fit`` restores the newest complete checkpoint in
    the directory (if any) after the deterministic pre-training phases re-run,
    and continues bit-identically to an uninterrupted run.
    """

    _checkpoint_config: Optional[dict] = None

    def configure_checkpointing(self, directory, every: int = 1, resume: bool = False):
        """Enable checkpointing every ``every`` epochs under ``directory``."""
        check_positive(every, "every")
        self._checkpoint_config = {
            "directory": Path(directory),
            "every": int(every),
            "resume": bool(resume),
        }
        return self

    def _engine_callbacks(self) -> list:
        config = self._checkpoint_config
        if not config:
            return []
        return [CheckpointCallback(config["directory"], every=config["every"])]

    def _engine_fit_kwargs(self) -> dict:
        config = self._checkpoint_config
        if config and config["resume"]:
            return {"resume_from": latest_checkpoint(config["directory"])}
        return {}
