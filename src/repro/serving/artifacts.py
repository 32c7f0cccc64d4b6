"""Versioned on-disk artifacts for trained synthesizers.

An artifact is a directory holding two or three files:

- ``manifest.json`` — the release record: artifact format version, model
  class, hyper-parameters (the model's ``get_config()``), the data schema the
  model was fitted on, the preprocessing pipeline's configuration (format
  version 2), and the ``(epsilon, delta)`` privacy guarantee actually spent.
  Everything a consumer needs to decide whether to trust and how to query the
  model, without loading any weights.
- ``weights.npz`` — the fitted state (``model.state_dict()``) as plain numpy
  arrays.  Object arrays are never written, so loading uses
  ``allow_pickle=False`` and artifacts cannot execute code on load.
- ``transformer.npz`` (optional, format version 2) — the fitted
  :class:`repro.transforms.TableTransformer` state when the model was trained
  on an encoded mixed-type table.  With it, a released model can emit
  **original-space** rows (real category labels, raw numeric ranges) from the
  artifact alone.

Format version 1 artifacts (no transformer) keep loading unchanged.
Loading refuses unknown format versions and model-class mismatches with
explicit errors rather than producing a silently wrong synthesizer.  Every
file — weights, transformer, and the training checkpoints' state — is read
through one ``manifest.json`` parser and one ``.npz`` reader, so an empty,
truncated or bit-flipped archive raises :class:`ArtifactError`, never a zip
or end-of-file error.
"""

from __future__ import annotations

import json
import zipfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from repro import __version__
from repro.serving.registry import MODEL_REGISTRY, model_from_config, resolve_model_class

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactError",
    "load_artifact",
    "load_transformer",
    "manifest_privacy",
    "read_manifest",
    "read_state_archive",
    "save_artifact",
    "write_state_archive",
]

ARTIFACT_FORMAT_VERSION = 2
SUPPORTED_FORMAT_VERSIONS = (1, 2)
MANIFEST_FILENAME = "manifest.json"
WEIGHTS_FILENAME = "weights.npz"
TRANSFORMER_FILENAME = "transformer.npz"


class ArtifactError(RuntimeError):
    """A model artifact is missing, malformed, or incompatible."""


#: What a damaged ``.npz`` raises while it is opened and read: ``OSError`` for
#: an unreadable file, ``EOFError`` for an empty one, ``BadZipFile`` for a cut
#: or bit-flipped one (a bad CRC-32 included) and ``ValueError`` for a
#: malformed array header.
_ARCHIVE_ERRORS = (OSError, EOFError, ValueError, zipfile.BadZipFile)


def write_state_archive(path, manifest: dict, state: dict, npz_name: str = WEIGHTS_FILENAME) -> Path:
    """Write the shared on-disk layout: ``manifest.json`` + one state ``.npz``.

    Both release artifacts and training checkpoints persist through this
    helper, so they share the same safety property: ``state`` must be plain
    numpy arrays (object arrays would require pickling and are refused by
    ``np.savez``'s consumers here — loading always uses ``allow_pickle=False``).
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / MANIFEST_FILENAME).write_text(json.dumps(manifest, indent=2) + "\n")
    np.savez(path / npz_name, **state)
    return path


def _parse_manifest(path: Path) -> dict:
    """The one ``manifest.json`` parser of artifacts and checkpoints alike.

    Structural only (the file exists and is JSON); each caller checks the
    keys its own format requires.
    """
    manifest_path = path / MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise ArtifactError(f"{path} is not an artifact or checkpoint: missing {MANIFEST_FILENAME}")
    try:
        return json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise ArtifactError(f"{manifest_path} is not valid JSON: {error}") from error


def _read_arrays(npz_path: Path) -> dict:
    """The arrays of one ``.npz`` (weights, transformer or checkpoint state).

    Loaded with ``allow_pickle=False``; every way a damaged file fails is
    raised as :class:`ArtifactError`.  The file is opened here, not by
    ``np.load``, which leaves its own handle open when a truncated archive
    fails in ``zipfile``.
    """
    if not npz_path.is_file():
        raise ArtifactError(f"{npz_path.parent}: {npz_path.name} is missing")
    try:
        with open(npz_path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            return {key: archive[key] for key in archive.files}
    except _ARCHIVE_ERRORS as error:
        raise ArtifactError(
            f"{npz_path} is corrupt or unreadable ({type(error).__name__}: {error})"
        ) from error


def read_state_archive(path, npz_name: str = WEIGHTS_FILENAME) -> tuple:
    """Read a ``(manifest, state)`` pair written by :func:`write_state_archive`.

    Performs only the structural half of validation (files exist, JSON parses,
    arrays load without pickling); semantic checks belong to the caller.
    """
    path = Path(path)
    return _parse_manifest(path), _read_arrays(path / npz_name)


def _encode_float(value: float):
    """JSON-safe float: non-finite values become strings ('inf', 'nan')."""
    value = float(value)
    return value if np.isfinite(value) else repr(value)


def _decode_float(value) -> float:
    return float(value)


def _registry_name_for(model) -> Optional[str]:
    for spec in MODEL_REGISTRY.values():
        if type(model) is spec.cls:
            return spec.name
    return None


def _schema_of(model) -> dict:
    classes = getattr(model, "_classes", None)
    return {
        "n_input_features": int(model.n_input_features_),
        "classes": None if classes is None else np.asarray(classes).tolist(),
    }


def save_artifact(
    model,
    path,
    name: Optional[str] = None,
    metadata: Optional[dict] = None,
    transformer=None,
) -> Path:
    """Write a fitted synthesizer to ``path`` (a directory) and return it.

    Parameters
    ----------
    model:
        A fitted :class:`repro.models.GenerativeModel`.
    name:
        Human-readable artifact name recorded in the manifest (defaults to the
        model's registry name).
    metadata:
        Optional JSON-serialisable extras (e.g. the training dataset and seed)
        stored verbatim under the manifest's ``metadata`` key.
    transformer:
        Optional fitted :class:`repro.transforms.TableTransformer` the
        training data went through.  Persisted alongside the weights
        (config in the manifest, state in ``transformer.npz``) so ``sample``
        can emit original-space rows from the artifact alone.
    """
    path = Path(path)
    state = model.state_dict()  # raises if the model is not fitted
    epsilon, delta = model.privacy_spent()
    manifest = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "repro_version": __version__,
        "model_class": type(model).__name__,
        "name": name or _registry_name_for(model) or type(model).__name__.lower(),
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "hyperparameters": model.get_config(),
        "privacy": {"epsilon": _encode_float(epsilon), "delta": _encode_float(delta)},
        "schema": _schema_of(model),
        "transformer": None if transformer is None else transformer.get_config(),
        "state_entries": len(state),
        "metadata": metadata or {},
    }
    write_state_archive(path, manifest, state)
    if transformer is not None:
        np.savez(path / TRANSFORMER_FILENAME, **transformer.state_dict())
    return path


def read_manifest(path) -> dict:
    """Read and structurally validate an artifact's manifest."""
    path = Path(path)
    manifest = _parse_manifest(path)
    for key in ("format_version", "model_class", "hyperparameters", "privacy"):
        if key not in manifest:
            raise ArtifactError(f"{path / MANIFEST_FILENAME} is missing required key {key!r}")
    version = manifest["format_version"]
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise ArtifactError(
            f"artifact format version {version!r} is not supported by this build "
            f"(supported: {list(SUPPORTED_FORMAT_VERSIONS)}); refusing to load {path}"
        )
    return manifest


def manifest_privacy(manifest: dict) -> tuple:
    """The ``(epsilon, delta)`` recorded in a manifest, as floats."""
    privacy = manifest["privacy"]
    return (_decode_float(privacy["epsilon"]), _decode_float(privacy["delta"]))


def load_artifact(path, expected_class=None):
    """Load a synthesizer from an artifact directory.

    Parameters
    ----------
    path:
        Artifact directory produced by :func:`save_artifact`.
    expected_class:
        Optional class (or class name) the caller requires; a mismatch raises
        :class:`ArtifactError` instead of handing back a different model type.
    """
    path = Path(path)
    manifest = read_manifest(path)
    class_name = manifest["model_class"]
    if expected_class is not None:
        expected_name = (
            expected_class if isinstance(expected_class, str) else expected_class.__name__
        )
        if class_name != expected_name:
            raise ArtifactError(
                f"artifact {path} holds a {class_name} model, not the requested "
                f"{expected_name}"
            )
    try:
        cls = resolve_model_class(class_name)
    except KeyError as error:
        raise ArtifactError(str(error)) from error

    try:
        model = model_from_config(cls, manifest["hyperparameters"])
    except (TypeError, ValueError) as error:
        raise ArtifactError(
            f"artifact {path} carries hyperparameters {class_name} does not accept "
            f"(manifest written by a different build?): {error}"
        ) from error
    state = _read_arrays(path / WEIGHTS_FILENAME)
    try:
        model.load_state_dict(state)
    except (KeyError, ValueError) as error:
        raise ArtifactError(f"artifact {path} has corrupt or incompatible weights: {error}") from error
    return model


def load_transformer(path):
    """Load the fitted preprocessing pipeline of an artifact, if it has one.

    Returns a fitted :class:`repro.transforms.TableTransformer`, or ``None``
    for artifacts released without one (including every format-version-1
    artifact, which predates transformer persistence).
    """
    from repro.transforms import TableTransformer

    path = Path(path)
    manifest = read_manifest(path)
    config = manifest.get("transformer")
    if config is None:
        return None
    try:
        transformer = TableTransformer.from_config(config)
    except (KeyError, ValueError) as error:
        raise ArtifactError(
            f"artifact {path} has an invalid transformer config: {error}"
        ) from error
    state = _read_arrays(path / TRANSFORMER_FILENAME)
    try:
        transformer.load_state_dict(state)
    except (KeyError, ValueError) as error:
        raise ArtifactError(
            f"artifact {path} has corrupt or incompatible transformer state: {error}"
        ) from error
    return transformer
