"""``repro.serving`` — versioned model artifacts and the synthesis service.

The release side of the paper's story: a trained private generative model —
not the data — is what leaves the building.  This package provides

- a versioned on-disk artifact format (:mod:`repro.serving.artifacts`),
- a name-keyed registry of releasable synthesizers
  (:mod:`repro.serving.registry`),
- a batched/streaming :class:`SynthesisService` whose LRU cache holds one
  entry per artifact, its model and its transformer loaded together
  (:mod:`repro.serving.service`), and
- the ``python -m repro`` command line (:mod:`repro.serving.cli`).
"""

from repro.serving.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    load_artifact,
    load_transformer,
    manifest_privacy,
    read_manifest,
    save_artifact,
)
from repro.serving.registry import (
    MODEL_REGISTRY,
    ModelSpec,
    get_model_spec,
    registered_synthesizers,
    resolve_model_class,
)
from repro.serving.service import DEFAULT_CHUNK_SIZE, SynthesisService

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactError",
    "DEFAULT_CHUNK_SIZE",
    "MODEL_REGISTRY",
    "ModelSpec",
    "SynthesisService",
    "get_model_spec",
    "load_artifact",
    "load_transformer",
    "manifest_privacy",
    "read_manifest",
    "registered_synthesizers",
    "resolve_model_class",
    "save_artifact",
]
