"""Name-keyed registry of the releasable synthesizers.

The serving layer (artifacts, service, CLI) refers to models by short
registry names rather than python classes, so a manifest written by one
process can be resolved by another.  Each entry ties the implementation class
to the paper's capability matrix (Table I) via
:func:`repro.models.capabilities.capability_for`.  :func:`model_from_config`
turns a recorded ``get_config()`` back into an unfitted model, including one
an earlier build recorded with parameters this build has retired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.models import DPGM, DPVAE, P3GM, PGM, PrivBayes, VAE
from repro.models.base import LABEL_COPIES
from repro.models.capabilities import Capability, capability_for
from repro.models.dp_gm import KMEANS_BUDGET_FRACTION, KMEANS_ITERATIONS
from repro.models.privbayes import MAX_PARENT_CANDIDATES

__all__ = [
    "ModelSpec",
    "MODEL_REGISTRY",
    "get_model_spec",
    "model_from_config",
    "registered_synthesizers",
    "resolve_model_class",
]


@dataclass(frozen=True)
class ModelSpec:
    """One releasable synthesizer: registry name, class, and Table-I tie-in."""

    name: str
    cls: type
    table1_name: Optional[str]
    description: str

    @property
    def capability(self) -> Optional[Capability]:
        """The paper's Table-I claims for this model (None if not listed)."""
        if self.table1_name is None:
            return None
        return capability_for(self.table1_name)


MODEL_REGISTRY: dict = {
    spec.name: spec
    for spec in (
        ModelSpec("vae", VAE, None, "non-private VAE reference model"),
        ModelSpec("dp-vae", DPVAE, "DP-VAE", "VAE trained end to end with DP-SGD"),
        ModelSpec("pgm", PGM, None, "non-private phased generative model"),
        ModelSpec("p3gm", P3GM, "P3GM", "privacy-preserving phased generative model"),
        ModelSpec("dp-gm", DPGM, "DP-GM", "DP mixture of generative networks"),
        ModelSpec("privbayes", PrivBayes, "PrivBayes", "Bayesian-network synthesizer"),
    )
}


def get_model_spec(name: str) -> ModelSpec:
    """Resolve a registry name (case-insensitive) to its :class:`ModelSpec`."""
    key = name.lower()
    if key not in MODEL_REGISTRY:
        raise KeyError(
            f"unknown model {name!r}; registered synthesizers: {sorted(MODEL_REGISTRY)}"
        )
    return MODEL_REGISTRY[key]


def registered_synthesizers() -> tuple:
    """Registry names of every releasable synthesizer, in a stable order."""
    return tuple(sorted(MODEL_REGISTRY))


#: Constructor parameters earlier builds accepted and recorded in manifests
#: and checkpoints, each with the one value this build fixes.
RETIRED_HYPERPARAMETERS = {
    "decoder_type": "bernoulli",
    "fixed_variance": 0.0,
    "label_repeat": LABEL_COPIES,
    "kmeans_iterations": KMEANS_ITERATIONS,
    "kmeans_budget_fraction": KMEANS_BUDGET_FRACTION,
    "max_parent_candidates": MAX_PARENT_CANDIDATES,
}


def model_from_config(cls: type, hyperparameters: dict):
    """An unfitted ``cls`` built from a recorded ``get_config()``.

    A retired parameter holding the value this build fixes is dropped; any
    other value raises ``ValueError`` naming it, because the model it
    describes cannot be rebuilt.  Unknown parameters raise ``TypeError``.
    """
    config = dict(hyperparameters)
    for key, fixed in RETIRED_HYPERPARAMETERS.items():
        if key in config and config.pop(key) != fixed:
            raise ValueError(
                f"{key}={hyperparameters[key]!r} is retired; this build fixes {key}={fixed!r}"
            )
    return cls(**config)


def resolve_model_class(class_name: str) -> type:
    """Map a manifest's ``model_class`` (a python class name) back to the class."""
    for spec in MODEL_REGISTRY.values():
        if spec.cls.__name__ == class_name:
            return spec.cls
    known = sorted(spec.cls.__name__ for spec in MODEL_REGISTRY.values())
    raise KeyError(f"unknown model class {class_name!r}; known classes: {known}")
