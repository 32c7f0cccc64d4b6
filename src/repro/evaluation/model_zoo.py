"""Factories for the synthesizers used across the experiments.

Every experiment in the paper instantiates the same families of models with
dataset-dependent hyper-parameters (Table IV).  :func:`model_factories`
centralises those choices and exposes a ``scale`` knob:

- ``"small"`` (default) — narrow hidden layers and few epochs so that the
  full experiment suite runs in minutes on a laptop (used by the tests and
  benchmark defaults);
- ``"paper"`` — the paper's architecture (hidden width 1000, Table-IV epochs),
  for users who want to spend the compute.

The relative ordering of methods — the quantity the tables and figures
report — is preserved at both scales.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.models import DPGM, DPVAE, P3GM, PGM, PrivBayes, VAE

__all__ = ["SCALES", "model_factories", "PAPER_SGD_NOISE"]

#: Architecture / training-length presets.
SCALES = {
    "small": {"hidden": (128,), "epochs": 4, "batch_size": 200, "latent_dim": 10},
    "paper": {"hidden": (1000,), "epochs": 10, "batch_size": 240, "latent_dim": 10},
}

#: DP-SGD noise multipliers the paper reports per dataset (Table IV).
PAPER_SGD_NOISE = {
    "credit": 1.83,
    "adult": 1.6,
    "adult_mixed": 1.6,
    "isolet": 3.5,
    "esr": 2.9,
    "mnist": 1.42,
    "fashion_mnist": 1.42,
}


def model_factories(
    epsilon: float = 1.0,
    delta: float = 1e-5,
    dataset_name: str = "credit",
    scale: str = "small",
    random_state=0,
    include: Optional[tuple] = None,
) -> dict:
    """Return ``name -> factory`` for the synthesizers used in the experiments.

    Parameters
    ----------
    epsilon, delta:
        Privacy target for the private models.
    dataset_name:
        Used to pick the paper's per-dataset DP-SGD noise multiplier.
    scale:
        ``"small"`` or ``"paper"`` (see :data:`SCALES`).
    include:
        Optional subset of model names to build
        (e.g. ``("P3GM", "DP-GM", "PrivBayes")``).
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}")
    preset = SCALES[scale]
    noise = PAPER_SGD_NOISE.get(dataset_name, 1.5)
    is_image = dataset_name in ("mnist", "fashion_mnist")

    common = dict(
        latent_dim=preset["latent_dim"],
        hidden=preset["hidden"],
        epochs=preset["epochs"],
        batch_size=preset["batch_size"],
        random_state=random_state,
    )
    phased_common = dict(common, n_mixture_components=3, em_iterations=20)
    # Image data: DP-PCA gets a larger share of the budget at simulated dataset
    # sizes (the projection is otherwise noise-dominated, see EXPERIMENTS.md),
    # and the non-private VAE gets longer training since it is the cheap
    # reference model.
    pca_budget = {}
    if is_image:
        pca_budget = {"epsilon_pca": 0.3}
        common = dict(common, latent_dim=max(preset["latent_dim"], 20))

    vae_common = dict(common, epochs=common["epochs"] * 3) if is_image else common
    factories: dict[str, Callable] = {
        "VAE": lambda: VAE(**vae_common),
        "PGM": lambda: PGM(**phased_common),
        "DP-VAE": lambda: DPVAE(epsilon=epsilon, delta=delta, **common),
        "P3GM": lambda: P3GM(
            epsilon=epsilon, delta=delta, noise_multiplier=noise, **phased_common, **pca_budget
        ),
        "P3GM-AE": lambda: P3GM(
            epsilon=epsilon,
            delta=delta,
            noise_multiplier=noise,
            variance_mode="fixed",
            **phased_common,
            **pca_budget,
        ),
        "DP-GM": lambda: DPGM(
            n_clusters=5,
            latent_dim=min(5, preset["latent_dim"]),
            hidden=(64,),
            epochs=max(2, preset["epochs"] // 2),
            batch_size=preset["batch_size"],
            epsilon=epsilon,
            delta=delta,
            random_state=random_state,
        ),
        "PrivBayes": lambda: PrivBayes(epsilon=epsilon, degree=2, random_state=random_state),
    }
    if include is not None:
        missing = set(include) - set(factories)
        if missing:
            raise KeyError(f"unknown model names: {sorted(missing)}")
        factories = {name: factories[name] for name in include}
    return factories
