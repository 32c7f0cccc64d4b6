"""Named experiment specs: the paper's tables/figures plus miniature presets.

Every entry of :data:`EXPERIMENTS` maps a spec name to a tuple of declarative
dicts (expanded through :meth:`ExperimentSpec.from_dict`).  The paper mapping:

================  =============================  ==============================
Paper reference   Spec name                      Contents
================  =============================  ==============================
Table V           ``table5_nonprivate``          VAE/PGM/P3GM on Kaggle Credit
Table VI          ``table6_private_tabular``     PrivBayes/DP-GM/P3GM + original
                                                 on four tabular datasets
Table VII         ``table7_images``              synthetic-image classification
Figure 2          ``fig2_sample_quality``        fidelity/diversity/coverage
Figure 4          ``fig4_epsilon_sweep``         utility vs privacy budget
Figure 5          ``fig5_dimension_sweep``       P3GM vs DP-PCA dimension
Figure 6          ``fig6_composition``           RDP vs zCDP+MA accounting
Figure 7          ``fig7_learning_efficiency``   per-epoch loss/utility curves
(smoke preset)    ``smoke``                      miniaturized full grid
(mixed preset)    ``mixed_smoke``                mixed-type utility grid on the
                                                 ``adult_mixed`` simulator
================  =============================  ==============================

Each paper spec is the one definition of its experiment, at the laptop sizes
tier-1 runs: its ``repro.evaluation`` ``run_table*/run_fig*`` function and
``python -m repro bench --spec NAME`` both run exactly its trials.

The ``smoke`` preset covers every trial kind with subsampled datasets so the
whole grid runs in well under a minute — the nightly CI job and the
``python -m repro bench --spec smoke`` artifact use it.  The
``mixed_smoke`` preset runs the paper's Section IV-E mixed-type protocol end
to end: categorical/ordinal/binary columns are encoded through
:class:`repro.transforms.TableTransformer` before synthesis, so it exercises
the preprocessing subsystem inside the utility pipeline.
"""

from __future__ import annotations

from repro.experiments.spec import ExperimentSpec
from repro.experiments.trials import COMPOSITION_DEFAULTS

__all__ = ["EXPERIMENTS", "get_experiment", "experiment_names"]

#: Table VI's simulated size per dataset (laptop scale).
TABLE6_SIZES = {"credit": 10000, "esr": 1500, "adult": 2000, "isolet": 600}

_DECLARATIONS = {
    "table5_nonprivate": (
        {
            "name": "table5_nonprivate",
            "kind": "utility",
            "models": ["VAE", "PGM", "P3GM"],
            "datasets": ["credit"],
            "epsilons": [1.0],
            "params": {"n_samples": 12000, "scale": "small", "n_synthetic_cap": 6000},
        },
    ),
    "table6_private_tabular": (
        {
            "name": "table6_private_tabular",
            "kind": "utility",
            "models": ["PrivBayes", "DP-GM", "P3GM"],
            "datasets": ["credit", "esr", "adult", "isolet"],
            "epsilons": [1.0],
            "params": {"sizes": TABLE6_SIZES, "scale": "small", "n_synthetic_cap": 6000},
        },
        {
            "name": "table6_private_tabular",
            "kind": "original",
            "datasets": ["credit", "esr", "adult", "isolet"],
            "params": {"sizes": TABLE6_SIZES, "scale": "small"},
        },
    ),
    "table7_images": (
        {
            "name": "table7_images",
            "kind": "utility",
            "models": ["VAE", "DP-GM", "PrivBayes", "P3GM"],
            "datasets": ["mnist", "fashion_mnist"],
            "epsilons": [1.0],
            "params": {"n_samples": 1000, "scale": "small"},
        },
    ),
    "fig2_sample_quality": (
        {
            "name": "fig2_sample_quality",
            "kind": "sample_quality",
            "models": ["VAE", "DP-VAE", "DP-GM", "P3GM"],
            "datasets": ["mnist"],
            "epsilons": [1.0],
            "params": {"n_samples": 1000, "scale": "small"},
        },
    ),
    "fig4_epsilon_sweep": (
        {
            "name": "fig4_epsilon_sweep",
            "kind": "utility",
            "models": ["PGM"],
            "datasets": ["credit"],
            "params": {"n_samples": 6000, "scale": "small", "n_synthetic_cap": 6000},
        },
        {
            "name": "fig4_epsilon_sweep",
            "kind": "utility",
            "models": ["P3GM", "DP-GM", "PrivBayes"],
            "datasets": ["credit"],
            "epsilons": [0.3, 10.0],
            "params": {"n_samples": 6000, "scale": "small", "n_synthetic_cap": 6000},
        },
    ),
    "fig5_dimension_sweep": (
        {
            "name": "fig5_dimension_sweep",
            "kind": "p3gm_dimension",
            "models": ["P3GM"],
            "datasets": ["mnist"],
            "epsilons": [1.0],
            "grid": {"dimension": [2, 10, 40]},
            "params": {"n_samples": 1000, "scale": "small"},
        },
    ),
    "fig6_composition": (
        {
            "name": "fig6_composition",
            "kind": "composition",
            "grid": {"sigma": [1.0, 1.5, 2.0, 3.0, 5.0, 8.0]},
            "params": dict(COMPOSITION_DEFAULTS),
        },
    ),
    "fig7_learning_efficiency": (
        {
            "name": "fig7_learning_efficiency",
            "kind": "learning_curve",
            "models": ["DP-VAE", "P3GM-AE", "P3GM"],
            "datasets": ["mnist"],
            "epsilons": [1.0],
            "params": {"n_samples": 1000, "scale": "small", "epochs": 3},
        },
    ),
    # Miniaturized full grid: every trial kind, tiny subsampled datasets.
    "smoke": (
        {
            "name": "smoke",
            "kind": "utility",
            "models": ["VAE", "P3GM"],
            "datasets": ["credit"],
            "epsilons": [1.0],
            "params": {"n_samples": 2000, "subsample": 400, "scale": "small",
                       "n_synthetic_cap": 400},
        },
        {
            "name": "smoke",
            "kind": "original",
            "datasets": ["credit"],
            "params": {"n_samples": 2000, "subsample": 400, "scale": "small"},
        },
        {
            "name": "smoke",
            "kind": "sample_quality",
            "models": ["VAE"],
            "datasets": ["mnist"],
            "epsilons": [1.0],
            "params": {"n_samples": 1000, "subsample": 200, "scale": "small"},
        },
        {
            "name": "smoke",
            "kind": "p3gm_dimension",
            "models": ["P3GM"],
            "datasets": ["mnist"],
            "epsilons": [1.0],
            "grid": {"dimension": [2, 5]},
            "params": {"n_samples": 1000, "subsample": 200, "scale": "small"},
        },
        {
            "name": "smoke",
            "kind": "utility",
            "models": ["PrivBayes"],
            "datasets": ["adult_mixed"],
            "epsilons": [1.0],
            "params": {"n_samples": 2000, "subsample": 400, "scale": "small",
                       "n_synthetic_cap": 400},
        },
        {
            # Full resolved params (not just delta) so these cells share their
            # content address — and thus a cache — with fig6_composition.
            "name": "smoke",
            "kind": "composition",
            "grid": {"sigma": [1.0, 3.0]},
            "params": dict(COMPOSITION_DEFAULTS),
        },
        {
            "name": "smoke",
            "kind": "learning_curve",
            "models": ["DP-VAE", "P3GM"],
            "datasets": ["mnist"],
            "epsilons": [1.0],
            "params": {"n_samples": 1000, "subsample": 200, "scale": "small", "epochs": 2},
        },
    ),
    # Mixed-type protocol: the adult_mixed simulator's string categorical /
    # ordinal / binary columns go through the shared TableTransformer inside
    # the utility pipeline (fit on train split, applied to both splits).
    "mixed_smoke": (
        {
            "name": "mixed_smoke",
            "kind": "utility",
            "models": ["PrivBayes", "P3GM"],
            "datasets": ["adult_mixed"],
            "epsilons": [1.0],
            "params": {"n_samples": 2000, "subsample": 500, "scale": "small",
                       "n_synthetic_cap": 500},
        },
        {
            "name": "mixed_smoke",
            "kind": "original",
            "datasets": ["adult_mixed"],
            "params": {"n_samples": 2000, "subsample": 500, "scale": "small"},
        },
    ),
}

EXPERIMENTS = {
    name: tuple(ExperimentSpec.from_dict(block) for block in blocks)
    for name, blocks in _DECLARATIONS.items()
}


def experiment_names() -> tuple:
    """Registered spec names, in a stable order."""
    return tuple(sorted(EXPERIMENTS))


def get_experiment(name: str) -> tuple:
    """Resolve a spec name to its tuple of :class:`ExperimentSpec` grids."""
    key = name.lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]
