"""Experiment runners — one function per table/figure of the paper.

Each function runs its named spec from :mod:`repro.experiments.presets`
through :class:`repro.experiments.Runner` and shapes the records into the
rows (or, for Figure 7, the per-model curves) the benchmark harness prints.
The preset is the experiment's only definition, so a function takes no
arguments.  Another size, seed or grid is an
:class:`~repro.experiments.ExperimentSpec` run by ``Runner``, and
``python -m repro bench --spec NAME`` runs a preset with replicate seeds, a
worker pool or a resumable cache.
"""

from __future__ import annotations

from repro.experiments.presets import get_experiment
from repro.experiments.runner import Runner

__all__ = [
    "run_table5_nonprivate_comparison",
    "run_table6_private_tabular",
    "run_table7_image_classification",
    "run_fig2_sample_quality",
    "run_fig4_epsilon_sweep",
    "run_fig5_dimension_sweep",
    "run_fig6_composition",
    "run_fig7_learning_efficiency",
]


def _records(name: str) -> list:
    return Runner().run(get_experiment(name)).records


def _rows(name: str) -> list:
    return [record["result"] for record in _records(name)]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def run_table5_nonprivate_comparison() -> list:
    """Table V: VAE vs PGM vs P3GM on the (simulated) Kaggle Credit dataset."""
    return _rows("table5_nonprivate")


def run_table6_private_tabular() -> list:
    """Table VI: PrivBayes vs DP-GM vs P3GM vs original on four tabular datasets."""
    records = _records("table6_private_tabular")
    # The paper prints each dataset's synthesizer rows followed by its
    # "original" reference row.
    rows = []
    for dataset_name in get_experiment("table6_private_tabular")[0].datasets:
        for kind in ("utility", "original"):
            rows.extend(
                record["result"]
                for record in records
                if record["dataset"] == dataset_name and record["kind"] == kind
            )
    return rows


def run_table7_image_classification() -> list:
    """Table VII: classification accuracy on synthetic image data."""
    return _rows("table7_images")


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def run_fig2_sample_quality() -> list:
    """Figure 2 proxy: fidelity/diversity/coverage of samples on simulated MNIST."""
    return _rows("fig2_sample_quality")


def run_fig4_epsilon_sweep() -> list:
    """Figure 4: AUROC/AUPRC on Kaggle Credit as the privacy budget varies."""
    # The non-private PGM reference row (epsilon=None) is repeated per epsilon
    # exactly like the paper's flat non-private line.
    reference, *sweep = _records("fig4_epsilon_sweep")
    epsilons = get_experiment("fig4_epsilon_sweep")[1].epsilons
    rows = [{"epsilon": epsilon, **reference["result"]} for epsilon in epsilons]
    rows.extend({"epsilon": record["epsilon"], **record["result"]} for record in sweep)
    return rows


def run_fig5_dimension_sweep() -> list:
    """Figure 5: P3GM accuracy on simulated MNIST as the PCA dimension varies."""
    return _rows("fig5_dimension_sweep")


def run_fig6_composition() -> list:
    """Figure 6: total epsilon under RDP vs the zCDP+MA baseline, varying sigma_s.

    This experiment is purely analytic (no training), exactly like the paper's.
    """
    return _rows("fig6_composition")


def run_fig7_learning_efficiency() -> dict:
    """Figure 7: per-epoch reconstruction loss and downstream score.

    Trains DP-VAE, P3GM(AE) and P3GM and records, after every epoch, the
    reconstruction loss on the training data and the downstream utility of
    data sampled at that point (classification accuracy for image data,
    AUROC for binary data).
    """
    return {record["model"]: record["result"] for record in _records("fig7_learning_efficiency")}
