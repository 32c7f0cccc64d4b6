"""Experiment runners — one thin wrapper per table/figure of the paper.

Each function runs its named spec from :mod:`repro.experiments.presets`
through :class:`repro.experiments.Runner`, overriding only the grid axes and
trial params its arguments set.  An argument left at ``None`` keeps the
preset's value (the presets' seed axis is ``(0,)``), so a wrapper called
with no arguments runs exactly its preset.  The returned row/curve
structures are those of the original hand-rolled loops (a golden-value test
pins this), so the benchmark harness keeps working as before.

Pass ``workers``/``cache_dir`` to any wrapper to parallelise or resume a
sweep, or run a preset directly (e.g. ``python -m repro bench --spec
fig4_epsilon_sweep``).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace
from typing import Optional, Sequence

from repro.experiments.presets import TABLE6_SIZES, get_experiment
from repro.experiments.runner import Runner
from repro.experiments.spec import ExperimentSpec

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

_AXES = ("models", "datasets", "epsilons", "seeds")


def _override(spec: ExperimentSpec, **overrides) -> ExperimentSpec:
    """``spec`` with the axes, grid axes and params set in ``overrides``.

    ``None`` keeps the spec's value and a scalar stands for a one-value axis.
    An axis the spec leaves undeclared stays undeclared, so a table's
    ``original`` block never gains a model or epsilon axis.
    """
    changes, grid, params = {}, dict(spec.grid), dict(spec.params)
    for key, value in overrides.items():
        if value is None:
            continue
        if key in _AXES or key in grid:
            if isinstance(value, str) or not isinstance(value, Iterable):
                value = (value,)
            if key in grid:
                grid[key] = tuple(value)
            elif getattr(spec, key) != (None,):
                changes[key] = tuple(value)
        else:
            params[key] = value
    return replace(spec, grid=grid, params=params, **changes)


def _preset(name: str, **overrides) -> tuple:
    return tuple(_override(spec, **overrides) for spec in get_experiment(name))


def _run(specs, workers: int, cache_dir):
    return Runner(workers=workers, cache_dir=cache_dir).run(specs)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def run_table5_nonprivate_comparison(
    n_samples: Optional[int] = None,
    scale: Optional[str] = None,
    epsilon: Optional[float] = None,
    random_state: Optional[int] = None,
    *, workers: int = 1, cache_dir=None,
) -> list:
    """Table V: VAE vs PGM vs P3GM on the (simulated) Kaggle Credit dataset."""
    specs = _preset(
        "table5_nonprivate", epsilons=epsilon, seeds=random_state,
        n_samples=n_samples, scale=scale,
    )
    return _run(specs, workers, cache_dir).rows()


def run_table6_private_tabular(
    datasets: Optional[Sequence[str]] = None,
    n_samples: Optional[dict] = None,
    scale: Optional[str] = None,
    epsilon: Optional[float] = None,
    random_state: Optional[int] = None,
    *, workers: int = 1, cache_dir=None,
) -> list:
    """Table VI: PrivBayes vs DP-GM vs P3GM vs original on four tabular datasets.

    ``n_samples`` maps dataset names to sizes, overriding the preset's.
    """
    specs = _preset(
        "table6_private_tabular", datasets=datasets, epsilons=epsilon, seeds=random_state,
        sizes={**TABLE6_SIZES, **n_samples} if n_samples else None, scale=scale,
    )
    records = _run(specs, workers, cache_dir).records
    # The paper prints each dataset's synthesizer rows followed by its
    # "original" reference row.
    rows = []
    for dataset_name in specs[0].datasets:
        for kind in ("utility", "original"):
            rows.extend(
                record["result"]
                for record in records
                if record["dataset"] == dataset_name and record["kind"] == kind
            )
    return rows


def run_table7_image_classification(
    datasets: Optional[Sequence[str]] = None,
    n_samples: Optional[int] = None,
    scale: Optional[str] = None,
    epsilon: Optional[float] = None,
    random_state: Optional[int] = None,
    *, workers: int = 1, cache_dir=None,
) -> list:
    """Table VII: classification accuracy on synthetic image data."""
    specs = _preset(
        "table7_images", datasets=datasets, epsilons=epsilon, seeds=random_state,
        n_samples=n_samples, scale=scale,
    )
    return _run(specs, workers, cache_dir).rows()


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def run_fig2_sample_quality(
    n_samples: Optional[int] = None,
    scale: Optional[str] = None,
    epsilon: Optional[float] = None,
    random_state: Optional[int] = None,
    models: Optional[Sequence[str]] = None,
    *, workers: int = 1, cache_dir=None,
) -> list:
    """Figure 2 proxy: fidelity/diversity/coverage of samples on simulated MNIST."""
    specs = _preset(
        "fig2_sample_quality", models=models, epsilons=epsilon, seeds=random_state,
        n_samples=n_samples, scale=scale,
    )
    return _run(specs, workers, cache_dir).rows()


def run_fig4_epsilon_sweep(
    epsilons: Optional[Sequence[float]] = None,
    n_samples: Optional[int] = None,
    scale: Optional[str] = None,
    random_state: Optional[int] = None,
    models: Optional[Sequence[str]] = None,
    include_nonprivate_reference: bool = True,
    *, workers: int = 1, cache_dir=None,
) -> list:
    """Figure 4: AUROC/AUPRC on Kaggle Credit as the privacy budget varies."""
    reference, sweep = get_experiment("fig4_epsilon_sweep")
    common = {"seeds": random_state, "n_samples": n_samples, "scale": scale}
    # ``models`` picks the swept synthesizers; the reference stays the PGM line.
    sweep = _override(sweep, models=models, epsilons=epsilons, **common)
    specs = (sweep,)
    if include_nonprivate_reference:
        specs = (_override(reference, **common), sweep)
    # One Runner.run over both blocks so the reference trial shares the pool
    # with the sweep; the reference row (epsilon=None) is repeated per epsilon
    # exactly like the paper's flat non-private line.
    records = _run(specs, workers, cache_dir).records
    rows = []
    if include_nonprivate_reference:
        reference_row = records[0]["result"]
        records = records[1:]
        for epsilon in sweep.epsilons:
            rows.append({"epsilon": epsilon, **reference_row})
    for record in records:
        rows.append({"epsilon": record["epsilon"], **record["result"]})
    return rows


def run_fig5_dimension_sweep(
    dimensions: Optional[Sequence[int]] = None,
    n_samples: Optional[int] = None,
    scale: Optional[str] = None,
    epsilon: Optional[float] = None,
    random_state: Optional[int] = None,
    *, workers: int = 1, cache_dir=None,
) -> list:
    """Figure 5: P3GM accuracy on simulated MNIST as the PCA dimension varies."""
    specs = _preset(
        "fig5_dimension_sweep", dimension=dimensions, epsilons=epsilon, seeds=random_state,
        n_samples=n_samples, scale=scale,
    )
    return _run(specs, workers, cache_dir).rows()


def run_fig6_composition(
    sigmas: Optional[Sequence[float]] = None,
    delta: Optional[float] = None,
    epsilon_pca: Optional[float] = None,
    sigma_em: Optional[float] = None,
    em_iterations: Optional[int] = None,
    n_components: Optional[int] = None,
    sample_rate: Optional[float] = None,
    sgd_steps: Optional[int] = None,
    *, workers: int = 1, cache_dir=None,
) -> list:
    """Figure 6: total epsilon under RDP vs the zCDP+MA baseline, varying sigma_s.

    This experiment is purely analytic (no training), exactly like the paper's.
    """
    specs = _preset(
        "fig6_composition", sigma=sigmas, delta=delta, epsilon_pca=epsilon_pca,
        sigma_em=sigma_em, em_iterations=em_iterations, n_components=n_components,
        sample_rate=sample_rate, sgd_steps=sgd_steps,
    )
    return _run(specs, workers, cache_dir).rows()


def run_fig7_learning_efficiency(
    dataset_name: Optional[str] = None,
    n_samples: Optional[int] = None,
    epochs: Optional[int] = None,
    scale: Optional[str] = None,
    epsilon: Optional[float] = None,
    random_state: Optional[int] = None,
    *, workers: int = 1, cache_dir=None,
) -> dict:
    """Figure 7: per-epoch reconstruction loss and downstream score.

    Trains DP-VAE, P3GM(AE) and P3GM for ``epochs`` epochs and records, after
    every epoch, the reconstruction loss on the training data and the
    downstream utility of data sampled at that point (classification accuracy
    for image data, AUROC for binary data).
    """
    specs = _preset(
        "fig7_learning_efficiency", datasets=dataset_name, epsilons=epsilon,
        seeds=random_state, n_samples=n_samples, scale=scale, epochs=epochs,
    )
    records = _run(specs, workers, cache_dir).records
    return {record["model"]: record["result"] for record in records}
