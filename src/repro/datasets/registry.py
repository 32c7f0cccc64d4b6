"""Dataset registry: name-based access to every simulator (paper Table III)."""

from __future__ import annotations

from repro.datasets.images import make_fashion_mnist, make_mnist
from repro.datasets.tabular import (
    make_adult,
    make_adult_mixed,
    make_credit,
    make_esr,
    make_isolet,
)

__all__ = ["DATASET_REGISTRY", "load_dataset"]

DATASET_REGISTRY = {
    "credit": make_credit,
    "adult": make_adult,
    "adult_mixed": make_adult_mixed,
    "isolet": make_isolet,
    "esr": make_esr,
    "mnist": make_mnist,
    "fashion_mnist": make_fashion_mnist,
}

#: Default simulated sample sizes: scaled down from the paper's Table III so a
#: full experiment sweep runs on a laptop-class machine; pass ``n_samples`` to
#: ``load_dataset`` to change them.
DEFAULT_SIZES = {
    "credit": 20000,
    "adult": 10000,
    "adult_mixed": 8000,
    "isolet": 3000,
    "esr": 4000,
    "mnist": 4000,
    "fashion_mnist": 4000,
}


def load_dataset(name: str, n_samples=None, random_state=None, subsample=None):
    """Instantiate a simulated dataset by name.

    Parameters
    ----------
    name:
        One of ``credit``, ``adult``, ``adult_mixed``, ``isolet``, ``esr``,
        ``mnist``, ``fashion_mnist``.  ``adult_mixed`` is the mixed-type
        (strings + raw numerics) variant whose features must go through a
        :class:`repro.transforms.TableTransformer` before synthesis.
    n_samples:
        Total number of rows to simulate (defaults to a laptop-friendly size).
    random_state:
        Seed or generator controlling the simulation (and the subsampling).
    subsample:
        Optional trial-level row subsampling applied *after* simulation: a
        ``float`` fraction in ``(0, 1]`` or an ``int`` training-row count
        (see :meth:`repro.datasets.base.Dataset.subsample`).  Simulating the full
        population and then subsampling keeps population statistics stable
        across trials that use different row budgets — the experiment
        runner's miniaturized grids rely on this.
    """
    key = name.lower()
    if key not in DATASET_REGISTRY:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_REGISTRY)}"
        )
    size = n_samples if n_samples is not None else DEFAULT_SIZES[key]
    dataset = DATASET_REGISTRY[key](n_samples=size, random_state=random_state)
    if subsample is not None:
        dataset = dataset.subsample(subsample, random_state=random_state)
    return dataset
