"""``repro.datasets`` — simulators for the paper's six datasets (Table III)."""

from repro.datasets.base import Dataset
from repro.datasets.images import make_fashion_mnist, make_mnist
from repro.datasets.registry import DATASET_REGISTRY, load_dataset
from repro.datasets.tabular import (
    make_adult,
    make_adult_mixed,
    make_credit,
    make_esr,
    make_isolet,
)

__all__ = [
    "Dataset",
    "make_credit",
    "make_adult",
    "make_adult_mixed",
    "make_isolet",
    "make_esr",
    "make_mnist",
    "make_fashion_mnist",
    "DATASET_REGISTRY",
    "load_dataset",
]
