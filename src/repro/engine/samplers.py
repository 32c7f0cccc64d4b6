"""Batch-construction strategies for the training engine.

A sampler turns ``(n_samples, rng)`` into a stream of index arrays, one per
optimizer step.  Two strategies are provided:

- :class:`ShuffleSampler` — permute once per epoch and slice into consecutive
  batches.  Every record appears exactly once per epoch.  This is the
  batching the non-private models have always used.
- :class:`PoissonSampler` — each record enters each step's batch independently
  with probability ``sample_rate``.  Batch sizes fluctuate around
  ``sample_rate * n_samples`` and records may appear in zero or several
  batches per epoch.  This is the mechanism the subsampled-Gaussian RDP
  accountant actually analyzes, so it is the default for DP-SGD training
  (see the :mod:`repro.engine` module docstring).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils.validation import check_positive, check_probability

__all__ = ["BatchSampler", "ShuffleSampler", "PoissonSampler", "make_sampler"]


class BatchSampler:
    """Protocol for batch samplers used by :class:`repro.engine.Trainer`."""

    def epoch_batches(self, n_samples: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """Yield one index array per optimizer step for a single epoch."""
        raise NotImplementedError


class ShuffleSampler(BatchSampler):
    """Shuffle-and-partition batching (one pass over the data per epoch)."""

    def __init__(self, batch_size: int):
        check_positive(batch_size, "batch_size")
        self.batch_size = int(batch_size)

    def epoch_batches(self, n_samples: int, rng) -> Iterator[np.ndarray]:
        batch_size = min(self.batch_size, n_samples)
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            yield order[start : start + batch_size]


class PoissonSampler(BatchSampler):
    """Poisson subsampling: per-step inclusion with probability ``sample_rate``.

    Parameters
    ----------
    sample_rate:
        Probability ``B/N`` that any given record participates in a step.
    steps:
        Steps per epoch.  An "epoch" has no intrinsic meaning under Poisson
        sampling, so the caller fixes the step count — conventionally
        ``ceil(N / B)`` to match the shuffle sampler's work per epoch (and the
        step count the accountant was configured with).
    """

    def __init__(self, sample_rate: float, steps: int):
        check_probability(sample_rate, "sample_rate")
        if sample_rate == 0.0:
            raise ValueError("sample_rate must be > 0")
        check_positive(steps, "steps")
        self.sample_rate = float(sample_rate)
        self.steps = int(steps)

    def epoch_batches(self, n_samples: int, rng) -> Iterator[np.ndarray]:
        for _ in range(self.steps):
            yield np.flatnonzero(rng.random(n_samples) < self.sample_rate)


def make_sampler(kind: str, n_samples: int, batch_size: int) -> BatchSampler:
    """Build a sampler by name for a dataset of ``n_samples`` records.

    ``"shuffle"`` maps to :class:`ShuffleSampler`; ``"poisson"`` maps to
    :class:`PoissonSampler` with ``sample_rate = min(batch_size, N) / N`` and
    ``ceil(N / B)`` steps per epoch, mirroring the step count the privacy
    accountants are configured with.
    """
    if kind == "shuffle":
        return ShuffleSampler(batch_size)
    if kind == "poisson":
        check_positive(n_samples, "n_samples")
        batch = min(batch_size, n_samples)
        return PoissonSampler(batch / n_samples, int(np.ceil(n_samples / batch)))
    raise ValueError(f"sampler must be 'shuffle' or 'poisson'; got {kind!r}")
