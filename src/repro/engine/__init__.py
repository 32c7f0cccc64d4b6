"""``repro.engine`` — the unified training subsystem.

Every generative model in :mod:`repro.models` trains through one
:class:`~repro.engine.trainer.Trainer`, which owns the epoch/batch loop, loss
aggregation, optimizer stepping, and callback dispatch.  The pieces:

- :mod:`repro.engine.samplers` — batch-construction strategies.
  :class:`ShuffleSampler` permutes the data once per epoch and partitions it
  into consecutive batches (classic shuffle-and-partition; the default for
  non-private training).  :class:`PoissonSampler` includes each record in each
  step independently with probability ``sample_rate`` (the default for DP-SGD
  training).
- :mod:`repro.engine.callbacks` — a small hook API (``on_train_begin`` /
  ``on_step_end`` / ``on_epoch_end`` / ``on_train_end``) with built-ins for
  history logging, privacy-budget tracking, ELBO-plateau early stopping, and
  :class:`MetricsCallback`, which publishes throughput, step/epoch timing,
  gradient-clipping diagnostics, and the privacy-budget gauge onto the
  :mod:`repro.obs` metrics registry.
- :mod:`repro.engine.trainer` — the :class:`Trainer` itself, with a private
  mode that runs the backward pass inside
  :func:`repro.nn.grad_sample_mode` and drives
  :class:`repro.privacy.DPSGD` (an empty Poisson draw takes a noise-only
  step).
- :mod:`repro.engine.checkpoint` — mid-training checkpoints (model +
  optimizer + callback + RNG state through the artifact archive layout) with
  ``Trainer.fit(..., resume_from=...)`` restoring them bit-identically, and
  :class:`CheckpointableMixin` wiring for the models.

**Sampler choice vs. accounting assumptions.**  The subsampled-Gaussian RDP
accountant used by :class:`repro.privacy.DPSGD` (and by
:class:`~repro.privacy.accounting.P3GMAccountant` for the DP-SGD phase)
analyzes *Poisson* subsampling: each record enters a batch independently with
probability ``B/N``.  Shuffle-and-partition batching executes a slightly
different mechanism, so training with :class:`ShuffleSampler` makes the stated
epsilon an approximation (a common but imprecise practice).  The private
models therefore default to :class:`PoissonSampler`, which makes the executed
mechanism match the analyzed one exactly — down to an empty draw, which still
releases the step's Gaussian noise; pass ``sampler="shuffle"`` to a model to
recover the legacy behaviour.
"""

from repro.engine.callbacks import (
    Callback,
    EarlyStopping,
    EpochHook,
    HistoryLogger,
    MetricsCallback,
    PrivacyBudgetTracker,
)
from repro.engine.checkpoint import (
    Checkpoint,
    CheckpointCallback,
    CheckpointError,
    CheckpointableMixin,
    latest_checkpoint,
    load_checkpoint,
    restore_trainer_state,
    save_checkpoint,
)
from repro.engine.samplers import BatchSampler, PoissonSampler, ShuffleSampler, make_sampler
from repro.engine.trainer import Trainer

__all__ = [
    "BatchSampler",
    "ShuffleSampler",
    "PoissonSampler",
    "make_sampler",
    "Callback",
    "HistoryLogger",
    "PrivacyBudgetTracker",
    "EarlyStopping",
    "EpochHook",
    "MetricsCallback",
    "Checkpoint",
    "CheckpointCallback",
    "CheckpointError",
    "CheckpointableMixin",
    "latest_checkpoint",
    "load_checkpoint",
    "restore_trainer_state",
    "save_checkpoint",
    "Trainer",
]
