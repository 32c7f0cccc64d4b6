"""The training loop shared by every generative model.

``Trainer`` owns what the models' four hand-rolled ``_train_loop`` /
``_optimization_step`` copies used to each reimplement: iterating epochs,
drawing batches from a :class:`~repro.engine.samplers.BatchSampler`,
aggregating per-batch losses into epoch means, stepping the optimizer, and
dispatching callbacks.

The model supplies only a ``loss_fn(index) -> (reconstruction, kl)`` closure
returning *per-example* loss tensors for the indexed batch.  Training is
private exactly when the optimizer is a :class:`repro.privacy.DPSGD`.  In
non-private mode the trainer minimises their mean; in private mode it runs
the backward pass on their *sum* inside :func:`repro.nn.grad_sample_mode`
(DP-SGD needs per-example gradients of a sum-decomposable loss, and itself
divides by the expected batch size).  An empty Poisson draw is skipped in
non-private mode; in private mode it still takes a noise-only step
(:meth:`repro.privacy.DPSGD.noise_step`), because the accountant analyses a
noisy release at every step.
"""

from __future__ import annotations

import ctypes
import functools
import platform
from typing import Callable, Tuple

import numpy as np

from repro.engine.checkpoint import Checkpoint, load_checkpoint, restore_trainer_state
from repro.engine.samplers import BatchSampler
from repro.nn import grad_sample_mode
from repro.privacy.dp_sgd import DPSGD
from repro.utils.rng import as_generator

__all__ = ["Trainer"]

# glibc's ``mallopt`` parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_heap_resident() -> None:
    """Stop glibc from handing every training step's memory back to the OS.

    A step allocates tens of MB of activations and gradients and frees them
    all when it ends.  glibc returns the free top of its heap to the OS once
    it exceeds a trim threshold derived from the largest block freed so far
    (twice that block), so a step whose buffers sit at the top of the heap
    has them trimmed and faulted back in by the next one: on the paper-width
    isolet P3GM fit, ~8,600 page faults and ~10 ms of a ~90 ms step.  Pin
    the mmap and trim thresholds at the ceilings of glibc's own dynamic rule
    (32 and 64 MiB) instead, once per process.  Other C libraries are left
    alone.
    """
    if platform.libc_ver()[0] == "glibc":
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


class Trainer:
    """Epoch/batch training loop with callback dispatch.

    Parameters
    ----------
    model:
        The object being trained; passed through to callbacks (and expected to
        expose ``history`` when :class:`~repro.engine.callbacks.HistoryLogger`
        is used without an explicit history).
    optimizer:
        A :class:`repro.nn.Optimizer` (non-private mode) or
        :class:`repro.privacy.DPSGD` (private mode: each step's backward pass
        runs inside :func:`repro.nn.grad_sample_mode` on the summed
        per-example loss and ``optimizer.step()`` clips, noises, and zeroes
        the per-example gradients; an empty batch calls
        ``optimizer.noise_step()`` instead).
    sampler:
        The batch-construction strategy.
    callbacks:
        Ordered iterable of :class:`~repro.engine.callbacks.Callback`.
    rng:
        Random generator driving the sampler (models pass their own so batch
        order stays on the model's seed stream).
    """

    def __init__(
        self,
        model,
        optimizer,
        sampler: BatchSampler,
        callbacks=(),
        rng=None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.sampler = sampler
        self.callbacks = list(callbacks)
        self.private = isinstance(optimizer, DPSGD)
        self.rng = as_generator(rng)
        #: Progress counters: the epoch currently (or next) being run and the
        #: number of optimizer steps taken; both are checkpointed and restored.
        self.epoch = 0
        self.global_step = 0

    def fit(
        self,
        n_samples: int,
        epochs: int,
        loss_fn: Callable[[np.ndarray], Tuple],
        resume_from=None,
    ) -> "Trainer":
        """Run ``epochs`` passes of ``loss_fn`` over ``n_samples`` records.

        Parameters
        ----------
        resume_from:
            A checkpoint directory (or loaded :class:`.Checkpoint`) written by
            :class:`repro.engine.CheckpointCallback`.  The trainer restores
            parameters, optimizer buffers, callback state, progress counters,
            and the sampler RNG, then continues from the checkpointed epoch —
            bit-identically to the uninterrupted run.  ``None`` trains from
            scratch.
        """
        if n_samples is None or int(n_samples) < 1:
            raise ValueError(
                f"cannot train on an empty dataset: got n_samples={n_samples}; "
                "fit() requires at least one sample"
            )
        n_samples = int(n_samples)
        _keep_heap_resident()
        self.epoch = 0
        self.global_step = 0
        for callback in self.callbacks:
            callback.on_train_begin(self, self.model)
        if resume_from is not None:
            checkpoint = (
                resume_from
                if isinstance(resume_from, Checkpoint)
                else load_checkpoint(resume_from)
            )
            restore_trainer_state(self, checkpoint)
        for epoch in range(self.epoch, epochs):
            self.epoch = epoch
            epoch_recon, epoch_kl, batches = 0.0, 0.0, 0
            for index in self.sampler.epoch_batches(n_samples, self.rng):
                if len(index):
                    recon, kl = self._train_step(index, loss_fn)
                    epoch_recon += recon
                    epoch_kl += kl
                    batches += 1
                elif self.private:
                    # An empty Poisson draw still releases: the accountant
                    # budgets a noisy update at every step, so the executed
                    # mechanism adds the noise to a zero clipped sum.  There
                    # are no losses to report for it.
                    self.optimizer.noise_step()
                    recon = kl = float("nan")
                else:
                    continue
                self.global_step += 1
                step_logs = {
                    "step": self.global_step,
                    "reconstruction_loss": recon,
                    "kl_loss": kl,
                }
                for callback in self.callbacks:
                    callback.on_step_end(self, self.model, self.global_step, step_logs)
            if batches == 0:
                # Every draw of the epoch was empty: there are no losses to
                # report.  Log NaN rather than a fabricated 0.0 (which would
                # read as a perfect epoch to history consumers); callbacks
                # still fire so per-epoch hooks keep their one-call-per-epoch
                # contract.
                epoch_recon = epoch_kl = float("nan")
                batches = 1
            logs = {
                "epoch": epoch,
                "reconstruction_loss": epoch_recon / batches,
                "kl_loss": epoch_kl / batches,
                "elbo_loss": (epoch_recon + epoch_kl) / batches,
            }
            for callback in self.callbacks:
                callback.on_epoch_end(self, self.model, epoch, logs)
            self.epoch = epoch + 1
        for callback in self.callbacks:
            callback.on_train_end(self, self.model)
        return self

    def _train_step(self, index: np.ndarray, loss_fn) -> Tuple[float, float]:
        """One optimizer step; returns the batch-mean (reconstruction, kl)."""
        if self.private:
            with grad_sample_mode():
                reconstruction, kl = loss_fn(index)
                (reconstruction + kl).sum().backward()
            self.optimizer.step()
        else:
            self.optimizer.zero_grad()
            reconstruction, kl = loss_fn(index)
            (reconstruction + kl).mean().backward()
            self.optimizer.step()
        return float(reconstruction.data.mean()), float(kl.data.mean())
