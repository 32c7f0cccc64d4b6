"""Callback API of the training engine.

Callbacks observe a :class:`repro.engine.Trainer` run.  The trainer builds a
``logs`` dict per epoch (``epoch``, ``reconstruction_loss``, ``kl_loss``,
``elbo_loss``) and passes it through the callback list in order, so an
earlier callback can enrich the record a later one persists —
:class:`PrivacyBudgetTracker` adds ``epsilon`` before :class:`HistoryLogger`
writes the record into ``model.history``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from typing import Optional

import numpy as np


__all__ = [
    "Callback",
    "HistoryLogger",
    "PrivacyBudgetTracker",
    "EpochHook",
    "MetricsCallback",
]


class Callback:
    """Base class: override any subset of the hooks.

    Callbacks that accumulate state across epochs (``HistoryLogger``'s
    records) additionally implement the ``state_dict``/``load_state_dict``
    pair so a training checkpoint can restore them; the trainer restores
    callback state *after* dispatching ``on_train_begin``, so a fresh-run
    reset in that hook never clobbers a resumed run's state.
    """

    def on_train_begin(self, trainer, model) -> None:
        """Called once before the first epoch."""

    def on_step_end(self, trainer, model, step: int, logs: dict) -> None:
        """Called after every optimizer step with that step's batch losses."""

    def on_epoch_end(self, trainer, model, epoch: int, logs: dict) -> None:
        """Called after every epoch with the epoch-mean losses."""

    def on_train_end(self, trainer, model) -> None:
        """Called once after the final epoch."""

    def state_dict(self, trainer, model) -> dict:
        """Resumable state as plain numpy arrays (``{}`` for stateless hooks)."""
        return {}

    def load_state_dict(self, trainer, model, state: dict) -> None:
        """Restore a state produced by :meth:`state_dict` on the same class."""
        if state:
            raise ValueError(
                f"{type(self).__name__} is stateless but the checkpoint carries "
                f"callback entries: {sorted(state)}"
            )


class HistoryLogger(Callback):
    """Persist the per-epoch ``logs`` record into a training history.

    Writes to ``history`` when given one, otherwise to ``model.history`` —
    reproducing the records the models' hand-rolled loops used to log inline.
    """

    def __init__(self, history=None):
        self.history = history

    def _resolve(self, model):
        return self.history if self.history is not None else model.history

    def on_train_begin(self, trainer, model) -> None:
        # A refit starts a new run, not more epochs of the old one.  (Resume
        # restores the checkpointed records after this.)
        self._resolve(model).records.clear()

    def on_epoch_end(self, trainer, model, epoch: int, logs: dict) -> None:
        self._resolve(model).log(**logs)

    def state_dict(self, trainer, model) -> dict:
        # Records are plain dicts of ints/floats; JSON round-trips both exactly
        # (including NaN epochs), and the string form stores as a unicode npz
        # array without pickling.
        return {"records": np.asarray(json.dumps(self._resolve(model).records))}

    def load_state_dict(self, trainer, model, state: dict) -> None:
        if set(state) != {"records"}:
            raise ValueError(
                f"HistoryLogger state must hold exactly 'records', got {sorted(state)}"
            )
        history = self._resolve(model)
        history.records[:] = json.loads(str(state["records"]))


class PrivacyBudgetTracker(Callback):
    """Add the composed privacy spend so far to each epoch's log record.

    ``accountant`` is the model's own
    :class:`~repro.privacy.accounting.P3GMAccountant` (a DP-SGD-only model
    passes one with DP-PCA and DP-EM switched off).  At every epoch end the
    tracker reports that accountant's epsilon at the number of DP-SGD steps
    the trainer's optimizer has taken, under ``logs["epsilon"]``, so it lands
    in the same history record as the losses.

    The value composes every mechanism that has run: the phases before
    training (DP-PCA, DP-EM) plus the DP-SGD steps *executed so far*.  An
    uninterrupted run therefore ends exactly at the model's
    ``privacy_spent()``; a run that stops early ends below it.
    """

    def __init__(self, accountant, delta: float):
        self.accountant = accountant
        self.delta = delta

    def on_epoch_end(self, trainer, model, epoch: int, logs: dict) -> None:
        spent = replace(self.accountant, sgd_steps=trainer.optimizer.steps_taken)
        logs["epsilon"] = spent.epsilon(self.delta)


class MetricsCallback(Callback):
    """Publish training progress onto the :mod:`repro.obs` metrics registry.

    One callback instance instruments one training run; every family is
    labeled with ``model=<class name>`` so concurrent or sequential runs of
    different models stay distinguishable in a single registry.  Published
    families:

    - ``repro_train_steps_total{model}`` — optimizer steps taken;
    - ``repro_train_step_seconds{model}`` / ``repro_train_epoch_seconds{model}``
      — per-step and per-epoch wall-time histograms;
    - ``repro_train_steps_per_second{model}`` — running throughput gauge
      (steps over wall time since ``on_train_begin``);
    - ``repro_train_grad_norm{model}`` / ``repro_train_clip_fraction{model}``
      — last step's mean per-example gradient norm and clipped fraction, when
      the optimizer records them (:class:`repro.privacy.DPSGD` does);
    - ``repro_privacy_epsilon_spent{model}`` — the privacy budget gauge.  Per
      epoch it tracks the model accountant's composed spend so far (DP-PCA
      and DP-EM plus the DP-SGD steps executed), read from
      ``logs["epsilon"]``; at ``on_train_end`` it is set to the model's own
      ``privacy_spent()`` epsilon, so the final gauge value equals the
      released guarantee *exactly* (an uninterrupted run's last epoch
      already reads it).

    The callback only enriches the registry — it never mutates ``logs``.  In
    a private run it must follow the :class:`PrivacyBudgetTracker` in the
    callback list, which is what writes ``logs["epsilon"]`` each epoch.
    """

    def __init__(self, registry=None):
        # Imported here (not at module top) to keep repro.engine importable
        # without repro.obs in pathological partial checkouts; the cost is one
        # dict lookup per construction.
        from repro.obs import get_registry

        self.registry = registry if registry is not None else get_registry()
        self._train_started: Optional[float] = None
        self._epoch_started: Optional[float] = None
        self._step_started: Optional[float] = None
        self._label: str = ""
        second_buckets = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)
        self._steps = self.registry.counter(
            "repro_train_steps_total", "Optimizer steps taken, by model class",
            labels=("model",),
        )
        self._step_seconds = self.registry.histogram(
            "repro_train_step_seconds", "Wall time of one optimizer step",
            labels=("model",), buckets=second_buckets,
        )
        self._epoch_seconds = self.registry.histogram(
            "repro_train_epoch_seconds", "Wall time of one training epoch",
            labels=("model",), buckets=second_buckets,
        )
        self._throughput = self.registry.gauge(
            "repro_train_steps_per_second",
            "Running training throughput (steps over wall time since train begin)",
            labels=("model",),
        )
        self._grad_norm = self.registry.gauge(
            "repro_train_grad_norm",
            "Mean per-example gradient L2 norm of the last private step",
            labels=("model",),
        )
        self._clip_fraction = self.registry.gauge(
            "repro_train_clip_fraction",
            "Fraction of examples clipped in the last private step",
            labels=("model",),
        )
        self._epsilon = self.registry.gauge(
            "repro_privacy_epsilon_spent",
            "Privacy budget: per-epoch accountant spend, final released epsilon",
            labels=("model",),
        )

    def on_train_begin(self, trainer, model) -> None:
        self._label = type(model).__name__
        self._train_started = time.perf_counter()
        self._epoch_started = self._train_started
        self._step_started = self._train_started

    def on_step_end(self, trainer, model, step: int, logs: dict) -> None:
        now = time.perf_counter()
        if self._step_started is not None:
            self._step_seconds.observe(now - self._step_started, model=self._label)
        self._step_started = now
        self._steps.inc(model=self._label)
        if self._train_started is not None and now > self._train_started:
            self._throughput.set(
                step / (now - self._train_started), model=self._label
            )
        grad_norm = getattr(trainer.optimizer, "last_grad_norm", None)
        if grad_norm is not None:
            self._grad_norm.set(grad_norm, model=self._label)
        clip_fraction = getattr(trainer.optimizer, "last_clip_fraction", None)
        if clip_fraction is not None:
            self._clip_fraction.set(clip_fraction, model=self._label)

    def on_epoch_end(self, trainer, model, epoch: int, logs: dict) -> None:
        now = time.perf_counter()
        if self._epoch_started is not None:
            self._epoch_seconds.observe(now - self._epoch_started, model=self._label)
        self._epoch_started = now
        self._step_started = now
        epsilon = logs.get("epsilon")
        if epsilon is not None and math.isfinite(epsilon):
            self._epsilon.set(epsilon, model=self._label)

    def on_train_end(self, trainer, model) -> None:
        # The per-epoch values above track the accountant; the *final* value
        # is pinned to the model's released guarantee so a scrape after
        # training reads exactly privacy_spent().
        spent = getattr(model, "privacy_spent", None)
        if callable(spent):
            epsilon = spent()[0]
            if epsilon is not None and math.isfinite(epsilon):
                self._epsilon.set(epsilon, model=self._label)


class EpochHook(Callback):
    """Adapter for the legacy ``model.epoch_callback(model, epoch)`` hook.

    The learning-efficiency experiments (Figure 7) attach a plain function to
    ``model.epoch_callback``; this callback keeps that contract working on the
    engine.  The attribute is read at call time, so it may be set any time
    before (or even during) training.
    """

    def on_epoch_end(self, trainer, model, epoch: int, logs: dict) -> None:
        hook = getattr(model, "epoch_callback", None)
        if hook is not None:
            hook(model, epoch)
