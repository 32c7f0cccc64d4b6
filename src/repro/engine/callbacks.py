"""Callback API of the training engine.

Callbacks observe (and may steer) a :class:`repro.engine.Trainer` run.  The
trainer builds a ``logs`` dict per epoch (``epoch``, ``reconstruction_loss``,
``kl_loss``, ``elbo_loss``) and passes it through the callback list in order,
so an earlier callback can enrich the record a later one persists —
:class:`PrivacyBudgetTracker` adds ``epsilon`` before :class:`HistoryLogger`
writes the record into ``model.history``.
"""

from __future__ import annotations

import json
import math
import time
from typing import Optional

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "Callback",
    "HistoryLogger",
    "PrivacyBudgetTracker",
    "EarlyStopping",
    "EpochHook",
    "MetricsCallback",
]


class Callback:
    """Base class: override any subset of the hooks.

    Callbacks that accumulate state across epochs (``EarlyStopping``'s plateau
    counter, ``HistoryLogger``'s records) additionally implement the
    ``state_dict``/``load_state_dict`` pair so a training checkpoint can
    restore them; the trainer restores callback state *after* dispatching
    ``on_train_begin``, so a fresh-run reset in that hook never clobbers a
    resumed run's state.
    """

    def on_train_begin(self, trainer, model) -> None:
        """Called once before the first epoch."""

    def on_step_end(self, trainer, model, step: int, logs: dict) -> None:
        """Called after every optimizer step with that step's batch losses."""

    def on_epoch_end(self, trainer, model, epoch: int, logs: dict) -> None:
        """Called after every epoch with the epoch-mean losses."""

    def on_train_end(self, trainer, model) -> None:
        """Called once after the final epoch (also after an early stop)."""

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
    """Add the cumulative privacy spend to each epoch's log record.

    ``optimizer`` must expose ``privacy_spent(delta) -> epsilon`` (as
    :class:`repro.privacy.DPSGD` does); the value is stored under
    ``logs["epsilon"]`` so it lands in the same history record as the losses.

    The tracked value is the epsilon of the steps *executed so far*, so it can
    end below the model's ``privacy_spent()``: models report the guarantee
    they calibrated for (an upper bound covering every budgeted step), and a
    run that stops early executes fewer steps than that budget.
    """

    def __init__(self, optimizer, delta: float):
        self.optimizer = optimizer
        self.delta = delta

    def on_epoch_end(self, trainer, model, epoch: int, logs: dict) -> None:
        logs["epsilon"] = self.optimizer.privacy_spent(self.delta)


class EarlyStopping(Callback):
    """Stop training when the monitored loss stops improving.

    Monitors ``logs[monitor]`` (default: the ELBO loss) and asks the trainer
    to stop after ``patience`` consecutive epochs without an improvement of at
    least ``min_delta``.
    """

    def __init__(self, monitor: str = "elbo_loss", patience: int = 3, min_delta: float = 0.0):
        check_positive(patience, "patience")
        if min_delta < 0:
            raise ValueError("min_delta must be non-negative")
        self.monitor = monitor
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.best: Optional[float] = None
        self.wait = 0
        self.stopped_epoch: Optional[int] = None

    def on_train_begin(self, trainer, model) -> None:
        # One callback instance may drive several fits; a stale best/wait from
        # a previous run would otherwise stop the new run against the old
        # loss scale.  (Resume restores the checkpointed state after this.)
        self.best = None
        self.wait = 0
        self.stopped_epoch = None

    def on_epoch_end(self, trainer, model, epoch: int, logs: dict) -> None:
        current = logs.get(self.monitor)
        if current is None or not math.isfinite(current):
            # An all-empty-Poisson epoch logs NaN losses.  NaN compares false
            # with everything, so letting it become `best` would make every
            # later epoch look like "no improvement" and force a stop after
            # `patience` epochs regardless of the real loss trend.
            return
        if self.best is None or current < self.best - self.min_delta:
            self.best = float(current)
            self.wait = 0
            return
        self.wait += 1
        if self.wait >= self.patience:
            self.stopped_epoch = epoch
            trainer.stop_training = True

    def state_dict(self, trainer, model) -> dict:
        return {
            # NaN marks "no finite value seen yet": the monitor skips
            # non-finite values above, so NaN can never be a real `best`.
            "best": np.asarray(float("nan") if self.best is None else self.best),
            "wait": np.asarray(self.wait),
            "stopped_epoch": np.asarray(
                -1 if self.stopped_epoch is None else self.stopped_epoch
            ),
        }

    def load_state_dict(self, trainer, model, state: dict) -> None:
        expected = {"best", "wait", "stopped_epoch"}
        if set(state) != expected:
            raise ValueError(
                f"EarlyStopping state mismatch: checkpoint has {sorted(state)}, "
                f"expected {sorted(expected)}"
            )
        best = float(state["best"])
        self.best = None if math.isnan(best) else best
        self.wait = int(state["wait"])
        stopped = int(state["stopped_epoch"])
        self.stopped_epoch = None if stopped < 0 else stopped


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
      epoch it tracks the accountant's spend for the steps executed so far
      (``optimizer.privacy_spent(delta)``); at ``on_train_end`` it is set to
      the model's own ``privacy_spent()`` epsilon, so the final gauge value
      equals the released guarantee *exactly*.

    The callback only enriches the registry — it never mutates ``logs`` — so
    its position in the callback list does not matter.
    """

    def __init__(self, registry=None, delta: Optional[float] = None):
        # Imported here (not at module top) to keep repro.engine importable
        # without repro.obs in pathological partial checkouts; the cost is one
        # dict lookup per construction.
        from repro.obs import get_registry

        self.registry = registry if registry is not None else get_registry()
        self.delta = delta
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
        if epsilon is None and self.delta is not None:
            spent = getattr(trainer.optimizer, "privacy_spent", None)
            if callable(spent):
                epsilon = spent(self.delta)
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
