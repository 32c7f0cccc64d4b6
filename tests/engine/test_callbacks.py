"""Tests for the engine callbacks."""

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.engine import (
    EarlyStopping,
    EpochHook,
    HistoryLogger,
    PrivacyBudgetTracker,
    ShuffleSampler,
    Trainer,
)
from repro.models import DPVAE, P3GM, PGM, VAE
from repro.privacy.accounting import P3GMAccountant
from repro.utils.logging import TrainingHistory


class FakeTrainer:
    stop_training = False


class FakeModel:
    def __init__(self):
        self.history = TrainingHistory()


class TestHistoryLogger:
    def test_logs_into_model_history(self):
        model = FakeModel()
        HistoryLogger().on_epoch_end(FakeTrainer(), model, 0, {"epoch": 0, "loss": 1.5})
        assert model.history.records == [{"epoch": 0, "loss": 1.5}]

    def test_explicit_history_takes_precedence(self):
        model = FakeModel()
        history = TrainingHistory()
        HistoryLogger(history).on_epoch_end(FakeTrainer(), model, 0, {"loss": 2.0})
        assert len(history) == 1
        assert len(model.history) == 0

    def test_state_dict_round_trips_records_exactly(self):
        model = FakeModel()
        logger = HistoryLogger()
        trainer = FakeTrainer()
        records = [
            {"epoch": 0, "elbo_loss": 1.5, "epsilon": 0.25},
            {"epoch": 1, "elbo_loss": float("nan")},
        ]
        for epoch, record in enumerate(records):
            logger.on_epoch_end(trainer, model, epoch, record)
        state = logger.state_dict(trainer, model)

        fresh_model = FakeModel()
        HistoryLogger().load_state_dict(trainer, fresh_model, state)
        restored = fresh_model.history.records
        assert restored[0] == records[0]
        assert restored[1]["epoch"] == 1
        assert np.isnan(restored[1]["elbo_loss"])

    def test_load_state_dict_rejects_wrong_keys(self):
        with pytest.raises(ValueError, match="records"):
            HistoryLogger().load_state_dict(FakeTrainer(), FakeModel(), {"other": np.asarray(1)})

    @pytest.mark.parametrize("model_cls", [VAE, PGM, DPVAE, P3GM])
    def test_refit_replaces_the_previous_run(self, model_cls, toy_unlabeled_data):
        model = model_cls(latent_dim=4, hidden=(8,), epochs=2, batch_size=100, random_state=0)
        model.fit(toy_unlabeled_data)
        model.fit(toy_unlabeled_data)
        assert model.history.series("epoch") == [0, 1]


class TestStatelessCallbackState:
    def test_base_state_dict_is_empty(self):
        assert EpochHook().state_dict(FakeTrainer(), FakeModel()) == {}

    def test_stateless_callback_rejects_nonempty_state(self):
        with pytest.raises(ValueError, match="stateless"):
            EpochHook().load_state_dict(FakeTrainer(), FakeModel(), {"x": np.asarray(1)})

    def test_stateless_callback_accepts_empty_state(self):
        EpochHook().load_state_dict(FakeTrainer(), FakeModel(), {})


class TestPrivacyBudgetTracker:
    def test_adds_epsilon_to_logs_before_history(self):
        class FakeOptimizer:
            steps_taken = 40

        class TrainerAfter40Steps(FakeTrainer):
            optimizer = FakeOptimizer()

        accountant = P3GMAccountant(sgd_steps=100)
        logs = {"epoch": 0}
        PrivacyBudgetTracker(accountant, 1e-5).on_epoch_end(TrainerAfter40Steps(), FakeModel(), 0, logs)
        # The composed spend so far: DP-PCA, DP-EM and the 40 steps taken.
        assert logs["epsilon"] == replace(accountant, sgd_steps=40).epsilon(1e-5)
        assert logs["epsilon"] < accountant.epsilon(1e-5)

    @pytest.mark.parametrize("model_class", [P3GM, DPVAE])
    def test_last_epoch_equals_privacy_spent(self, model_class):
        data = load_dataset("credit", n_samples=2000, random_state=0)
        model = model_class(
            hidden=(16,), epochs=3, batch_size=200, noise_multiplier=5.0, random_state=0
        ).fit(data.X_train, data.y_train)
        epsilons = model.history.series("epsilon")
        assert len(epsilons) == 3
        assert epsilons == sorted(epsilons)
        # An uninterrupted run ends exactly at the released guarantee; for
        # P3GM that includes the DP-PCA and DP-EM phases, not DP-SGD alone.
        assert epsilons[-1] == model.privacy_spent()[0]

    def test_dpvae_history_records_cumulative_epsilon(self, toy_unlabeled_data):
        model = DPVAE(
            latent_dim=4, hidden=(16,), epochs=3, batch_size=100,
            noise_multiplier=2.0, epsilon=5.0, random_state=0,
        ).fit(toy_unlabeled_data)
        epsilons = model.history.series("epsilon")
        assert len(epsilons) == 3
        assert all(b >= a for a, b in zip(epsilons, epsilons[1:]))
        assert 0 < epsilons[-1] <= model.privacy_spent()[0] + 1e-9


class TestEarlyStopping:
    def test_stops_after_patience_epochs_without_improvement(self):
        stopper = EarlyStopping(monitor="elbo_loss", patience=2)
        trainer = FakeTrainer()
        model = FakeModel()
        for epoch, loss in enumerate([10.0, 9.0, 9.5, 9.4]):
            stopper.on_epoch_end(trainer, model, epoch, {"elbo_loss": loss})
        assert trainer.stop_training
        assert stopper.stopped_epoch == 3

    def test_improvement_resets_patience(self):
        stopper = EarlyStopping(patience=2)
        trainer = FakeTrainer()
        for epoch, loss in enumerate([10.0, 9.9, 8.0, 8.5]):
            stopper.on_epoch_end(trainer, FakeModel(), epoch, {"elbo_loss": loss})
        assert not trainer.stop_training

    def test_min_delta_requires_meaningful_improvement(self):
        stopper = EarlyStopping(patience=1, min_delta=0.5)
        trainer = FakeTrainer()
        for epoch, loss in enumerate([10.0, 9.8]):
            stopper.on_epoch_end(trainer, FakeModel(), epoch, {"elbo_loss": loss})
        assert trainer.stop_training

    def test_ends_a_real_training_run_early(self, toy_unlabeled_data):
        model = VAE(latent_dim=4, hidden=(16,), epochs=50, batch_size=100, random_state=0)
        data = model._attach_labels(toy_unlabeled_data, None)
        model.n_input_features_ = data.shape[1]
        model._build(model.n_input_features_)
        optimizer = model._make_optimizer(len(data))
        trainer = Trainer(
            model,
            optimizer,
            ShuffleSampler(model.batch_size),
            callbacks=[HistoryLogger(), EarlyStopping(patience=2)],
            rng=model._rng,
        )
        trainer.fit(len(data), model.epochs, lambda idx: model._per_example_loss(data[idx]))
        assert len(model.history) < 50

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(min_delta=-0.1)

    def test_nan_epoch_never_becomes_best(self):
        # Regression: a NaN loss (all-empty Poisson epoch) used to become
        # `best`, after which every finite epoch compared false against it and
        # training stopped at `patience` no matter how the loss trended.
        stopper = EarlyStopping(patience=2)
        trainer = FakeTrainer()
        for epoch, loss in enumerate([10.0, float("nan"), 9.0, 8.0]):
            stopper.on_epoch_end(trainer, FakeModel(), epoch, {"elbo_loss": loss})
        assert not trainer.stop_training
        assert stopper.best == 8.0

    def test_nan_epochs_do_not_count_toward_patience(self):
        stopper = EarlyStopping(patience=2)
        trainer = FakeTrainer()
        losses = [10.0, float("nan"), float("nan"), float("nan"), 9.0]
        for epoch, loss in enumerate(losses):
            stopper.on_epoch_end(trainer, FakeModel(), epoch, {"elbo_loss": loss})
        assert not trainer.stop_training
        assert stopper.wait == 0

    def test_infinite_loss_is_skipped_like_nan(self):
        stopper = EarlyStopping(patience=1)
        trainer = FakeTrainer()
        stopper.on_epoch_end(trainer, FakeModel(), 0, {"elbo_loss": float("-inf")})
        assert stopper.best is None
        assert not trainer.stop_training

    def test_state_resets_between_fits(self):
        # Regression: one instance driving two fits kept best/wait from the
        # first run, so the second fit compared against the stale loss scale
        # and could stop immediately.
        stopper = EarlyStopping(patience=2)
        trainer = FakeTrainer()
        model = FakeModel()
        stopper.on_train_begin(trainer, model)
        for epoch, loss in enumerate([1.0, 2.0, 3.0]):
            stopper.on_epoch_end(trainer, model, epoch, {"elbo_loss": loss})
        assert trainer.stop_training
        assert stopper.stopped_epoch == 2

        second = FakeTrainer()
        stopper.on_train_begin(second, model)
        assert stopper.best is None
        assert stopper.wait == 0
        assert stopper.stopped_epoch is None
        # Losses far above the first run's best must still register as
        # improvements in the new run.
        for epoch, loss in enumerate([100.0, 90.0, 80.0]):
            stopper.on_epoch_end(second, model, epoch, {"elbo_loss": loss})
        assert not second.stop_training
        assert stopper.best == 80.0

    def test_state_dict_round_trip(self):
        stopper = EarlyStopping(patience=3)
        trainer = FakeTrainer()
        model = FakeModel()
        for epoch, loss in enumerate([10.0, 9.0, 9.5]):
            stopper.on_epoch_end(trainer, model, epoch, {"elbo_loss": loss})
        state = stopper.state_dict(trainer, model)

        fresh = EarlyStopping(patience=3)
        fresh.load_state_dict(trainer, model, state)
        assert fresh.best == 9.0
        assert fresh.wait == 1
        assert fresh.stopped_epoch is None

    def test_state_dict_round_trip_before_any_finite_epoch(self):
        stopper = EarlyStopping(patience=3)
        trainer = FakeTrainer()
        model = FakeModel()
        state = stopper.state_dict(trainer, model)
        fresh = EarlyStopping(patience=3)
        fresh.load_state_dict(trainer, model, state)
        assert fresh.best is None
        assert fresh.wait == 0

    def test_load_state_dict_rejects_wrong_keys(self):
        stopper = EarlyStopping()
        with pytest.raises(ValueError, match="EarlyStopping state mismatch"):
            stopper.load_state_dict(FakeTrainer(), FakeModel(), {"velocity.0": np.zeros(2)})


class TestEpochHook:
    def test_legacy_epoch_callback_keeps_firing(self, toy_unlabeled_data):
        calls = []
        model = VAE(latent_dim=4, hidden=(16,), epochs=3, batch_size=100, random_state=0)
        model.epoch_callback = lambda m, epoch: calls.append((m is model, epoch))
        model.fit(toy_unlabeled_data)
        assert calls == [(True, 0), (True, 1), (True, 2)]

    def test_missing_hook_is_a_no_op(self):
        EpochHook().on_epoch_end(FakeTrainer(), object(), 0, {})
