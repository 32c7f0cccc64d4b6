"""Tests for the engine callbacks."""

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.engine import EpochHook, HistoryLogger, PrivacyBudgetTracker
from repro.models import DPVAE, P3GM, PGM, VAE
from repro.privacy.accounting import P3GMAccountant
from repro.utils.logging import TrainingHistory


class FakeTrainer:
    """A trainer stand-in: the hooks under test never read it."""


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


class TestEpochHook:
    def test_legacy_epoch_callback_keeps_firing(self, toy_unlabeled_data):
        calls = []
        model = VAE(latent_dim=4, hidden=(16,), epochs=3, batch_size=100, random_state=0)
        model.epoch_callback = lambda m, epoch: calls.append((m is model, epoch))
        model.fit(toy_unlabeled_data)
        assert calls == [(True, 0), (True, 1), (True, 2)]

    def test_missing_hook_is_a_no_op(self):
        EpochHook().on_epoch_end(FakeTrainer(), object(), 0, {})
