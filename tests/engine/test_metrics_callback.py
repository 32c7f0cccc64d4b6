"""MetricsCallback: training metrics on the registry, privacy gauge exactness."""

import math

import numpy as np
import pytest

from repro.engine import MetricsCallback
from repro.models import DPVAE, P3GM, VAE
from repro.obs import MetricsRegistry, set_registry


@pytest.fixture
def registry():
    """An isolated process-wide registry, restored after the test.

    The models construct ``MetricsCallback()`` internally (which resolves
    ``get_registry()``), so isolation has to swap the default registry rather
    than pass one down.
    """
    mine = MetricsRegistry()
    previous = set_registry(mine)
    yield mine
    set_registry(previous)


def tiny_vae(**overrides):
    defaults = dict(latent_dim=2, hidden=(8,), epochs=2, batch_size=50, random_state=0)
    defaults.update(overrides)
    return VAE(**defaults)


def tiny_dpvae(**overrides):
    defaults = dict(
        latent_dim=2, hidden=(8,), epochs=2, batch_size=50,
        epsilon=2.0, delta=1e-5, random_state=0,
    )
    defaults.update(overrides)
    return DPVAE(**defaults)


class TestTrainingMetrics:
    def test_steps_and_timings_land_on_the_registry(self, registry, toy_unlabeled_data):
        tiny_vae().fit(toy_unlabeled_data)
        steps = registry.get("repro_train_steps_total")
        assert steps is not None
        n_steps = steps.value(model="VAE")
        assert n_steps == 2 * (400 // 50)  # epochs * batches per epoch
        assert registry.get("repro_train_step_seconds").snapshot(model="VAE")["count"] == n_steps
        assert registry.get("repro_train_epoch_seconds").snapshot(model="VAE")["count"] == 2
        assert registry.get("repro_train_steps_per_second").value(model="VAE") > 0

    def test_nonprivate_runs_have_no_clipping_or_epsilon_series(
        self, registry, toy_unlabeled_data
    ):
        tiny_vae().fit(toy_unlabeled_data)
        assert registry.get("repro_train_grad_norm").samples() == {}
        # A non-private model reports epsilon = inf; the gauge skips
        # non-finite values, so no sample is ever written for VAE.
        assert registry.get("repro_privacy_epsilon_spent").samples() == {}

    def test_private_runs_record_clipping_diagnostics(self, registry, toy_unlabeled_data):
        tiny_dpvae().fit(toy_unlabeled_data)
        grad_norm = registry.get("repro_train_grad_norm").value(model="DPVAE")
        clip_fraction = registry.get("repro_train_clip_fraction").value(model="DPVAE")
        assert grad_norm > 0
        assert 0.0 <= clip_fraction <= 1.0


class TestPrivacyBudgetGauge:
    def test_final_gauge_equals_privacy_spent_exactly(self, registry, toy_unlabeled_data):
        model = tiny_dpvae()
        model.fit(toy_unlabeled_data)
        epsilon, _ = model.privacy_spent()
        assert math.isfinite(epsilon)
        gauge = registry.get("repro_privacy_epsilon_spent")
        # The acceptance bar: exact equality with the released guarantee,
        # not approximate agreement with the per-epoch accountant values.
        assert gauge.value(model="DPVAE") == epsilon

    def test_gauge_tracks_accountant_during_training(self, registry, toy_unlabeled_data):
        observed = []
        gauge_reads = []

        model = tiny_dpvae(epochs=3)
        registry_gauge = lambda: registry.get("repro_privacy_epsilon_spent")

        def spy(model_obj, epoch):
            gauge = registry_gauge()
            gauge_reads.append(gauge.value(model="DPVAE") if gauge else None)
            observed.append(epoch)

        model.epoch_callback = spy
        model.fit(toy_unlabeled_data)
        assert observed == [0, 1, 2]
        # The per-epoch value is the accountant's spend so far: positive and
        # non-decreasing while steps accumulate.
        assert all(value > 0 for value in gauge_reads)
        assert gauge_reads == sorted(gauge_reads)

    def test_p3gm_gauge_tracks_accountant_during_training(self, registry, toy_unlabeled_data):
        # The per-epoch value comes from logs["epsilon"], which P3GM's
        # PrivacyBudgetTracker writes before MetricsCallback reads it.
        gauge_reads = []
        model = P3GM(
            latent_dim=2, hidden=(8,), epochs=2, batch_size=50, n_mixture_components=2,
            em_iterations=2, epsilon=2.0, random_state=0,
        )
        model.epoch_callback = lambda model_obj, epoch: gauge_reads.append(
            registry.get("repro_privacy_epsilon_spent").value(model="P3GM")
        )
        model.fit(toy_unlabeled_data)
        assert len(gauge_reads) == 2
        assert all(value > 0 for value in gauge_reads)
        assert gauge_reads == sorted(gauge_reads)


class TestCallbackInIsolation:
    def test_explicit_registry_and_optimizer_probing(self, toy_unlabeled_data):
        registry = MetricsRegistry()
        callback = MetricsCallback(registry=registry)

        class FakeOptimizer:
            last_grad_norm = 1.25
            last_clip_fraction = 0.5

        class FakeTrainer:
            optimizer = FakeOptimizer()

        class FakeModel:
            pass

        trainer, model = FakeTrainer(), FakeModel()
        callback.on_train_begin(trainer, model)
        callback.on_step_end(trainer, model, 1, {"step": 1})
        callback.on_epoch_end(trainer, model, 0, {})
        callback.on_train_end(trainer, model)
        assert registry.get("repro_train_steps_total").value(model="FakeModel") == 1
        assert registry.get("repro_train_grad_norm").value(model="FakeModel") == 1.25
        assert registry.get("repro_train_clip_fraction").value(model="FakeModel") == 0.5
