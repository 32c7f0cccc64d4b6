"""Tests for the Trainer, including the seed-loop regression guarantee."""

from dataclasses import replace

import numpy as np
import pytest

from repro.engine import Callback, HistoryLogger, PoissonSampler, PrivacyBudgetTracker
from repro.engine import ShuffleSampler, Trainer
from repro.models import DPVAE, P3GM, PGM, VAE
from repro.nn import Adam, Optimizer
from repro.privacy import DPSGD
from repro.privacy.accounting import P3GMAccountant


class EmptySampler(PoissonSampler):
    """Poisson sampling whose one draw per epoch comes up empty."""

    def epoch_batches(self, n_samples, rng):
        yield np.array([], dtype=int)


class BatchThenEmptySampler(PoissonSampler):
    """Poisson sampling whose epoch draws five records, then none."""

    def epoch_batches(self, n_samples, rng):
        yield from (np.arange(5), np.array([], dtype=int))


class StepRecorder(Callback):
    """Keeps a copy of every step's logs."""

    def __init__(self):
        self.logs = []

    def on_step_end(self, trainer, model, step, logs):
        self.logs.append(dict(logs))


def tiny_built_vae():
    """A VAE with its networks built for 3 features, ready for a bare Trainer."""
    model = VAE(latent_dim=2, hidden=(4,), epochs=1, batch_size=5, random_state=0)
    model.n_input_features_ = 3
    model._build(3)
    return model


def private_trainer(model, sampler, callbacks=()):
    """A private Trainer whose DPSGD (around Adam) draws noise from ``rng=7``
    (sigma 1.5, C 2, B 5)."""
    params = list(model._parameters())
    optimizer = DPSGD(
        params, noise_multiplier=1.5, max_grad_norm=2.0, expected_batch_size=5,
        base_optimizer=Adam(params), rng=7,
    )
    return Trainer(
        model, optimizer, sampler, callbacks=[*callbacks, HistoryLogger()], rng=model._rng
    )


def seed_loop_history(X, **vae_params):
    """Replica of the seed repo's hand-rolled ``VAE._train_loop``.

    Reproduces the original per-epoch permutation / consecutive-batch /
    mean-loss-backward loop verbatim so the regression test below can assert
    that ``ShuffleSampler + Trainer`` consumes the RNG stream identically and
    produces bit-equal training histories.
    """
    model = VAE(**vae_params)
    data = model._attach_labels(np.asarray(X, dtype=np.float64), None)
    model.n_input_features_ = data.shape[1]
    model._build(model.n_input_features_)
    optimizer = Adam(list(model._parameters()), lr=model.learning_rate)

    history = []
    n_samples = len(data)
    batch_size = min(model.batch_size, n_samples)
    for epoch in range(model.epochs):
        order = model._rng.permutation(n_samples)
        epoch_recon, epoch_kl, batches = 0.0, 0.0, 0
        for start in range(0, n_samples, batch_size):
            batch = data[order[start : start + batch_size]]
            optimizer.zero_grad()
            reconstruction, kl = model._per_example_loss(batch, model._rng)
            (reconstruction + kl).mean().backward()
            optimizer.step()
            epoch_recon += float(reconstruction.data.mean())
            epoch_kl += float(kl.data.mean())
            batches += 1
        history.append(
            {
                "epoch": epoch,
                "reconstruction_loss": epoch_recon / batches,
                "kl_loss": epoch_kl / batches,
                "elbo_loss": (epoch_recon + epoch_kl) / batches,
            }
        )
    return history


class TestSeedRegression:
    def test_trainer_reproduces_seed_vae_history_exactly(self, toy_unlabeled_data):
        """Bit-exact equality with the seed training loop for a fixed seed."""
        params = dict(latent_dim=4, hidden=(16,), epochs=3, batch_size=128, random_state=0)
        expected = seed_loop_history(toy_unlabeled_data, **params)
        model = VAE(**params).fit(toy_unlabeled_data)
        assert model.history.records == expected


class TestEmptyData:
    def test_trainer_rejects_empty_dataset(self):
        trainer = Trainer(object(), object(), ShuffleSampler(10))
        with pytest.raises(ValueError, match="empty dataset"):
            trainer.fit(0, 5, lambda idx: None)

    @pytest.mark.parametrize("model_cls", [VAE, PGM, DPVAE, P3GM])
    def test_models_reject_empty_arrays_with_clear_message(self, model_cls):
        model = model_cls(latent_dim=4, hidden=(8,), epochs=1, batch_size=10, random_state=0)
        with pytest.raises(ValueError, match="(?i)empty"):
            model.fit(np.empty((0, 5)))

    def test_check_array_message_names_sample_count(self):
        from repro.utils.validation import check_array

        with pytest.raises(ValueError, match="0 samples"):
            check_array(np.empty((0, 3)), "X")


class TestTrainerMechanics:
    def test_single_sample_trains_without_division_error(self):
        model = VAE(latent_dim=2, hidden=(4,), epochs=2, batch_size=10, random_state=0)
        model.fit(np.full((1, 3), 0.5))
        assert len(model.history) == 2

    def test_private_mode_with_poisson_sampler(self, toy_unlabeled_data):
        model = DPVAE(
            latent_dim=4, hidden=(16,), epochs=2, batch_size=100,
            noise_multiplier=1.5, epsilon=10.0, random_state=0,
        ).fit(toy_unlabeled_data)
        # epochs * ceil(N / B) records, each carrying the engine's loss keys.
        assert len(model.history) == 2
        for record in model.history:
            assert set(record) >= {"epoch", "reconstruction_loss", "kl_loss", "elbo_loss", "epsilon"}

    def test_poisson_empty_batches_are_skipped(self):
        """A sampler that only yields empty batches must not crash or divide by 0."""
        model = tiny_built_vae()
        data = model._attach_labels(np.full((20, 3), 0.5), None)
        before = [p.data.copy() for p in model._parameters()]
        trainer = Trainer(
            model,
            model._make_optimizer(len(data)),
            EmptySampler(sample_rate=0.5, steps=1),
            callbacks=[HistoryLogger()],
            rng=model._rng,
        )
        trainer.fit(len(data), 1, lambda idx: model._per_example_loss(data[idx], model._rng))
        # A batch-less epoch must not fabricate 0.0 losses; it logs NaN.
        assert len(model.history) == 1
        assert np.isnan(model.history.last("elbo_loss"))
        assert trainer.global_step == 0
        # Non-private training has nothing to release for an empty draw.
        for p, start in zip(model._parameters(), before):
            assert p.data.tobytes() == start.tobytes()

    def test_nonprivate_empty_draw_between_batches_is_not_a_step(self):
        model = tiny_built_vae()
        data = model._attach_labels(np.full((20, 3), 0.5), None)
        steps = StepRecorder()
        trainer = Trainer(
            model,
            model._make_optimizer(len(data)),
            BatchThenEmptySampler(sample_rate=0.25, steps=2),
            callbacks=[steps, HistoryLogger()],
            rng=model._rng,
        )
        trainer.fit(len(data), 1, lambda idx: model._per_example_loss(data[idx], model._rng))
        assert [logs["step"] for logs in steps.logs] == [1]
        assert trainer.global_step == 1
        record, first = model.history.records[-1], steps.logs[0]
        assert (record["reconstruction_loss"], record["kl_loss"]) == (
            first["reconstruction_loss"], first["kl_loss"]
        )

    def test_private_empty_draw_takes_a_noise_only_step(self):
        """The accountant budgets a noisy release per step, empty draws included."""
        model = tiny_built_vae()
        params = list(model._parameters())
        before = [p.data.copy() for p in params]

        def loss_fn(index):
            raise AssertionError("an empty draw must not run the loss")

        trainer = private_trainer(model, EmptySampler(sample_rate=0.25, steps=1))
        trainer.fit(20, 1, loss_fn)

        # The base optimizer applied the noise alone, averaged over B.
        noise = np.random.default_rng(7).normal(0.0, 1.5 * 2.0, size=sum(p.size for p in params))
        noise /= 5
        assert trainer.optimizer.base_optimizer.flat_grad.tobytes() == noise.tobytes()
        assert all(not np.array_equal(p.data, start) for p, start in zip(params, before))
        assert trainer.optimizer.steps_taken == 1
        assert trainer.global_step == 1
        assert np.isnan(model.history.last("elbo_loss"))

    def test_private_empty_draw_adds_no_loss_to_the_epoch_means(self):
        model = tiny_built_vae()
        data = model._attach_labels(np.full((20, 3), 0.5), None)
        steps = StepRecorder()
        trainer = private_trainer(model, BatchThenEmptySampler(sample_rate=0.25, steps=2), [steps])
        trainer.fit(len(data), 1, lambda idx: model._per_example_loss(data[idx], model._rng))
        # Step callbacks see both steps; the empty one carries NaN losses.
        assert [logs["step"] for logs in steps.logs] == [1, 2]
        assert np.isnan([steps.logs[1]["reconstruction_loss"], steps.logs[1]["kl_loss"]]).all()
        assert trainer.optimizer.steps_taken == trainer.global_step == 2
        # The epoch means are those of the one non-empty batch.
        record, first = model.history.records[-1], steps.logs[0]
        assert (record["reconstruction_loss"], record["kl_loss"]) == (
            first["reconstruction_loss"], first["kl_loss"]
        )

    def test_budget_tracker_counts_noise_only_steps(self):
        model = tiny_built_vae()
        trainer = private_trainer(model, EmptySampler(sample_rate=0.25, steps=1))
        accountant = P3GMAccountant(epsilon_pca=0.0, em_iterations=0, sigma_sgd=1.5, sample_rate=0.25)
        trainer.callbacks.insert(0, PrivacyBudgetTracker(accountant, delta=1e-5))
        trainer.fit(20, 2, lambda idx: None)
        epsilons = [record["epsilon"] for record in model.history.records]
        assert epsilons == [replace(accountant, sgd_steps=steps).epsilon(1e-5) for steps in (1, 2)]
        assert 0 < epsilons[0] < epsilons[1]

    def test_no_model_train_loops_remain(self):
        """The four hand-rolled loops must stay deleted (acceptance criterion)."""
        import inspect

        import repro.models.dp_vae
        import repro.models.p3gm
        import repro.models.pgm
        import repro.models.vae

        for module in (
            repro.models.vae,
            repro.models.dp_vae,
            repro.models.pgm,
            repro.models.p3gm,
        ):
            source = inspect.getsource(module)
            assert "_train_loop" not in source
            assert "_optimization_step" not in source


class TestStepZero:
    """A private step never forms the summed gradient DP-SGD discards."""

    @pytest.mark.parametrize("model_cls", [P3GM, DPVAE])
    def test_parameter_grads_stay_none_through_private_steps(
        self, model_cls, toy_unlabeled_data, monkeypatch
    ):
        model = model_cls(latent_dim=2, hidden=(8,), epochs=1, batch_size=5, random_state=0)
        data = model._attach_labels(toy_unlabeled_data[:40], None)
        model.n_input_features_ = data.shape[1]
        loss_fn = model._prepare_training(data)
        params = list(model._parameters())
        optimizer = model._make_optimizer(len(data))
        seen = []

        apply_gradients = Optimizer.apply_gradients

        def spy(self, grads):
            # Mid-step: after the backward pass, the clip and the noise.
            seen.append(("apply", [p.grad for p in params]))
            return apply_gradients(self, grads)

        monkeypatch.setattr(Optimizer, "apply_gradients", spy)

        class AfterStep(Callback):
            def on_step_end(self, trainer, model, step, logs):
                seen.append(("after", [p.grad for p in params]))

        trainer = Trainer(
            model, optimizer, BatchThenEmptySampler(0.1, 2), callbacks=[AfterStep()],
            rng=model._rng,
        )
        trainer.fit(len(data), 1, loss_fn)
        assert optimizer.steps_taken == 2  # one batch step, one noise_step
        assert [kind for kind, _ in seen] == ["apply", "after"] * 2
        assert all(grad is None for _, grads in seen for grad in grads)
