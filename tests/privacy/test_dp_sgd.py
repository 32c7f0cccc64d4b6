"""Tests for the DP-SGD optimizer."""

import time

import numpy as np
import pytest

from contracts.dp_step_reference import SeedDPSGD
from repro.datasets import load_dataset
from repro.models import DPVAE
from repro.nn import MLP, Adam, Tensor, grad_sample_mode
from repro.privacy import DPSGD


def make_model_and_data(seed=0, n=64, d=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=(d, 1))
    y = X @ w
    model = MLP(d, (8,), 1, rng=seed)
    return model, X, y


def squared_error(model, X, y):
    """The summed squared error of ``model`` on ``(X, y)``: a sum of
    per-example terms, as DP-SGD's per-example gradients require."""
    return ((model(Tensor(X)) - y) ** 2).sum()


class TestDPSGDMechanics:
    def test_step_requires_grad_sample(self):
        model, X, y = make_model_and_data()
        params = list(model.parameters())
        opt = DPSGD(
            params, noise_multiplier=1.0, max_grad_norm=1.0, expected_batch_size=64,
            base_optimizer=Adam(params),
        )
        loss = squared_error(model, X, y)
        loss.backward()
        with pytest.raises(RuntimeError):
            opt.step()

    def test_missing_grad_sample_error_names_parameter(self):
        """The error must identify which parameter lacks grad_sample (index + shape)."""
        model, X, y = make_model_and_data()
        params = list(model.parameters())
        opt = DPSGD(
            params, noise_multiplier=1.0, max_grad_norm=1.0, expected_batch_size=64,
            base_optimizer=Adam(params),
        )
        with grad_sample_mode():
            squared_error(model, X, y).backward()
        # Drop the per-example gradient of the third parameter only.
        params[2].grad_sample = None
        with pytest.raises(RuntimeError, match=r"parameter 2 \(shape \(8, 1\)\)"):
            opt.step()

    def test_step_updates_parameters(self):
        model, X, y = make_model_and_data()
        params = list(model.parameters())
        before = [p.data.copy() for p in params]
        opt = DPSGD(
            params, noise_multiplier=0.5, max_grad_norm=1.0, expected_batch_size=64,
            base_optimizer=Adam(params, lr=0.1), rng=0,
        )
        with grad_sample_mode():
            loss = squared_error(model, X, y)
            loss.backward()
        opt.step()
        assert any(not np.allclose(b, p.data) for b, p in zip(before, params))
        assert opt.steps_taken == 1

    def test_grad_samples_cleared_after_step(self):
        model, X, y = make_model_and_data()
        params = list(model.parameters())
        opt = DPSGD(
            params, noise_multiplier=0.5, max_grad_norm=1.0, expected_batch_size=64,
            base_optimizer=Adam(params), rng=0,
        )
        with grad_sample_mode():
            squared_error(model, X, y).backward()
        opt.step()
        assert all(p.grad_sample is None for p in opt.params)

    def test_noisy_gradient_close_to_clipped_mean_with_tiny_noise(self):
        """With near-zero noise, the gradient DP-SGD hands its base optimizer
        is the clipped mean."""
        model, X, y = make_model_and_data(seed=1)
        params = list(model.parameters())

        # Reference: per-example clipped mean computed manually.
        with grad_sample_mode():
            squared_error(model, X, y).backward()
        from repro.privacy.clipping import per_example_clip

        clipped = per_example_clip([p.grad_sample for p in params], 1.0)
        reference = [c.sum(axis=0) / 64 for c in clipped]
        for p in params:
            p.zero_grad()

        opt = DPSGD(
            params,
            noise_multiplier=1e-8,
            max_grad_norm=1.0,
            expected_batch_size=64,
            base_optimizer=Adam(params),
            rng=0,
        )
        with grad_sample_mode():
            squared_error(model, X, y).backward()
        opt.step()
        for applied, ref in zip(opt.base_optimizer.grad_views, reference):
            np.testing.assert_allclose(applied, ref, atol=1e-5)

    def test_invalid_constructor_args(self):
        model, _, _ = make_model_and_data()
        params = list(model.parameters())
        base = Adam(params)
        with pytest.raises(ValueError):
            DPSGD([], 1.0, 1.0, 8, base_optimizer=base)
        with pytest.raises(ValueError):
            DPSGD(params, 0.0, 1.0, 8, base_optimizer=base)
        with pytest.raises(ValueError):
            DPSGD(params, 1.0, -1.0, 8, base_optimizer=base)

    @pytest.mark.parametrize(
        "reorder",
        [
            # Two same-shape (3, 3) parameters swapped: unchecked, each would
            # silently receive the other's noised gradient.
            lambda params: [params[2], params[1], params[0], params[3]],
            lambda params: params[::-1],
            lambda params: params[:-1],
        ],
    )
    def test_params_must_be_the_base_optimizer_params_in_order(self, reorder):
        params = list(MLP(3, (3,), 3, rng=0).parameters())
        assert params[0].shape == params[2].shape == (3, 3)
        base = Adam(reorder(params))
        with pytest.raises(ValueError, match="base_optimizer.params"):
            DPSGD(params, 1.0, 1.0, 8, base_optimizer=base)

    def test_params_must_be_the_same_objects(self):
        params = list(MLP(3, (3,), 3, rng=0).parameters())
        twins = list(MLP(3, (3,), 3, rng=0).parameters())
        with pytest.raises(ValueError, match="same parameter objects"):
            DPSGD(params, 1.0, 1.0, 8, base_optimizer=Adam(twins))

    def test_base_optimizer_is_required(self):
        # There is no default base: the models always hand DP-SGD their Adam.
        model, _, _ = make_model_and_data()
        with pytest.raises(TypeError, match="base_optimizer"):
            DPSGD(list(model.parameters()), 1.0, 1.0, 8)


class TestDPSGDState:
    def make_optimizer(self, params, rng=0):
        return DPSGD(
            params,
            noise_multiplier=1.2,
            max_grad_norm=1.0,
            expected_batch_size=64,
            base_optimizer=Adam(params, lr=0.01),
            rng=rng,
        )

    def run_steps(self, model, opt, X, y, n):
        for _ in range(n):
            with grad_sample_mode():
                squared_error(model, X, y).backward()
            opt.step()

    def test_state_round_trip_resumes_bit_identically(self):
        model, X, y = make_model_and_data()
        opt = self.make_optimizer(list(model.parameters()))
        self.run_steps(model, opt, X, y, 3)
        state = opt.state_dict()
        snapshot = [p.data.copy() for p in opt.params]

        # Fresh process stand-in: same architecture and seed, restored state.
        model2, _, _ = make_model_and_data()
        opt2 = self.make_optimizer(list(model2.parameters()), rng=99)
        for p, value in zip(opt2.params, snapshot):
            p.data[...] = value
        opt2.load_state_dict(state)
        assert opt2.steps_taken == 3

        self.run_steps(model, opt, X, y, 2)
        self.run_steps(model2, opt2, X, y, 2)
        for a, b in zip(opt.params, opt2.params):
            assert a.data.tobytes() == b.data.tobytes()
        assert opt.steps_taken == opt2.steps_taken == 5

    def test_rng_state_pins_the_noise_stream(self):
        model, X, y = make_model_and_data()
        opt = self.make_optimizer(list(model.parameters()))
        self.run_steps(model, opt, X, y, 2)
        state = opt.state_dict()
        noise_a = opt._rng.normal(size=5)

        model2, _, _ = make_model_and_data()
        opt2 = self.make_optimizer(list(model2.parameters()), rng=7)
        opt2.load_state_dict(state)
        noise_b = opt2._rng.normal(size=5)
        np.testing.assert_array_equal(noise_a, noise_b)

    def test_load_rejects_missing_required_key(self):
        model, _, _ = make_model_and_data()
        opt = self.make_optimizer(list(model.parameters()))
        state = opt.state_dict()
        del state["rng_state"]
        with pytest.raises(ValueError, match="rng_state"):
            opt.load_state_dict(state)

    def test_load_rejects_unknown_keys(self):
        model, _, _ = make_model_and_data()
        opt = self.make_optimizer(list(model.parameters()))
        state = opt.state_dict()
        state["mystery"] = np.asarray(1.0)
        with pytest.raises(ValueError, match="unknown keys"):
            opt.load_state_dict(state)

    def test_base_optimizer_state_rides_along(self):
        model, X, y = make_model_and_data()
        opt = self.make_optimizer(list(model.parameters()))
        self.run_steps(model, opt, X, y, 2)
        state = opt.state_dict()
        assert int(state["base.t"]) == 2
        assert any(key.startswith("base.m.") for key in state)


class TestDPSGDNoiseStep:
    """The step of an empty Poisson draw releases noise alone."""

    def make_optimizer(self, params, rng=0):
        return DPSGD(
            params,
            noise_multiplier=1.3,
            max_grad_norm=0.7,
            expected_batch_size=16,
            base_optimizer=Adam(params, lr=0.5),
            rng=rng,
        )

    def test_noise_step_equals_a_step_on_all_zero_gradients(self):
        model, X, y = make_model_and_data()
        zero_model, _, _ = make_model_and_data()
        opt = self.make_optimizer(list(model.parameters()))
        zero_opt = self.make_optimizer(list(zero_model.parameters()))
        with grad_sample_mode():
            (squared_error(zero_model, X, y) * 0.0).backward()
        zero_opt.step()
        opt.noise_step()
        for a, b in zip(opt.params, zero_opt.params):
            assert a.data.tobytes() == b.data.tobytes()

    def test_noise_steps_are_counted(self):
        # The model's accountant analyses every counted step
        # (tests/engine/test_trainer.py pins noise-only steps in its epsilon).
        model, _, _ = make_model_and_data()
        opt = self.make_optimizer(list(model.parameters()))
        for _ in range(3):
            opt.noise_step()
        assert opt.steps_taken == 3

    def test_noise_step_clears_diagnostics_and_stale_grad_samples(self):
        model, X, y = make_model_and_data()
        opt = self.make_optimizer(list(model.parameters()))
        with grad_sample_mode():
            squared_error(model, X, y).backward()
        opt.step()
        assert opt.last_grad_norm is not None
        with grad_sample_mode():
            squared_error(model, X, y).backward()
        opt.noise_step()
        assert opt.last_grad_norm is None and opt.last_clip_fraction is None
        assert all(p.grad_sample is None for p in opt.params)


class TestDPSGDLearning:
    def test_dp_sgd_still_learns_with_moderate_noise(self):
        """DP-SGD with moderate noise should still reduce the loss on easy data."""
        model, X, y = make_model_and_data(seed=2, n=256)
        params = list(model.parameters())
        opt = DPSGD(
            params,
            noise_multiplier=0.5,
            max_grad_norm=1.0,
            expected_batch_size=256,
            base_optimizer=Adam(params, lr=0.05),
            rng=3,
        )
        losses = []
        for _ in range(60):
            with grad_sample_mode():
                loss = squared_error(model, X, y)
                loss.backward()
            losses.append(loss.item() / len(X))
            opt.step()
        assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:10])


class TestFusedStepSpeed:
    """The fused step against the seed's per-parameter loop (``SeedDPSGD``),
    which materialises every dense per-example gradient."""

    #: The paper's credit configuration (Table IV): latent 10, width-1000
    #: networks, noise multiplier 1.5; laptop-scale row count.
    CONFIG = dict(latent_dim=10, hidden=(1000,), batch_size=200, noise_multiplier=1.5)
    STEPS = 10
    MIN_SPEEDUP = 1.5

    def steps_per_second(self, step_cls, seed=0) -> float:
        """Time ``STEPS`` training steps (forward, backward, DP step) after two
        warm-up steps."""
        dataset = load_dataset("credit", n_samples=2000, random_state=seed)
        model = DPVAE(**self.CONFIG, epsilon=10.0, random_state=seed)
        data = model._attach_labels(dataset.X_train, dataset.y_train)
        model.n_input_features_ = data.shape[1]
        model._build(model.n_input_features_)
        params = list(model._parameters())
        optimizer = step_cls(
            params,
            noise_multiplier=self.CONFIG["noise_multiplier"],
            max_grad_norm=1.0,
            expected_batch_size=self.CONFIG["batch_size"],
            base_optimizer=Adam(params, lr=model.learning_rate),
            rng=seed,
        )
        rng = np.random.default_rng(seed)

        def one_step():
            batch = data[rng.choice(len(data), size=self.CONFIG["batch_size"], replace=False)]
            with grad_sample_mode():
                reconstruction, kl = model._per_example_loss(batch, model._rng)
                (reconstruction + kl).sum().backward()
            optimizer.step()

        for _ in range(2):
            one_step()
        started = time.perf_counter()
        for _ in range(self.STEPS):
            one_step()
        return self.STEPS / (time.perf_counter() - started)

    def test_fused_step_outpaces_the_seed_loop(self):
        seed_rate = self.steps_per_second(SeedDPSGD)
        fused_rate = self.steps_per_second(DPSGD)
        assert fused_rate >= self.MIN_SPEEDUP * seed_rate, (
            f"fused {fused_rate:.1f} steps/s is {fused_rate / seed_rate:.2f}x the seed "
            f"loop's {seed_rate:.1f}; required {self.MIN_SPEEDUP}x"
        )
