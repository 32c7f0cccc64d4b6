"""Tests for the DP-SGD optimizer."""

import numpy as np
import pytest

from repro.nn import MLP, SGD, Tensor, grad_sample_mode
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
            base_optimizer=SGD(params),
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
            base_optimizer=SGD(params),
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
            base_optimizer=SGD(params, lr=0.1), rng=0,
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
            base_optimizer=SGD(params, lr=0.001), rng=0,
        )
        with grad_sample_mode():
            squared_error(model, X, y).backward()
        opt.step()
        assert all(p.grad_sample is None for p in opt.params)

    def test_noisy_gradient_close_to_clipped_mean_with_tiny_noise(self):
        """With near-zero noise, the DP-SGD update direction equals clipped-mean SGD."""
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
            base_optimizer=SGD(params, lr=1.0),
            rng=0,
        )
        before = [p.data.copy() for p in params]
        with grad_sample_mode():
            squared_error(model, X, y).backward()
        opt.step()
        for b, p, ref in zip(before, params, reference):
            np.testing.assert_allclose(b - p.data, ref, atol=1e-5)

    def test_invalid_constructor_args(self):
        model, _, _ = make_model_and_data()
        params = list(model.parameters())
        base = SGD(params)
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
        base = SGD(reorder(params))
        with pytest.raises(ValueError, match="base_optimizer.params"):
            DPSGD(params, 1.0, 1.0, 8, base_optimizer=base)

    def test_params_must_be_the_same_objects(self):
        params = list(MLP(3, (3,), 3, rng=0).parameters())
        twins = list(MLP(3, (3,), 3, rng=0).parameters())
        with pytest.raises(ValueError, match="same parameter objects"):
            DPSGD(params, 1.0, 1.0, 8, base_optimizer=SGD(twins))

    def test_base_optimizer_is_required(self):
        # There is no default base: the models always hand DP-SGD their Adam.
        model, _, _ = make_model_and_data()
        with pytest.raises(TypeError, match="base_optimizer"):
            DPSGD(list(model.parameters()), 1.0, 1.0, 8)


class TestDPSGDState:
    def make_optimizer(self, params, rng=0):
        from repro.nn import Adam

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
            base_optimizer=SGD(params, lr=0.5),
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
            base_optimizer=SGD(params, lr=0.5),
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
