"""Tests for modules, layers, and optimizers."""

import numpy as np
import pytest

from repro.nn import MLP, Adam, Dropout, Linear, Module, ReLU, Sequential, Sigmoid, Tensor


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, rng=0)
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_parameters_count(self):
        layer = Linear(5, 3, rng=0)
        assert layer.num_parameters() == 5 * 3 + 3


class TestSequentialAndMLP:
    def test_sequential_applies_in_order(self):
        net = Sequential(Linear(4, 4, rng=0), ReLU(), Linear(4, 2, rng=1), Sigmoid())
        out = net(Tensor(np.random.default_rng(0).normal(size=(6, 4))))
        assert out.shape == (6, 2)
        assert np.all((out.data >= 0) & (out.data <= 1))

    def test_mlp_hidden_stack(self):
        mlp = MLP(10, (32, 16), 3, rng=0)
        out = mlp(Tensor(np.zeros((2, 10))))
        assert out.shape == (2, 3)

    def test_mlp_invalid_activation(self):
        with pytest.raises(ValueError):
            MLP(4, (8,), 2, output_activation="bogus")

    def test_state_dict_roundtrip(self):
        a = MLP(6, (12,), 4, rng=0)
        b = MLP(6, (12,), 4, rng=99)
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(1).normal(size=(5, 6)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_shape_mismatch_raises(self):
        a = MLP(6, (12,), 4, rng=0)
        b = MLP(6, (13,), 4, rng=0)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())


class TestDropout:
    def test_eval_mode_is_identity(self):
        d = Dropout(0.5, rng=0)
        d.eval()
        x = Tensor(np.ones((10, 10)))
        np.testing.assert_allclose(d(x).data, x.data)

    def test_train_mode_zeroes_some(self):
        d = Dropout(0.5, rng=0)
        out = d(Tensor(np.ones((100, 100))))
        frac_zero = np.mean(out.data == 0)
        assert 0.3 < frac_zero < 0.7

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


class TestTraining:
    def _make_regression(self, seed=0, n=128, d=5):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        w = rng.normal(size=(d, 1))
        y = X @ w + 0.01 * rng.normal(size=(n, 1))
        return X, y

    def test_mlp_fits_linear_regression(self):
        X, y = self._make_regression()
        model = MLP(5, (16,), 1, rng=0)
        opt = Adam(model.parameters(), lr=0.01)
        first_loss = None
        for _ in range(200):
            opt.zero_grad()
            loss = ((model(Tensor(X)) - y) ** 2).mean()
            loss.backward()
            opt.step()
            if first_loss is None:
                first_loss = loss.item()
        assert loss.item() < 0.1 * first_loss

    def test_zero_grad_clears(self):
        model = Linear(3, 1, rng=0)
        loss = ((model(Tensor(np.ones((4, 3)))) - np.zeros((4, 1))) ** 2).mean()
        loss.backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_optimizer_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_optimizer_rejects_bad_lr(self):
        model = Linear(3, 1, rng=0)
        with pytest.raises(ValueError):
            Adam(model.parameters(), lr=0.0)


class TestModuleProtocol:
    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_train_eval_propagates(self):
        net = Sequential(Linear(2, 2, rng=0), Dropout(0.5), Linear(2, 1, rng=0))
        net.eval()
        assert not net.layers[1].training
        net.train()
        assert net.layers[1].training
