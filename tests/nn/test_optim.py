"""Tests for the plain optimizers: update rules, gradient plumbing, state."""

import numpy as np
import pytest

from repro.nn import SGD, Adam
from repro.nn.layers import Parameter


def make_params(shapes=((3, 2), (2,))):
    rng = np.random.default_rng(0)
    return [Parameter(rng.normal(size=shape)) for shape in shapes]


def run_steps(optimizer, n_steps, seed=1):
    rng = np.random.default_rng(seed)
    for _ in range(n_steps):
        optimizer.apply_gradients([rng.normal(size=p.data.shape) for p in optimizer.params])


class TestApplyGradients:
    def test_too_few_gradients_raises_with_both_lengths(self):
        optimizer = SGD(make_params(), lr=0.1)
        with pytest.raises(ValueError, match=r"1 gradients for 2 parameters"):
            optimizer.apply_gradients([np.zeros((3, 2))])

    def test_too_many_gradients_raises_with_both_lengths(self):
        optimizer = Adam(make_params())
        grads = [np.zeros((3, 2)), np.zeros((2,)), np.zeros((2,))]
        with pytest.raises(ValueError, match=r"3 gradients for 2 parameters"):
            optimizer.apply_gradients(grads)

    def test_mismatch_leaves_parameters_untouched(self):
        # Regression: a short gradient list used to zip-truncate into a
        # partial update instead of failing loudly.
        params = make_params()
        before = [p.data.copy() for p in params]
        optimizer = SGD(params, lr=0.5)
        with pytest.raises(ValueError):
            optimizer.apply_gradients([np.ones((3, 2))])
        for p, original in zip(params, before):
            np.testing.assert_array_equal(p.data, original)

    def test_generator_input_is_counted_correctly(self):
        optimizer = SGD(make_params(), lr=0.1)
        with pytest.raises(ValueError, match="refusing a partial update"):
            optimizer.apply_gradients(np.zeros((3, 2)) for _ in range(1))

    def test_matching_gradients_apply(self):
        params = make_params()
        optimizer = SGD(params, lr=1.0)
        optimizer.apply_gradients([np.ones(p.data.shape) for p in params])
        for p in params:
            assert np.all(p.grad == 1.0)


class TestSGDState:
    def test_load_rejects_wrong_key_set(self):
        # A velocity buffer (what momentum SGD used to serialise) is refused
        # rather than silently dropped.
        optimizer = SGD(make_params(), lr=0.1)
        with pytest.raises(ValueError, match="SGD is stateless"):
            optimizer.load_state_dict({"velocity.0": np.zeros((3, 2))})


class TestAdamState:
    def test_state_round_trip_is_bit_identical(self):
        params = make_params()
        optimizer = Adam(params, lr=0.01)
        run_steps(optimizer, 5)
        state = optimizer.state_dict()
        snapshot = [p.data.copy() for p in params]

        fresh_params = [Parameter(s.copy()) for s in snapshot]
        fresh = Adam(fresh_params, lr=0.01)
        fresh.load_state_dict(state)
        assert fresh._t == optimizer._t

        run_steps(optimizer, 3, seed=2)
        run_steps(fresh, 3, seed=2)
        for a, b in zip(params, fresh_params):
            assert a.data.tobytes() == b.data.tobytes()

    def test_step_count_matters(self):
        # Restoring moments but not t would change the bias correction; make
        # sure t participates in the round trip.
        optimizer = Adam(make_params())
        run_steps(optimizer, 4)
        assert int(optimizer.state_dict()["t"]) == 4

    def test_load_rejects_missing_t(self):
        optimizer = Adam(make_params())
        state = optimizer.state_dict()
        del state["t"]
        with pytest.raises(ValueError, match="Adam state mismatch"):
            optimizer.load_state_dict(state)

    def test_load_rejects_unknown_keys(self):
        optimizer = Adam(make_params())
        state = optimizer.state_dict()
        state["m.7"] = np.zeros(2)
        with pytest.raises(ValueError, match="Adam state mismatch"):
            optimizer.load_state_dict(state)

    def test_state_dict_copies_are_detached(self):
        optimizer = Adam(make_params())
        run_steps(optimizer, 2)
        state = optimizer.state_dict()
        state["m.0"][:] = 123.0
        assert not np.any(optimizer._m[0] == 123.0)

    def test_load_rejects_wrong_shape(self):
        optimizer = Adam(make_params())
        state = optimizer.state_dict()
        state["m.1"] = np.zeros((5,))
        with pytest.raises(ValueError, match="shape"):
            optimizer.load_state_dict(state)


class TestStatelessBase:
    def test_sgd_is_stateless(self):
        optimizer = SGD(make_params(), lr=0.1)
        run_steps(optimizer, 2)
        assert optimizer.state_dict() == {}
        optimizer.load_state_dict({})
