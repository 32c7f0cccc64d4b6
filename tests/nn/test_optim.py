"""Tests for the plain optimizers: update rules, gradient plumbing, state."""

import re

import numpy as np
import pytest

from repro.nn import Adam
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
        optimizer = Adam(make_params(), lr=0.1)
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
        optimizer = Adam(params, lr=0.5)
        with pytest.raises(ValueError):
            optimizer.apply_gradients([np.ones((3, 2))])
        for p, original in zip(params, before):
            np.testing.assert_array_equal(p.data, original)

    @pytest.mark.parametrize(
        "shapes, grad_shapes, index",
        [
            # Unchecked, Adam would rebind the (3,) parameter to a (4, 3) one.
            (((2, 3), (3,)), ((2, 3), (4, 3)), 1),
            (((2, 3), (3,)), ((2, 3), (2, 3)), 1),
            # Unchecked, a (3,) gradient would broadcast across a (2, 3) weight.
            (((2, 3), (3,)), ((3,), (3,)), 0),
        ],
    )
    def test_shape_mismatch_raises_before_anything_is_written(
        self, shapes, grad_shapes, index
    ):
        params = make_params(shapes)
        optimizer = Adam(params)
        before = [p.data.copy() for p in params]
        state = optimizer.state_dict()
        message = (
            f"gradient {index} has shape {grad_shapes[index]}, "
            f"parameter {index} has shape {shapes[index]}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            optimizer.apply_gradients([np.ones(shape) for shape in grad_shapes])
        for p, original in zip(params, before):
            assert p.data.shape == original.shape
            np.testing.assert_array_equal(p.data, original)
        after = optimizer.state_dict()
        assert sorted(after) == sorted(state)
        assert all(np.array_equal(after[key], state[key]) for key in state)

    def test_step_rejects_a_grad_of_the_wrong_shape(self):
        params = make_params(((2, 3), (3,)))
        before = [p.data.copy() for p in params]
        optimizer = Adam(params)
        params[0].grad = np.ones(3)
        params[1].grad = np.ones(3)
        with pytest.raises(ValueError, match=r"gradient 0 has shape \(3,\)"):
            optimizer.step()
        assert optimizer.state_dict()["t"] == 0
        for p, original in zip(params, before):
            np.testing.assert_array_equal(p.data, original)

    def test_generator_input_is_counted_correctly(self):
        optimizer = Adam(make_params(), lr=0.1)
        with pytest.raises(ValueError, match="refusing a partial update"):
            optimizer.apply_gradients(np.zeros((3, 2)) for _ in range(1))

    def test_matching_gradients_apply(self):
        params = make_params()
        before = [p.data.copy() for p in params]
        optimizer = Adam(params, lr=1.0)
        optimizer.apply_gradients([np.ones(p.data.shape) for p in params])
        for p, view, original in zip(params, optimizer.grad_views, before):
            assert np.all(view == 1.0)
            # Adam's first step is lr * g / (|g| + eps).
            np.testing.assert_array_equal(p.data, original - 1.0 / (1.0 + 1e-8))


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
        assert not np.any(optimizer.state_dict()["m.0"] == 123.0)

    def test_load_rejects_wrong_shape(self):
        optimizer = Adam(make_params())
        state = optimizer.state_dict()
        state["m.1"] = np.zeros((5,))
        with pytest.raises(ValueError, match="shape"):
            optimizer.load_state_dict(state)


class TestArena:
    """Parameters live in one arena; values must be written in place."""

    def test_parameters_are_views_of_one_arena_in_order(self):
        params = make_params(((3, 2), (2,), (4,)))
        values = [p.data.copy() for p in params]
        optimizer = Adam(params, lr=0.1)
        arena = params[0].data.base
        assert arena is not None and all(p.data.base is arena for p in params)
        np.testing.assert_array_equal(arena, np.concatenate([v.ravel() for v in values]))
        assert arena.size == optimizer.flat_grad.size

    def test_in_place_writes_are_stepped(self):
        params = make_params()
        optimizer = Adam(params, lr=1.0)
        params[1].data[...] = 5.0
        optimizer.apply_gradients([np.zeros((3, 2)), np.ones(2)])
        np.testing.assert_array_equal(params[1].data, 5.0 - 1.0 / (1.0 + 1e-8))

    def test_a_rebound_parameter_is_refused(self):
        params = make_params()
        optimizer = Adam(params)
        params[0].data = params[0].data.copy()
        with pytest.raises(RuntimeError, match=r"parameter 0 \(shape \(3, 2\)\) was rebound"):
            optimizer.apply_gradients([np.ones((3, 2)), np.ones(2)])
        params[1].grad = np.ones(2)
        with pytest.raises(RuntimeError, match="rebound"):
            optimizer.step()

    def test_the_same_parameter_twice_is_refused(self):
        params = make_params()
        with pytest.raises(ValueError, match="more than once"):
            Adam([params[0], params[1], params[0]])

    def test_step_skips_parameters_without_a_gradient(self):
        params = make_params()
        before = [p.data.copy() for p in params]
        optimizer = Adam(params, lr=0.1)
        params[1].grad = np.ones(2)
        optimizer.step()
        np.testing.assert_array_equal(params[0].data, before[0])
        assert not np.array_equal(params[1].data, before[1])
        state = optimizer.state_dict()
        assert int(state["t"]) == 1 and not state["m.0"].any() and state["m.1"].all()
