"""Property-based gradient checks for the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Tensor
from tests.nn.test_autograd import numerical_grad

small_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)
matrices = arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4)), elements=small_floats)


class TestAutogradProperties:
    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_composite_expression_gradient_matches_numerical(self, x_data):
        def expression(t):
            return ((t * 2.0 + 1.0).sigmoid() * t.exp()).sum()

        x = Tensor(x_data.copy(), requires_grad=True)
        expression(x).backward()
        numeric = numerical_grad(lambda a: expression(Tensor(a)).item(), x_data.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5, rtol=1e-4)

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_sum_of_parts_equals_whole(self, x_data):
        x = Tensor(x_data)
        total = x.sum().item()
        by_axis = x.sum(axis=0).sum().item()
        assert np.isclose(total, by_axis)

    @given(matrices, matrices)
    @settings(max_examples=40, deadline=None)
    def test_addition_gradient_is_ones(self, a_data, b_data):
        rows = min(len(a_data), len(b_data))
        cols = min(a_data.shape[1], b_data.shape[1])
        a = Tensor(a_data[:rows, :cols].copy(), requires_grad=True)
        b = Tensor(b_data[:rows, :cols].copy(), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((rows, cols)))
        np.testing.assert_allclose(b.grad, np.ones((rows, cols)))

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_sigmoid_output_in_unit_interval(self, x_data):
        out = Tensor(x_data).sigmoid().data
        assert np.all((out > 0) & (out < 1))
