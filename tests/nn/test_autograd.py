"""Numerical gradient checks and behavioural tests for the autograd engine."""

import numpy as np
import pytest

from repro.nn import Tensor, grad_sample_mode, no_grad
from repro.nn import functional as F


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference numerical gradient of scalar fn at ndarray x."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = fn(x)
        x[idx] = orig - eps
        f_minus = fn(x)
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_grad(op, x_data, atol=1e-5):
    """Compare autograd gradient of sum(op(x)) against numerical gradient."""
    x = Tensor(x_data.copy(), requires_grad=True)
    out = op(x).sum()
    out.backward()
    analytic = x.grad

    def scalar_fn(arr):
        return op(Tensor(arr)).sum().item()

    numeric = numerical_grad(scalar_fn, x_data.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


class TestElementwiseGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.x = self.rng.normal(size=(4, 5))

    def test_add(self):
        check_grad(lambda t: t + 3.0, self.x)

    def test_mul(self):
        check_grad(lambda t: t * 2.5, self.x)

    def test_sub(self):
        check_grad(lambda t: 1.0 - t, self.x)

    def test_div(self):
        check_grad(lambda t: t / 3.0, self.x)

    def test_pow(self):
        check_grad(lambda t: t**3, self.x)

    def test_exp(self):
        check_grad(lambda t: t.exp(), self.x)

    def test_log(self):
        check_grad(lambda t: t.log(), np.abs(self.x) + 0.5)

    def test_sigmoid(self):
        check_grad(lambda t: t.sigmoid(), self.x)

    def test_relu(self):
        # Shift away from 0 to avoid the kink in numerical differentiation.
        check_grad(lambda t: t.relu(), self.x + 0.3 * np.sign(self.x))

    def test_neg(self):
        check_grad(lambda t: -t, self.x)

    def test_clip(self):
        check_grad(lambda t: t.clip(-0.5, 0.5), self.x + 0.05)


class TestReductionsAndShapes:
    def setup_method(self):
        self.rng = np.random.default_rng(1)
        self.x = self.rng.normal(size=(3, 4))

    def test_sum_axis(self):
        check_grad(lambda t: t.sum(axis=0), self.x)
        check_grad(lambda t: t.sum(axis=1), self.x)

    def test_mean(self):
        check_grad(lambda t: t.mean(axis=1), self.x)

    def test_reshape(self):
        check_grad(lambda t: t.reshape(4, 3) * 2.0, self.x)

    def test_getitem(self):
        check_grad(lambda t: t[1:, :2] * 3.0, self.x)

    def test_concatenate(self):
        a = Tensor(self.x, requires_grad=True)
        b = Tensor(self.x * 2, requires_grad=True)
        out = Tensor.concatenate([a, b], axis=1).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.ones_like(self.x))
        np.testing.assert_allclose(b.grad, np.ones_like(self.x))


class TestBroadcast:
    def test_broadcast_add(self):
        x = Tensor(np.ones((5, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = (x + b).sum()
        out.backward()
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, np.full(3, 5.0))

    def test_broadcast_mul_keepdim(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        s = Tensor(np.full((1, 3), 2.0), requires_grad=True)
        out = (x * s).sum()
        out.backward()
        assert s.grad.shape == (1, 3)
        np.testing.assert_allclose(s.grad, np.full((1, 3), 4.0))


class TestGraphBehaviour:
    def test_grad_accumulates_over_multiple_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_no_grad_disables_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_backward_requires_grad(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_diamond_graph(self):
        # f = (x*2) + (x*3); df/dx = 5
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0, 5.0])

    def test_shared_incoming_gradient_is_never_written_in_place(self):
        # d = (a + b) + a: a's first gradient, (a + b)'s and b's are one
        # array, the root gradient d received.  Accumulating a's second
        # gradient must leave b's, and the caller's root array, unchanged.
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        root = np.array([1.0, 10.0])
        ((a + b) + a).backward(root)
        np.testing.assert_array_equal(a.grad, [2.0, 20.0])
        np.testing.assert_array_equal(b.grad, [1.0, 10.0])
        np.testing.assert_array_equal(root, [1.0, 10.0])


class TestAffinePerExampleGradients:
    def test_grad_sample_matches_loop(self):
        rng = np.random.default_rng(3)
        B, din, dout = 6, 4, 3
        X = rng.normal(size=(B, din))
        W = rng.normal(size=(din, dout))
        bvec = rng.normal(size=dout)

        w = Tensor(W, requires_grad=True)
        b = Tensor(bvec, requires_grad=True)
        x = Tensor(X)
        with grad_sample_mode():
            out = x.affine(w, b)
            loss = (out**2).sum()
            loss.backward()

        assert w.grad_sample.shape == (B, din, dout)
        assert b.grad_sample.shape == (B, dout)

        # Per-example gradients must match a per-example loop.
        for i in range(B):
            wi = Tensor(W, requires_grad=True)
            bi = Tensor(bvec, requires_grad=True)
            xi = Tensor(X[i : i + 1])
            (xi.affine(wi, bi) ** 2).sum().backward()
            np.testing.assert_allclose(w.grad_sample[i], wi.grad, atol=1e-10)
            np.testing.assert_allclose(b.grad_sample[i], bi.grad, atol=1e-10)

        # The per-example gradients sum to the aggregate gradient of a plain
        # backward on the same inputs (grad-sample mode does not form .grad).
        assert w.grad is None and b.grad is None
        w_plain = Tensor(W, requires_grad=True)
        b_plain = Tensor(bvec, requires_grad=True)
        (Tensor(X).affine(w_plain, b_plain) ** 2).sum().backward()
        np.testing.assert_allclose(w_plain.grad, w.grad_sample.sum(axis=0), atol=1e-10)
        np.testing.assert_allclose(b_plain.grad, b.grad_sample.sum(axis=0), atol=1e-10)

    def test_grad_sample_disabled_by_default(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        x = Tensor(np.ones((3, 2)))
        x.affine(w, Tensor(np.zeros(2))).sum().backward()
        assert w.grad_sample is None


class TestFactoredGradSample:
    """The lazy (factored) per-example gradient API used by the fused DP step."""

    def _backward(self, seed=5, B=7, din=4, dout=3):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=(din, dout)), requires_grad=True)
        b = Tensor(rng.normal(size=dout), requires_grad=True)
        x = Tensor(rng.normal(size=(B, din)))
        with grad_sample_mode():
            (x.affine(w, b) ** 2).sum().backward()
        return w, b

    def test_sq_norms_match_dense_without_materialising(self):
        w, b = self._backward()
        for p in (w, b):
            fast = p.grad_sample_sq_norms()
            assert p._grad_sample is None, "sq norms must not materialise the dense array"
            dense = p.grad_sample  # materialises
            expected = (dense.reshape(dense.shape[0], -1) ** 2).sum(axis=1)
            np.testing.assert_allclose(fast, expected, atol=1e-10)

    def test_clipped_grad_sum_matches_dense(self):
        w, b = self._backward()
        scale = np.random.default_rng(0).uniform(0.1, 1.0, size=7)
        for p in (w, b):
            fast = p.clipped_grad_sum(scale, np.empty(p.shape))
            assert p._grad_sample is None
            expected = np.tensordot(scale, p.grad_sample, axes=(0, 0))
            np.testing.assert_allclose(fast, expected, atol=1e-10)

    def test_parameter_reuse_falls_back_to_dense(self):
        """A weight applied twice per step has two factors; norms of the summed
        per-example gradient are not separable, so the dense path must be used."""
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(np.zeros(3))
        x1 = Tensor(rng.normal(size=(5, 3)))
        x2 = Tensor(rng.normal(size=(5, 3)))
        with grad_sample_mode():
            (x1.affine(w, b).sum() + (x2.affine(w, b) ** 2).sum()).backward()
        assert len(w._gs_factors) == 2
        norms = w.grad_sample_sq_norms()
        dense = w.grad_sample
        expected = (dense.reshape(5, -1) ** 2).sum(axis=1)
        np.testing.assert_allclose(norms, expected, atol=1e-10)
        # The dense array must equal the sum of both contributions' einsums.
        manual = np.einsum("bi,bo->bio", x1.data, np.ones((5, 3)))
        assert dense.shape == (5, 3, 3)
        assert not np.allclose(dense, manual)  # second term contributes too

    def test_zero_grad_clears_factors(self):
        w, b = self._backward()
        assert w.has_grad_sample()
        w.zero_grad()
        assert not w.has_grad_sample()
        assert w.grad_sample is None
