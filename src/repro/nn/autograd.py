"""A small reverse-mode automatic differentiation engine over numpy arrays.

This module is the substrate on which every neural model in the library is
built (the paper's implementation uses PyTorch; this is the from-scratch
equivalent).  It provides a :class:`Tensor` wrapping an ``np.ndarray`` with a
dynamically built computation graph, full broadcasting support, and a
per-example gradient mode (``grad_sample``) required by DP-SGD's per-example
clipping (see :mod:`repro.privacy.dp_sgd`).

Only the operations the models run are implemented, and
``tests/nn/test_op_inventory.py`` fails when the models stop reaching one.
Each supports arbitrary batch shapes and broadcasting, and each is covered by
numerical gradient checks in ``tests/nn/test_autograd.py``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "grad_sample_mode",
    "is_grad_sample_enabled",
]

# ---------------------------------------------------------------------------
# Global modes
# ---------------------------------------------------------------------------

# Per-thread, like torch's inference modes: the HTTP serving tier runs
# concurrent model.sample() calls under no_grad() from many threads, and a
# process-wide flag would let one request's exit re-enable (or keep disabled)
# graph construction underneath another thread mid-forward.
_MODES = threading.local()


def is_grad_enabled() -> bool:
    """Return whether gradient graph construction is enabled (in this thread)."""
    return getattr(_MODES, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode).

    The mode is thread-local: entering ``no_grad()`` in one thread never
    affects a forward pass running concurrently in another.
    """
    previous = is_grad_enabled()
    _MODES.grad_enabled = False
    try:
        yield
    finally:
        _MODES.grad_enabled = previous


def is_grad_sample_enabled() -> bool:
    """Return whether per-example gradients are being recorded (in this thread)."""
    return getattr(_MODES, "grad_sample_enabled", False)


@contextlib.contextmanager
def grad_sample_mode():
    """Context manager enabling per-example gradient capture.

    Inside this context, parameter-consuming operations (``Tensor.affine``)
    record ``param.grad_sample``, a per-example gradient of shape
    ``(batch, *param.shape)`` kept in factored form, *instead of* the summed
    ``param.grad``: DP-SGD clips and sums the per-example terms itself and
    never reads the batch sum, so the backward pass does not form it.
    Gradients flowing to the inputs are unchanged.  The loss being
    differentiated must be a sum over independent per-example terms for the
    captured values to be the true per-example gradients (standard assumption
    of DP-SGD; the models in this library never mix examples inside a batch).
    Like :func:`no_grad`, the mode is thread-local.
    """
    previous = is_grad_sample_enabled()
    _MODES.grad_sample_enabled = True
    try:
        yield
    finally:
        _MODES.grad_sample_enabled = previous


# ---------------------------------------------------------------------------
# Broadcasting helper
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to reverse numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = (
        "data",
        "grad",
        "_grad_sample",
        "_gs_factors",
        "requires_grad",
        "_backward",
        "_prev",
    )

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._grad_sample: Optional[np.ndarray] = None
        self._gs_factors: Optional[list] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: tuple = ()

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying data (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        """Clear accumulated gradients (both aggregate and per-example)."""
        self.grad = None
        self._grad_sample = None
        self._gs_factors = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- per-example gradients (lazy / factored) ------------------------------

    # ``affine`` records per-example gradients in *factored* form — the weight
    # gradient of example ``b`` is ``outer(x_b, g_b)``, so storing ``(x, g)``
    # costs O(batch * (in + out)) instead of O(batch * in * out).  The dense
    # ``(batch, *param_shape)`` array is only materialised when ``grad_sample``
    # is read; the fused DP-SGD step never reads it, computing clipping norms
    # and clipped sums directly from the factors.

    @property
    def grad_sample(self) -> Optional[np.ndarray]:
        """Dense per-example gradient ``(batch, *shape)``; materialised lazily."""
        if self._grad_sample is None and self._gs_factors:
            self._grad_sample = self._materialize_grad_sample()
            self._gs_factors = None
        return self._grad_sample

    @grad_sample.setter
    def grad_sample(self, value) -> None:
        self._grad_sample = value
        self._gs_factors = None

    def _materialize_grad_sample(self) -> np.ndarray:
        total = None
        for factor in self._gs_factors:
            if factor[0] == "outer":
                _, x, g = factor
                piece = np.einsum("bi,bo->bio", x, g)
            else:
                piece = factor[1].copy()
            total = piece if total is None else total + piece
        return total

    def _add_grad_sample_outer(self, x: np.ndarray, grad: np.ndarray) -> None:
        if self._grad_sample is not None:
            self._grad_sample = self._grad_sample + np.einsum("bi,bo->bio", x, grad)
            return
        if self._gs_factors is None:
            self._gs_factors = []
        self._gs_factors.append(("outer", x, grad))

    def _add_grad_sample_direct(self, grad: np.ndarray) -> None:
        if self._grad_sample is not None:
            self._grad_sample = self._grad_sample + grad
            return
        if self._gs_factors is None:
            self._gs_factors = []
        self._gs_factors.append(("direct", grad))

    def has_grad_sample(self) -> bool:
        """Whether a per-example gradient (dense or factored) is recorded."""
        return self._grad_sample is not None or bool(self._gs_factors)

    def grad_sample_sq_norms(self) -> Optional[np.ndarray]:
        """Per-example squared L2 norms of ``grad_sample``, shape ``(batch,)``.

        For a single factored contribution this avoids materialising the dense
        array: ``||outer(x_b, g_b)||_F^2 = ||x_b||^2 * ||g_b||^2``.
        """
        if self._grad_sample is None and self._gs_factors and len(self._gs_factors) == 1:
            factor = self._gs_factors[0]
            if factor[0] == "outer":
                _, x, g = factor
                return (x**2).sum(axis=1) * (g**2).sum(axis=1)
            g = factor[1]
            return (g.reshape(len(g), -1) ** 2).sum(axis=1)
        gs = self.grad_sample
        if gs is None:
            return None
        return (gs.reshape(gs.shape[0], -1) ** 2).sum(axis=1)

    def clipped_grad_sum(self, scale: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``sum_b scale[b] * grad_sample[b]`` without materialising, if factored.

        For the outer-product factorisation the scaled sum collapses to a
        single matrix product: ``(x * scale[:, None]).T @ g``.  The sum is
        written into ``out``, an array of the parameter's shape (DP-SGD
        passes the parameter's slice of its optimizer's flat gradient), and
        returned.
        """
        if self._grad_sample is None and self._gs_factors and len(self._gs_factors) == 1:
            factor = self._gs_factors[0]
            if factor[0] == "outer":
                _, x, g = factor
                return np.matmul((x * scale[:, None]).T, g, out=out)
            # np.tensordot(scale, g, axes=(0, 0)) is this one (1, B) @ (B, size)
            # product; calling it directly lets it write into ``out``.
            g = factor[1]
            np.dot(scale.reshape(1, -1), g.reshape(len(g), -1), out=out.reshape(1, -1))
            return out
        out[...] = np.tensordot(scale, self.grad_sample, axes=(0, 0))
        return out

    # -- graph construction helpers ------------------------------------------

    @staticmethod
    def _promote(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make(self, data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._prev = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # Stored without a copy: no backward writes into a gradient, and a
        # second one is added out of place, so nodes sharing an array stay apart.
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._promote(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other):
        other = self._promote(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(-grad)

        return self._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other):
        return self._promote(other) - self

    def __mul__(self, other):
        other = self._promote(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._promote(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return self._make(self.data / other.data, (self, other), backward)

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(self.data**exponent, (self,), backward)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500)))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self):
        mask = self.data > 0

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward)

    def clip(self, low: float, high: float):
        """Clamp values to ``[low, high]``; gradient is passed only inside."""
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(np.clip(self.data, low, high), (self,), backward)

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape manipulation -----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(original))

        return self._make(self.data.reshape(shape), (self,), backward)

    def __getitem__(self, index):
        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make(self.data[index], (self,), backward)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [Tensor._promote(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(grad):
            pieces = np.split(np.asarray(grad), splits, axis=axis)
            for t, piece in zip(tensors, pieces):
                if t.requires_grad:
                    t._accumulate(piece)

        out = Tensor(data)
        if is_grad_enabled() and any(t.requires_grad for t in tensors):
            out.requires_grad = True
            out._prev = tuple(tensors)
            out._backward = backward
        return out

    # -- parameterised affine op (per-example gradient aware) -------------------

    def affine(self, weight: "Tensor", bias: "Tensor") -> "Tensor":
        """Compute ``self @ weight + bias`` with per-example gradient capture.

        ``self`` must be of shape ``(batch, in_features)``; ``weight`` of shape
        ``(in_features, out_features)``.  When :func:`grad_sample_mode` is
        active, ``weight.grad_sample`` and ``bias.grad_sample`` receive
        per-example gradients of shape ``(batch, in, out)`` and
        ``(batch, out)`` respectively — the hook DP-SGD uses for clipping —
        in place of the summed ``weight.grad`` and ``bias.grad``, which are
        then never formed.
        """
        if self.data.ndim != 2:
            raise ValueError("affine expects a 2-D (batch, features) input")
        x = self
        out_data = x.data @ weight.data + bias.data

        def backward(grad):
            grad = np.asarray(grad)
            per_example = is_grad_sample_enabled()
            if x.requires_grad:
                x._accumulate(grad @ weight.data.T)
            if weight.requires_grad:
                if per_example:
                    weight._add_grad_sample_outer(x.data, grad)
                else:
                    weight._accumulate(x.data.T @ grad)
            if bias.requires_grad:
                if per_example:
                    bias._add_grad_sample_direct(grad)
                else:
                    bias._accumulate(grad.sum(axis=0))

        return self._make(out_data, (x, weight, bias), backward)

    # -- backward pass -----------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones (appropriate for scalar losses); a given
        ``grad`` is copied, so the graph never shares the caller's array.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=np.float64)

        # Topological order of the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
