"""First-order optimizers for the neural modules.

``Adam`` follows the textbook update rule; every model trains with it.
DP-SGD (the paper's optimizer for the decoding phase) is *not* here — it
lives in :mod:`repro.privacy.dp_sgd` because it needs per-example gradients
and a privacy accountant; it delegates the final descent step to ``Adam``.

Every optimizer packs its parameters into one contiguous float64 *arena*:
each ``Parameter.data`` becomes a reshaped view of a slice of it, in
parameter order.  The flat gradient (:attr:`Optimizer.flat_grad`) and Adam's
moments share that layout, so an update is a handful of in-place ufuncs over
:data:`BLOCK`-element stretches of the arena and a step allocates nothing the
size of the model.  Parameter values must therefore be written in place
(``p.data[...] = value``); an optimizer refuses to step a parameter whose
``data`` was rebound to another array.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK", "Optimizer", "Adam"]

#: Elements per in-place update block: 256 KiB of float64, so the few
#: buffers one block of an update touches stay in cache together.
BLOCK = 32768

#: Adam's moment decay rates and denominator offset (Kingma & Ba's values).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Optimizer:
    """Base optimizer: owns the parameter arena and the flat gradient.

    A subclass implements ``_update(index, grad)``, the in-place update of the
    arena stretch ``index`` (a slice of at most :data:`BLOCK` elements) from
    the matching flat gradient ``grad``, and ``state_dict``/``load_state_dict``
    over the buffers a training checkpoint keeps.
    """

    def __init__(self, params):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("optimizer received the same parameter more than once")
        bounds = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self._spans = list(zip(bounds[:-1], bounds[1:]))
        self._values = np.empty(bounds[-1])
        #: The flat gradient the next :meth:`apply_gradients` applies, laid
        #: out like the arena; :attr:`grad_views` are its per-parameter views.
        self.flat_grad = np.zeros(bounds[-1])
        self.grad_views = []
        self._views = []
        for p, (lo, hi) in zip(self.params, self._spans):
            view = self._values[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._views.append(view)
            self.grad_views.append(self.flat_grad[lo:hi].reshape(view.shape))
        self._work = np.empty(min(BLOCK, bounds[-1]))

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def check_arena(self) -> None:
        """Raise unless every parameter's ``data`` is still its arena view."""
        for index, (p, view) in enumerate(zip(self.params, self._views)):
            if p.data is not view:
                raise RuntimeError(
                    f"parameter {index} (shape {view.shape}) was rebound out of the "
                    f"{type(self).__name__} arena; write new values in place "
                    "(p.data[...] = value) instead"
                )

    def step(self) -> None:
        """Update every parameter from its ``.grad``; one without is left alone."""
        present = [i for i, p in enumerate(self.params) if p.grad is not None]
        grads = self._checked([self.params[i].grad for i in present], present)
        self.check_arena()
        self._apply((*self._spans[i], grad.ravel()) for i, grad in zip(present, grads))

    def apply_gradients(self, grads) -> None:
        """Apply externally computed gradients (used by DP-SGD).

        The gradients are copied into :attr:`flat_grad` — DP-SGD writes there
        directly and passes :attr:`grad_views`, which need no copy — and one
        update runs over the whole arena.  Nothing is written unless there is
        one gradient per parameter, each of that parameter's shape.
        """
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ValueError(
                f"apply_gradients received {len(grads)} gradients for "
                f"{len(self.params)} parameters; refusing a partial update"
            )
        grads = self._checked(grads, range(len(grads)))
        self.check_arena()
        for grad, view in zip(grads, self.grad_views):
            if grad is not view:
                view[...] = grad
        self._apply([(0, self.flat_grad.size, self.flat_grad)])

    def _checked(self, grads, indices) -> list:
        """``grads`` as float64 arrays, after checking each against its parameter's shape."""
        grads = [np.asarray(grad, dtype=np.float64) for grad in grads]
        for index, grad in zip(indices, grads):
            expected = self._views[index].shape
            if grad.shape != expected:
                raise ValueError(
                    f"gradient {index} has shape {grad.shape}, parameter {index} "
                    f"has shape {expected}"
                )
        return grads

    def _apply(self, runs) -> None:
        """Run ``_update`` block by block over ``(lo, hi, flat gradient)`` runs."""
        for lo, hi, grad in runs:
            for start in range(lo, hi, BLOCK):
                stop = min(start + BLOCK, hi)
                self._update(slice(start, stop), grad[start - lo : stop - lo])

    def _update(self, index: slice, grad: np.ndarray) -> None:
        raise NotImplementedError

    def _check_buffer(self, key: str, value, param_index: int) -> np.ndarray:
        """Validate one restored per-parameter buffer against the live shape."""
        value = np.asarray(value, dtype=np.float64)
        expected = self._views[param_index].shape
        if value.shape != expected:
            raise ValueError(
                f"optimizer state {key!r} has shape {value.shape}, parameter "
                f"{param_index} expects {expected}"
            )
        return value


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015), updating its arena in place.

    The first and second moments are flat arrays laid out like the parameter
    arena; each block goes through the textbook update's operations in the
    textbook order, so the result is bit-identical to the out-of-place
    per-parameter form.  The decay rates and offset are :data:`BETA1`,
    :data:`BETA2` and :data:`EPS`.  Checkpoints keep one ``m.{i}``/``v.{i}``
    entry per parameter.
    """

    def __init__(self, params, lr: float = 0.001):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        super().__init__(params)
        self.lr = lr
        self._m = np.zeros_like(self._values)
        self._v = np.zeros_like(self._values)
        self._work2 = np.empty_like(self._work)
        self._t = 0

    def _apply(self, runs) -> None:
        self._t += 1
        super()._apply(runs)

    def _update(self, index: slice, grad: np.ndarray) -> None:
        n = len(grad)
        m, v, w = self._m[index], self._v[index], self._values[index]
        a, b = self._work[:n], self._work2[:n]
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(m, BETA1, out=m)
        np.multiply(grad, 1 - BETA1, out=a)
        np.add(m, a, out=m)
        # v = beta2 * v + (1 - beta2) * g**2
        np.multiply(v, BETA2, out=v)
        np.square(grad, out=a)
        np.multiply(a, 1 - BETA2, out=a)
        np.add(v, a, out=v)
        # w = w - lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
        np.divide(m, 1 - BETA1**self._t, out=a)
        np.multiply(a, self.lr, out=a)
        np.divide(v, 1 - BETA2**self._t, out=b)
        np.sqrt(b, out=b)
        np.add(b, EPS, out=b)
        np.divide(a, b, out=a)
        np.subtract(w, a, out=w)

    def state_dict(self) -> dict:
        state = {"t": np.asarray(self._t)}
        for i, ((lo, hi), view) in enumerate(zip(self._spans, self._views)):
            state[f"m.{i}"] = self._m[lo:hi].reshape(view.shape).copy()
            state[f"v.{i}"] = self._v[lo:hi].reshape(view.shape).copy()
        return state

    def load_state_dict(self, state: dict) -> "Adam":
        expected = {"t"}
        for i in range(len(self.params)):
            expected.add(f"m.{i}")
            expected.add(f"v.{i}")
        if set(state) != expected:
            raise ValueError(
                f"Adam state mismatch: checkpoint has {sorted(state)}, "
                f"this optimizer expects {sorted(expected)}"
            )
        buffers = [
            (self._check_buffer(f"m.{i}", state[f"m.{i}"], i),
             self._check_buffer(f"v.{i}", state[f"v.{i}"], i))
            for i in range(len(self.params))
        ]
        self._t = int(state["t"])
        for (lo, hi), (m, v) in zip(self._spans, buffers):
            self._m[lo:hi] = m.ravel()
            self._v[lo:hi] = v.ravel()
        return self
