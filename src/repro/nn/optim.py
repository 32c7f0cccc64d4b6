"""First-order optimizers for the neural modules.

``SGD`` and ``Adam`` follow the textbook update rules.  DP-SGD (the paper's
optimizer for the decoding phase) is *not* here — it lives in
:mod:`repro.privacy.dp_sgd` because it needs per-example gradients and a
privacy accountant; it delegates the final descent step to these optimizers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, params):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def apply_gradients(self, grads) -> None:
        """Apply externally computed gradients (used by DP-SGD)."""
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ValueError(
                f"apply_gradients received {len(grads)} gradients for "
                f"{len(self.params)} parameters; refusing a partial update"
            )
        for p, g in zip(self.params, grads):
            p.grad = np.asarray(g, dtype=np.float64)
        self.step()

    def state_dict(self) -> dict:
        """The optimizer's mutable buffers as plain numpy arrays.

        Stateless optimizers return ``{}``; subclasses with moment buffers
        override this (and :meth:`load_state_dict`) so a training
        checkpoint can resume bit-identically.
        """
        return {}

    def load_state_dict(self, state: dict) -> "Optimizer":
        if state:
            raise ValueError(
                f"{type(self).__name__} is stateless but the checkpoint "
                f"carries optimizer entries: {sorted(state)}"
            )
        return self

    def _check_buffer(self, key: str, value, param_index: int) -> np.ndarray:
        """Validate one restored per-parameter buffer against the live shape."""
        value = np.asarray(value, dtype=np.float64)
        expected = self.params[param_index].data.shape
        if value.shape != expected:
            raise ValueError(
                f"optimizer state {key!r} has shape {value.shape}, parameter "
                f"{param_index} expects {expected}"
            )
        return value


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def __init__(self, params, lr: float = 0.01):
        super().__init__(params)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                continue
            p.data = p.data - self.lr * p.grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        params,
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad**2
            m_hat = self._m[i] / (1 - self.beta1**self._t)
            v_hat = self._v[i] / (1 - self.beta2**self._t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        state = {"t": np.asarray(self._t)}
        for i in range(len(self.params)):
            state[f"m.{i}"] = self._m[i].copy()
            state[f"v.{i}"] = self._v[i].copy()
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
        self._t = int(state["t"])
        self._m = [
            self._check_buffer(f"m.{i}", state[f"m.{i}"], i) for i in range(len(self.params))
        ]
        self._v = [
            self._check_buffer(f"v.{i}", state[f"v.{i}"], i) for i in range(len(self.params))
        ]
        return self
