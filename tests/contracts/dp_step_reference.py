"""The out-of-place DP-SGD step the in-place arena step must match bit for bit.

Before the flat parameter arena, one DP-SGD step (Abadi et al., 2016) was:
clip each parameter's factored per-example gradient into a fresh clipped sum,
concatenate the sums into one vector, add one ``Generator.normal(0, sigma*C)``
draw of that size, divide by the expected batch size, unflatten into
per-parameter views, and hand them to an Adam that rebinds every
``Parameter.data`` to a new array.  :mod:`repro.privacy.dp_sgd` and
:mod:`repro.nn.optim` now do the same arithmetic in place over one arena;
``test_dp_step_reference.py`` runs both beside each other and compares bytes.

The optimizers here write the same checkpoint keys as the library's
(``t``, ``m.{i}``, ``v.{i}``; DP-SGD's ``steps_taken``, ``rng_state`` and
``base.*``), so state written by one loads into the other.

:class:`SeedDPSGD` is older still: the seed's step, which materialised every
dense per-example gradient and clipped, summed and noised parameter by
parameter.  ``tests/privacy/test_dp_sgd.py`` times the fused step against it.
"""

import numpy as np

from repro.privacy import per_example_clip
from repro.privacy.clipping import per_example_scale_factors
from repro.utils.rng import as_generator, dump_generator_state, restore_generator_state


class ReferenceAdam:
    """Adam with one out-of-place moment pair per parameter."""

    def __init__(self, params, lr=0.001, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def apply_gradients(self, grads):
        for p, g in zip(self.params, grads):
            p.grad = np.asarray(g, dtype=np.float64)
        self.step()

    def step(self):
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

    def state_dict(self):
        state = {"t": np.asarray(self._t)}
        for i in range(len(self.params)):
            state[f"m.{i}"] = self._m[i].copy()
            state[f"v.{i}"] = self._v[i].copy()
        return state

    def load_state_dict(self, state):
        self._t = int(state["t"])
        self._m = [np.asarray(state[f"m.{i}"], dtype=np.float64) for i in range(len(self.params))]
        self._v = [np.asarray(state[f"v.{i}"], dtype=np.float64) for i in range(len(self.params))]
        return self


def reference_clipped_grad_sum(p, scale):
    """``sum_b scale[b] * grad_sample[b]`` into a new array, from the factors."""
    factors = p._gs_factors
    if p._grad_sample is None and factors and len(factors) == 1:
        if factors[0][0] == "outer":
            _, x, g = factors[0]
            return (x * scale[:, None]).T @ g
        return np.tensordot(scale, factors[0][1], axes=(0, 0))
    return np.tensordot(scale, p.grad_sample, axes=(0, 0))


class ReferenceDPSGD:
    """Clip, concatenate, noise, average, unflatten, then the base step."""

    def __init__(
        self, params, noise_multiplier, max_grad_norm, expected_batch_size, *, base_optimizer, rng
    ):
        self.params = list(params)
        self.noise_multiplier = noise_multiplier
        self.max_grad_norm = max_grad_norm
        self.expected_batch_size = int(expected_batch_size)
        self.base_optimizer = base_optimizer
        self._rng = as_generator(rng)
        self.steps_taken = 0

    def step(self):
        squared_norms = None
        for p in self.params:
            contribution = p.grad_sample_sq_norms()
            squared_norms = (
                contribution if squared_norms is None else squared_norms + contribution
            )
        scale = per_example_scale_factors(squared_norms, self.max_grad_norm)
        self._release(
            np.concatenate([reference_clipped_grad_sum(p, scale).ravel() for p in self.params])
        )

    def noise_step(self):
        self._release(np.zeros(sum(p.size for p in self.params)))

    def _release(self, flat):
        flat = flat + self._rng.normal(
            0.0, self.noise_multiplier * self.max_grad_norm, size=flat.shape
        )
        flat /= self.expected_batch_size
        private_grads, offset = [], 0
        for p in self.params:
            private_grads.append(flat[offset : offset + p.size].reshape(p.shape))
            offset += p.size
        self.base_optimizer.apply_gradients(private_grads)
        self.steps_taken += 1
        for p in self.params:
            p.zero_grad()

    def state_dict(self):
        state = {
            "steps_taken": np.asarray(self.steps_taken),
            "rng_state": np.asarray(dump_generator_state(self._rng)),
        }
        for key, value in self.base_optimizer.state_dict().items():
            state[f"base.{key}"] = value
        return state

    def load_state_dict(self, state):
        self.base_optimizer.load_state_dict(
            {key[len("base."):]: value for key, value in state.items() if key.startswith("base.")}
        )
        self.steps_taken = int(state["steps_taken"])
        restore_generator_state(self._rng, str(state["rng_state"]))
        return self


class SeedDPSGD:
    """The seed repo's DP-SGD step, kept verbatim as the benchmark baseline:
    dense per-example gradients, per-parameter clip/sum/noise loops."""

    def __init__(self, params, noise_multiplier, max_grad_norm, expected_batch_size, base_optimizer, rng):
        self.params = list(params)
        self.noise_multiplier = noise_multiplier
        self.max_grad_norm = max_grad_norm
        self.expected_batch_size = expected_batch_size
        self.base_optimizer = base_optimizer
        self._rng = as_generator(rng)

    def step(self):
        grad_samples = [p.grad_sample for p in self.params]  # materialises dense arrays
        clipped = per_example_clip(grad_samples, self.max_grad_norm)
        noise_std = self.noise_multiplier * self.max_grad_norm
        private_grads = []
        for g in clipped:
            summed = g.sum(axis=0)
            noisy = summed + self._rng.normal(0.0, noise_std, size=summed.shape)
            private_grads.append(noisy / self.expected_batch_size)
        self.base_optimizer.apply_gradients(private_grads)
        for p in self.params:
            p.zero_grad()
