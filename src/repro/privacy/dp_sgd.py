"""Differentially private stochastic gradient descent (Abadi et al., 2016).

The optimizer consumes the per-example gradients captured by
:func:`repro.nn.grad_sample_mode`, clips each example's full gradient to L2
norm ``max_grad_norm`` (the paper's ``psi_C``), sums the clipped gradients,
adds Gaussian noise ``N(0, sigma^2 C^2 I)`` and averages over the (expected)
batch size, then delegates the descent step to a wrapped base optimizer
(plain SGD or Adam).

A :class:`DPSGD` instance also tracks the number of noisy steps it has taken so
callers can query the privacy spent through the RDP accountant.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.optim import Optimizer, SGD
from repro.privacy.accounting.calibration import dp_sgd_epsilon
from repro.privacy.clipping import per_example_scale_factors
from repro.utils.rng import as_generator, dump_generator_state, restore_generator_state
from repro.utils.validation import check_positive, check_probability

__all__ = ["DPSGD"]


class DPSGD:
    """Per-example clipping + Gaussian noise wrapper around a base optimizer.

    Parameters
    ----------
    params:
        Iterable of :class:`repro.nn.Parameter` being trained.
    noise_multiplier:
        ``sigma_s``; the Gaussian noise added to the summed clipped gradients
        has standard deviation ``noise_multiplier * max_grad_norm``.
    max_grad_norm:
        Clipping bound ``C``.
    expected_batch_size:
        ``B``; the noisy gradient sum is divided by this value, matching
        Algorithm 1 line 10 in the paper.
    sample_rate:
        Probability that any given record participates in a batch (``B/N``);
        used only for privacy accounting.
    base_optimizer:
        Optional :class:`repro.nn.Optimizer` taking the final step; defaults to
        plain SGD with learning rate ``lr``.
    """

    def __init__(
        self,
        params,
        noise_multiplier: float,
        max_grad_norm: float,
        expected_batch_size: int,
        sample_rate: Optional[float] = None,
        base_optimizer: Optional[Optimizer] = None,
        lr: float = 0.001,
        rng=None,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("DPSGD received an empty parameter list")
        check_positive(noise_multiplier, "noise_multiplier")
        check_positive(max_grad_norm, "max_grad_norm")
        check_positive(expected_batch_size, "expected_batch_size")
        if sample_rate is not None:
            check_probability(sample_rate, "sample_rate")
        self.noise_multiplier = noise_multiplier
        self.max_grad_norm = max_grad_norm
        self.expected_batch_size = int(expected_batch_size)
        self.sample_rate = sample_rate
        self.base_optimizer = base_optimizer or SGD(self.params, lr=lr)
        self._rng = as_generator(rng)
        self.steps_taken = 0
        #: Diagnostics of the most recent step (read by
        #: :class:`repro.engine.MetricsCallback`): the mean per-example
        #: gradient L2 norm before clipping, and the fraction of examples
        #: whose gradient the clip actually shortened.
        self.last_grad_norm: Optional[float] = None
        self.last_clip_fraction: Optional[float] = None

    # -- optimisation -------------------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Clip, noise, average, and apply one fused gradient step.

        Must be called after a backward pass executed inside
        ``with grad_sample_mode():`` so every parameter has ``grad_sample``.

        The clip→sum→noise→scale pipeline runs on the flattened full gradient:
        per-example clipping norms are computed over the concatenation of all
        parameters (from the factored per-example gradients when available, so
        the dense ``(batch, *param_shape)`` arrays are never materialised),
        the clipped per-example gradients are summed by a single contraction
        per parameter, and one Gaussian noise vector is drawn for the whole
        concatenated gradient before unflattening into parameter views.
        """
        squared_norms = None
        for index, p in enumerate(self.params):
            if not p.has_grad_sample():
                raise RuntimeError(
                    f"parameter {index} (shape {tuple(p.shape)}) has no per-example "
                    "gradient; run the backward pass inside repro.nn.grad_sample_mode()"
                )
            contribution = p.grad_sample_sq_norms()
            if squared_norms is None:
                squared_norms = contribution
            elif contribution.shape != squared_norms.shape:
                raise ValueError(
                    f"inconsistent batch dimension across grad samples: parameter "
                    f"{index} (shape {tuple(p.shape)}) saw a batch of "
                    f"{contribution.shape[0]}, expected {squared_norms.shape[0]}"
                )
            else:
                squared_norms = squared_norms + contribution

        scale = per_example_scale_factors(squared_norms, self.max_grad_norm)
        flat = np.concatenate([p.clipped_grad_sum(scale).ravel() for p in self.params])
        norms = np.sqrt(squared_norms)
        self.last_grad_norm = float(norms.mean())
        self.last_clip_fraction = float(np.mean(norms > self.max_grad_norm))
        self._release(flat)

    def noise_step(self) -> None:
        """The step of an empty Poisson draw: Gaussian noise alone.

        The accountant analyses a noisy release at every step, so a draw with
        no examples still adds ``N(0, sigma^2 C^2 I)`` to its (zero) clipped
        sum, divides by the expected batch size, applies the result through
        the base optimizer, and counts as a step taken.
        """
        self.last_grad_norm = self.last_clip_fraction = None
        self._release(np.zeros(sum(p.size for p in self.params)))

    def _release(self, flat: np.ndarray) -> None:
        """Noise a flat clipped-gradient sum, average it, and apply it."""
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
        self.zero_grad()

    # -- persistence ----------------------------------------------------------------

    def state_dict(self) -> dict:
        """Mutable training state: step count, base-optimizer buffers, noise RNG.

        The noise generator's bit-generator state rides along so a resumed run
        draws the *same* noise vectors the uninterrupted run would have — the
        checkpoint bit-identity contract depends on it.  Base-optimizer entries
        are prefixed with ``base.`` to keep the archive flat and npz-safe.
        """
        state = {
            "steps_taken": np.asarray(self.steps_taken),
            "rng_state": np.asarray(dump_generator_state(self._rng)),
        }
        for key, value in self.base_optimizer.state_dict().items():
            state[f"base.{key}"] = value
        return state

    def load_state_dict(self, state: dict) -> "DPSGD":
        for key in ("steps_taken", "rng_state"):
            if key not in state:
                raise ValueError(f"DPSGD state is missing required key {key!r}")
        base_state = {
            key[len("base."):]: value for key, value in state.items() if key.startswith("base.")
        }
        unknown = set(state) - {"steps_taken", "rng_state"} - {
            f"base.{key}" for key in base_state
        }
        if unknown:
            raise ValueError(f"DPSGD state carries unknown keys: {sorted(unknown)}")
        self.base_optimizer.load_state_dict(base_state)
        self.steps_taken = int(state["steps_taken"])
        restore_generator_state(self._rng, str(state["rng_state"]))
        return self

    # -- accounting -----------------------------------------------------------------

    def privacy_spent(self, delta: float, steps: Optional[int] = None) -> float:
        """Epsilon spent after ``steps`` (default: steps taken so far)."""
        if self.sample_rate is None:
            raise ValueError("sample_rate must be provided to account privacy")
        steps = self.steps_taken if steps is None else steps
        if steps == 0:
            return 0.0
        return dp_sgd_epsilon(self.noise_multiplier, self.sample_rate, steps, delta)
