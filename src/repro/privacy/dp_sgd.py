"""Differentially private stochastic gradient descent (Abadi et al., 2016).

The optimizer consumes the per-example gradients captured by
:func:`repro.nn.grad_sample_mode`, clips each example's full gradient to L2
norm ``max_grad_norm`` (the paper's ``psi_C``), sums the clipped gradients,
adds Gaussian noise ``N(0, sigma^2 C^2 I)`` and averages over the (expected)
batch size, then delegates the descent step to a wrapped base optimizer
(the models wrap Adam).

A :class:`DPSGD` instance counts the noisy steps it has taken; it does no
accounting of its own.  The privacy a fit spends is the model's Theorem-4
:class:`~repro.privacy.accounting.P3GMAccountant` (``accountant_``), which
analyses every step of the run, noise-only steps included.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.optim import BLOCK, Optimizer
from repro.privacy.clipping import per_example_scale_factors
from repro.utils.rng import as_generator, dump_generator_state, restore_generator_state
from repro.utils.validation import check_positive

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
    base_optimizer:
        The :class:`repro.nn.Optimizer` that takes the final step.  Its
        ``params`` must be ``params``, the same objects in the same order:
        each clipped sum is written into that parameter's slice of the base
        optimizer's flat gradient.
    """

    def __init__(
        self,
        params,
        noise_multiplier: float,
        max_grad_norm: float,
        expected_batch_size: int,
        *,
        base_optimizer: Optimizer,
        rng=None,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("DPSGD received an empty parameter list")
        base_params = base_optimizer.params
        if len(base_params) != len(self.params) or any(
            p is not q for p, q in zip(self.params, base_params)
        ):
            raise ValueError(
                "DPSGD params must be base_optimizer.params, the same parameter "
                "objects in the same order"
            )
        check_positive(noise_multiplier, "noise_multiplier")
        check_positive(max_grad_norm, "max_grad_norm")
        check_positive(expected_batch_size, "expected_batch_size")
        self.noise_multiplier = noise_multiplier
        self.max_grad_norm = max_grad_norm
        self.expected_batch_size = int(expected_batch_size)
        self.base_optimizer = base_optimizer
        self._rng = as_generator(rng)
        self._noise = np.empty(min(BLOCK, base_optimizer.flat_grad.size))
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

        The clip→sum→noise→scale pipeline runs on the base optimizer's flat
        gradient: per-example clipping norms are computed over the
        concatenation of all parameters (from the factored per-example
        gradients when available, so the dense ``(batch, *param_shape)``
        arrays are never materialised), each parameter's clipped sum is one
        contraction written straight into its slice of the flat gradient,
        and the Gaussian noise is drawn, added and averaged in place over
        fixed blocks of that one vector (see :meth:`_release`).
        """
        self.base_optimizer.check_arena()
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
        for p, out in zip(self.params, self.base_optimizer.grad_views):
            p.clipped_grad_sum(scale, out=out)
        norms = np.sqrt(squared_norms)
        self.last_grad_norm = float(norms.mean())
        self.last_clip_fraction = float(np.mean(norms > self.max_grad_norm))
        self._release()

    def noise_step(self) -> None:
        """The step of an empty Poisson draw: Gaussian noise alone.

        The accountant analyses a noisy release at every step, so a draw with
        no examples still adds ``N(0, sigma^2 C^2 I)`` to its (zero) clipped
        sum, divides by the expected batch size, applies the result through
        the base optimizer, and counts as a step taken.
        """
        self.base_optimizer.check_arena()
        self.last_grad_norm = self.last_clip_fraction = None
        self.base_optimizer.flat_grad.fill(0.0)
        self._release()

    def _release(self) -> None:
        """Noise the clipped sum in the base optimizer's flat gradient, average it, apply it.

        Block by block, in place: draw ``z``, form ``sigma * C * z + 0.0`` —
        the operations ``Generator.normal(0.0, sigma * C)`` applies to each
        draw, so the stream and every bit (the sign of zero included) match
        one full-size ``normal`` call — add it to the sum and divide by the
        expected batch size.
        """
        grad = self.base_optimizer.flat_grad
        std = self.noise_multiplier * self.max_grad_norm
        for start in range(0, grad.size, BLOCK):
            block = grad[start : start + BLOCK]
            noise = self._noise[: len(block)]
            self._rng.standard_normal(out=noise)
            np.multiply(noise, std, out=noise)
            np.add(noise, 0.0, out=noise)
            np.add(block, noise, out=block)
            np.divide(block, self.expected_batch_size, out=block)
        self.base_optimizer.apply_gradients(self.base_optimizer.grad_views)
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
