"""DP-VAE: the naive baseline — a VAE trained end to end with DP-SGD.

This is the model the paper calls "VAE with DP-SGD" (Table I, Figure 2c).
Its noise multiplier is either given explicitly or calibrated against a target
``(epsilon, delta)`` with the Theorem-4 accountant, DP-PCA and DP-EM switched
off.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.models.decoder import DPSGDMixin
from repro.models.vae import VAE
from repro.privacy.accounting import P3GMAccountant

__all__ = ["DPVAE"]


class DPVAE(DPSGDMixin, VAE):
    """VAE trained with DP-SGD (per-example clipping + Gaussian noise).

    Parameters
    ----------
    epsilon, delta:
        Target privacy guarantee; when ``noise_multiplier`` is None the noise
        is calibrated so the whole training run satisfies ``(epsilon, delta)``-DP.
    noise_multiplier:
        Explicit ``sigma_s``; overrides calibration when given.
    max_grad_norm:
        Per-example clipping bound ``C``.
    sampler:
        Defaults to ``"poisson"`` so the executed subsampling matches the
        mechanism the RDP accountant analyzes (see :mod:`repro.engine`);
        ``"shuffle"`` recovers the legacy shuffle-and-partition batching.
    """

    def __init__(
        self,
        latent_dim: int = 10,
        hidden: tuple = (1000,),
        epochs: int = 10,
        batch_size: int = 100,
        learning_rate: float = 1e-3,
        epsilon: float = 1.0,
        delta: float = 1e-5,
        noise_multiplier: Optional[float] = None,
        max_grad_norm: float = 1.0,
        sampler: str = "poisson",
        random_state=None,
    ):
        super().__init__(
            latent_dim=latent_dim,
            hidden=hidden,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            epsilon=epsilon,
            delta=delta,
            noise_multiplier=noise_multiplier,
            max_grad_norm=max_grad_norm,
            sampler=sampler,
            random_state=random_state,
        )

    def _build_accountant(self, n_samples: int, n_features: int) -> P3GMAccountant:
        _, sample_rate, steps = self._dp_sgd_schedule(n_samples)
        accountant = P3GMAccountant(
            epsilon_pca=0.0, em_iterations=0, sample_rate=sample_rate, sgd_steps=steps
        )
        sigma = self.noise_multiplier
        if sigma is None:
            sigma = accountant.calibrate_sigma_sgd(self.epsilon, self.delta)
        return replace(accountant, sigma_sgd=sigma)

    # -- persistence -------------------------------------------------------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["fitted_epsilon"] = np.asarray(self._fitted_epsilon)
        return state

    def load_state_dict(self, state: dict) -> "DPVAE":
        super().load_state_dict(state)
        self._fitted_epsilon = float(state["fitted_epsilon"])
        return self
