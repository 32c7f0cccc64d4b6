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

from repro.engine import (
    EpochHook,
    HistoryLogger,
    MetricsCallback,
    PrivacyBudgetTracker,
    Trainer,
    make_sampler,
)
from repro.models.vae import VAE
from repro.nn import Adam
from repro.privacy.accounting import P3GMAccountant
from repro.privacy.dp_sgd import DPSGD
from repro.utils.validation import check_positive, check_probability

__all__ = ["DPVAE"]


class DPVAE(VAE):
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
        decoder_type: str = "bernoulli",
        epsilon: float = 1.0,
        delta: float = 1e-5,
        noise_multiplier: Optional[float] = None,
        max_grad_norm: float = 1.0,
        label_repeat: int = 10,
        sampler: str = "poisson",
        random_state=None,
    ):
        super().__init__(
            latent_dim=latent_dim,
            hidden=hidden,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            decoder_type=decoder_type,
            label_repeat=label_repeat,
            sampler=sampler,
            random_state=random_state,
        )
        check_positive(epsilon, "epsilon")
        check_probability(delta, "delta")
        check_positive(max_grad_norm, "max_grad_norm")
        if noise_multiplier is not None:
            check_positive(noise_multiplier, "noise_multiplier")
        self.epsilon = epsilon
        self.delta = delta
        self.noise_multiplier = noise_multiplier
        self.max_grad_norm = max_grad_norm
        self.accountant_: Optional[P3GMAccountant] = None
        self._fitted_epsilon: Optional[float] = None
        self._dp_optimizer: Optional[DPSGD] = None

    def _make_optimizer(self, n_samples: int) -> DPSGD:
        batch_size = min(self.batch_size, n_samples)
        sample_rate = batch_size / n_samples
        steps = self.epochs * int(np.ceil(n_samples / batch_size))

        accountant = P3GMAccountant(
            epsilon_pca=0.0, em_iterations=0, sample_rate=sample_rate, sgd_steps=steps
        )
        sigma = self.noise_multiplier
        if sigma is None:
            sigma = accountant.calibrate_sigma_sgd(self.epsilon, self.delta)
        self.accountant_ = replace(accountant, sigma_sgd=sigma)
        self._fitted_epsilon = self.accountant_.epsilon(self.delta)

        params = list(self._parameters())
        optimizer = DPSGD(
            params,
            noise_multiplier=sigma,
            max_grad_norm=self.max_grad_norm,
            expected_batch_size=batch_size,
            sample_rate=sample_rate,
            base_optimizer=Adam(params, lr=self.learning_rate),
            rng=self._rng,
        )
        self._dp_optimizer = optimizer
        return optimizer

    def _make_trainer(self, optimizer, n_samples: int) -> Trainer:
        return Trainer(
            self,
            optimizer,
            make_sampler(self.sampler, n_samples, self.batch_size),
            callbacks=[
                PrivacyBudgetTracker(self.accountant_, self.delta),
                MetricsCallback(),
                HistoryLogger(),
                EpochHook(),
                *self._engine_callbacks(),
            ],
            private=True,
            rng=self._rng,
        )

    def privacy_spent(self) -> tuple:
        if self._fitted_epsilon is None:
            return (0.0, 0.0)
        return (self._fitted_epsilon, self.delta)

    # -- persistence -------------------------------------------------------------------------

    def get_config(self) -> dict:
        config = super().get_config()
        config.update(
            epsilon=self.epsilon,
            delta=self.delta,
            noise_multiplier=self.noise_multiplier,
            max_grad_norm=self.max_grad_norm,
        )
        return config

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["fitted_epsilon"] = np.asarray(self._fitted_epsilon)
        return state

    def load_state_dict(self, state: dict) -> "DPVAE":
        super().load_state_dict(state)
        self._fitted_epsilon = float(state["fitted_epsilon"])
        return self
