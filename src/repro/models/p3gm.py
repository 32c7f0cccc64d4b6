"""P3GM — the privacy-preserving phased generative model (paper Section IV-D).

P3GM is :class:`repro.models.PGM` with every component replaced by its
differentially private counterpart, composed under RDP (Theorem 4):

- the dimensionality reduction is **DP-PCA** (Wishart mechanism, pure
  ``epsilon_pca``-DP),
- the latent prior is a mixture of Gaussians fitted by **DP-EM**
  (``em_iterations`` noisy M steps with scale ``sigma_em``),
- the decoding phase trains the decoder and the encoder variance head with
  **DP-SGD** (noise multiplier ``noise_multiplier``, per-example clipping).

Following the paper's experimental protocol, the caller specifies the target
``(epsilon, delta)`` together with the DP-SGD noise multiplier (Table IV), and
the DP-EM noise scale ``sigma_em`` is calibrated so that the Theorem-4
composition exactly meets the target.  Alternatively ``sigma_em`` may be given
and ``noise_multiplier`` calibrated instead.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.decomposition import DPPCA
from repro.mixture import DPGaussianMixture
from repro.models.decoder import DPSGDMixin
from repro.models.pgm import PGM
from repro.privacy.accounting import P3GMAccountant
from repro.utils.validation import check_positive

__all__ = ["P3GM"]


class P3GM(DPSGDMixin, PGM):
    """Privacy-preserving phased generative model.

    Parameters (in addition to :class:`repro.models.PGM`)
    ----------------------------------------------------
    epsilon, delta:
        Target differential-privacy guarantee of the whole pipeline.
    epsilon_pca:
        Pure-DP budget of the Wishart-mechanism PCA (0.1 in the paper).  Not
        consumed when the dimensionality reduction is skipped (data dimension
        <= ``latent_dim``, e.g. Kaggle Credit).
    noise_multiplier:
        DP-SGD noise multiplier ``sigma_s`` (Table IV).  If ``None`` it is
        calibrated from ``sigma_em``.
    sigma_em:
        DP-EM noise scale ``sigma_e``.  If ``None`` (default) it is calibrated
        so that the total budget equals ``epsilon``.
    max_grad_norm:
        DP-SGD clipping bound ``C``.
    sampler:
        Defaults to ``"poisson"`` so the executed subsampling matches the
        mechanism the RDP accountant analyzes (see :mod:`repro.engine`);
        ``"shuffle"`` recovers the legacy shuffle-and-partition batching.
    """

    def __init__(
        self,
        latent_dim: int = 10,
        n_mixture_components: int = 3,
        em_iterations: int = 20,
        hidden: tuple = (1000,),
        epochs: int = 10,
        batch_size: int = 100,
        learning_rate: float = 1e-3,
        variance_mode: str = "learned",
        epsilon: float = 1.0,
        delta: float = 1e-5,
        epsilon_pca: float = 0.1,
        noise_multiplier: Optional[float] = 1.5,
        sigma_em: Optional[float] = None,
        max_grad_norm: float = 1.0,
        clip_norm: float = 1.0,
        sampler: str = "poisson",
        random_state=None,
    ):
        super().__init__(
            latent_dim=latent_dim,
            n_mixture_components=n_mixture_components,
            em_iterations=em_iterations,
            hidden=hidden,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            variance_mode=variance_mode,
            epsilon=epsilon,
            delta=delta,
            noise_multiplier=noise_multiplier,
            max_grad_norm=max_grad_norm,
            sampler=sampler,
            random_state=random_state,
        )
        check_positive(epsilon_pca, "epsilon_pca")
        check_positive(clip_norm, "clip_norm")
        if noise_multiplier is None and sigma_em is None:
            raise ValueError("specify at least one of noise_multiplier or sigma_em")
        if sigma_em is not None:
            check_positive(sigma_em, "sigma_em")
        self.epsilon_pca = epsilon_pca
        self.sigma_em = sigma_em
        self.clip_norm = clip_norm

        self.noise_multiplier_: Optional[float] = None
        self.sigma_em_: Optional[float] = None

    # ------------------------------------------------------------------
    # Privacy configuration
    # ------------------------------------------------------------------

    def _build_accountant(self, n_samples: int, n_features: int) -> P3GMAccountant:
        """The Theorem-4 accountant, with the missing noise scale calibrated."""
        _, sample_rate, steps = self._dp_sgd_schedule(n_samples)
        uses_pca = self.latent_dim < n_features

        accountant = P3GMAccountant(
            epsilon_pca=self.epsilon_pca if uses_pca else 0.0,
            sigma_em=self.sigma_em if self.sigma_em is not None else 1.0,
            em_iterations=self.em_iterations,
            n_components=self.n_mixture_components,
            sigma_sgd=self.noise_multiplier if self.noise_multiplier is not None else 1.0,
            sample_rate=sample_rate,
            sgd_steps=steps,
        )

        if self.sigma_em is None:
            try:
                self.sigma_em_ = accountant.calibrate_sigma_em(self.epsilon, self.delta)
                self.noise_multiplier_ = self.noise_multiplier
            except ValueError:
                # The requested noise multiplier is too small for this data
                # size (DP-SGD alone would exceed the target).  Re-calibrate
                # sigma_s to consume ~90% of the budget and give DP-EM the rest,
                # so the model always honours the requested (epsilon, delta).
                self.noise_multiplier_ = replace(accountant, sigma_em=1e9).calibrate_sigma_sgd(
                    0.9 * self.epsilon, self.delta, low=self.noise_multiplier or 0.3
                )
                self.sigma_em_ = replace(
                    accountant, sigma_sgd=self.noise_multiplier_
                ).calibrate_sigma_em(self.epsilon, self.delta)
        elif self.noise_multiplier is None:
            self.noise_multiplier_ = accountant.calibrate_sigma_sgd(self.epsilon, self.delta)
            self.sigma_em_ = self.sigma_em
        else:
            self.noise_multiplier_ = self.noise_multiplier
            self.sigma_em_ = self.sigma_em

        return replace(accountant, sigma_em=self.sigma_em_, sigma_sgd=self.noise_multiplier_)

    # ------------------------------------------------------------------
    # Differentially private encoding phase
    # ------------------------------------------------------------------

    def _build_reducer(self, n_features: int):
        if self.latent_dim >= n_features:
            return None
        return DPPCA(
            n_components=self.latent_dim,
            epsilon=self.epsilon_pca,
            clip_norm=self.clip_norm,
            random_state=self._rng,
        )

    def _build_prior(self):
        return DPGaussianMixture(
            n_components=self.n_mixture_components,
            sigma=self.sigma_em_,
            clip_norm=self.clip_norm,
            n_iter=self.em_iterations,
            random_state=self._rng,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def privacy_spent_baseline(self) -> float:
        """Epsilon under the looser zCDP+MA baseline composition (Figure 6)."""
        if self.accountant_ is None:
            return 0.0
        return self.accountant_.epsilon_baseline(self.delta)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        # The Theorem-4 accountant is stored by its parameters and rebuilt on
        # load, so privacy_spent() is *recomputed* from the composition rather
        # than trusted as an opaque number — and still round-trips exactly
        # because the computation is deterministic in the stored float64s.
        state["privacy.noise_multiplier"] = np.asarray(self.noise_multiplier_)
        state["privacy.sigma_em"] = np.asarray(self.sigma_em_)
        state["accountant.epsilon_pca"] = np.asarray(self.accountant_.epsilon_pca)
        state["accountant.sample_rate"] = np.asarray(self.accountant_.sample_rate)
        state["accountant.sgd_steps"] = np.asarray(self.accountant_.sgd_steps)
        return state

    def load_state_dict(self, state: dict) -> "P3GM":
        # Restore the calibrated noise scales first: the prior rebuilt by the
        # parent loader is a DPGaussianMixture parameterised by sigma_em_.
        self.noise_multiplier_ = float(state["privacy.noise_multiplier"])
        self.sigma_em_ = float(state["privacy.sigma_em"])
        self.accountant_ = P3GMAccountant(
            epsilon_pca=float(state["accountant.epsilon_pca"]),
            sigma_em=self.sigma_em_,
            em_iterations=self.em_iterations,
            n_components=self.n_mixture_components,
            sigma_sgd=self.noise_multiplier_,
            sample_rate=float(state["accountant.sample_rate"]),
            sgd_steps=int(state["accountant.sgd_steps"]),
        )
        self._fitted_epsilon = self.accountant_.epsilon(self.delta)
        super().load_state_dict(state)
        return self
