"""PGM — the (non-private) phased generative model of Section IV.

PGM separates the VAE's end-to-end training into two phases:

1. **Encoding Phase** — a dimensionality reduction ``f`` (PCA) fixes the
   encoder mean ``mu_phi(x) = f(x)``; a mixture of Gaussians ``r_lambda(z)`` is
   fitted on the projected data and becomes the latent prior ``p_theta(z)``.
2. **Decoding Phase** — the decoder (and the encoder's *variance* head) are
   trained by maximising the ELBO with the fixed encoder mean and the MoG
   prior, following the AEVB algorithm.

:class:`PGM` here is the non-private variant (used in Table V and as the
"PGM" curve of Figure 4); :class:`repro.models.P3GM` swaps every component for
its differentially private counterpart.

The ``variance_mode`` switch also implements the paper's "P3GM (AE)" ablation
(Section V-B / Figure 7): fixing the encoder variance at zero gives
deterministic autoencoder behaviour, and the KL term is dropped.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.decomposition import PCA
from repro.mixture import GaussianMixture
from repro.mixture.kl import kl_gaussian_to_mog
from repro.models.base import pack_state, unpack_state
from repro.models.decoder import DecoderModel
from repro.nn import MLP, Tensor
from repro.utils.validation import check_positive

__all__ = ["PGM"]


class PGM(DecoderModel):
    """Phased generative model (non-private).

    Parameters
    ----------
    latent_dim:
        Reduced dimensionality ``d'`` (the paper uses 10 for most datasets).
        If the data has fewer than ``latent_dim`` features, the dimensionality
        reduction is skipped (as the paper does for Kaggle Credit) and the
        latent space equals the input space.
    n_mixture_components:
        Number of MoG components ``d_m`` (3 in the paper).
    em_iterations:
        EM iterations for fitting the latent prior.
    hidden:
        Hidden widths of the variance head and the decoder (paper: ``(1000,)``).
    variance_mode:
        ``"learned"`` — the encoder variance is trained in the decoding phase
        (full P3GM); ``"fixed"`` — the variance is zero, the AE-like ablation
        whose KL term is constant and dropped.

    The decoder is Bernoulli, as in :class:`repro.models.VAE`.
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
        sampler: str = "shuffle",
        random_state=None,
    ):
        super().__init__(
            latent_dim=latent_dim,
            hidden=hidden,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            sampler=sampler,
            random_state=random_state,
        )
        check_positive(n_mixture_components, "n_mixture_components")
        check_positive(em_iterations, "em_iterations")
        if variance_mode not in ("learned", "fixed"):
            raise ValueError("variance_mode must be 'learned' or 'fixed'")
        self.n_mixture_components = n_mixture_components
        self.em_iterations = em_iterations
        self.variance_mode = variance_mode

        self.reducer = None
        self.prior: Optional[GaussianMixture] = None
        self.variance_head: Optional[MLP] = None
        self.effective_latent_dim_: Optional[int] = None

    # ------------------------------------------------------------------
    # Encoding Phase
    # ------------------------------------------------------------------

    def _build_reducer(self, n_features: int):
        """Return the dimensionality reduction ``f`` (or ``None`` to skip it)."""
        if self.latent_dim >= n_features:
            return None
        return PCA(n_components=self.latent_dim)

    def _build_prior(self) -> GaussianMixture:
        return GaussianMixture(
            n_components=self.n_mixture_components,
            n_iter=self.em_iterations,
            random_state=self._rng,
        )

    def _encoding_phase(self, data: np.ndarray) -> np.ndarray:
        """Fix the encoder mean and fit the latent prior; returns projected data."""
        self.reducer = self._build_reducer(data.shape[1])
        if self.reducer is None:
            self.effective_latent_dim_ = data.shape[1]
            projected = data
        else:
            self.effective_latent_dim_ = self.latent_dim
            self.reducer.fit(data)
            projected = self.reducer.transform(data)
        self.prior = self._build_prior()
        self.prior.fit(projected)
        return projected

    def _project(self, data: np.ndarray) -> np.ndarray:
        """The fixed encoder mean ``f(x)``."""
        if self.reducer is None:
            return data
        return self.reducer.transform(data)

    # ------------------------------------------------------------------
    # Decoding Phase
    # ------------------------------------------------------------------

    def _build_networks(self, n_features: int) -> None:
        from repro.nn.layers import final_linear

        self.variance_head = MLP(
            n_features, self.hidden, self.effective_latent_dim_, rng=self._rng
        )
        self.decoder = MLP(
            self.effective_latent_dim_,
            self.hidden,
            n_features,
            output_activation="sigmoid",
            rng=self._rng,
        )
        # Neutral starting point (log-variance ~ 0, decoder probability ~ 0.5):
        # clipped/noised DP-SGD recovers slowly from saturated initial outputs.
        final_linear(self.variance_head).weight.data *= 0.01
        final_linear(self.decoder).weight.data *= 0.01

    def _prepare_training(self, data: np.ndarray):
        """Run the encoding phase, then build the decoding-phase networks."""
        projected = self._encoding_phase(data)
        self._build_networks(self.n_input_features_)
        return lambda index: self._per_example_loss(data[index], self._rng, projected[index])

    def _parameters(self):
        if self.variance_mode == "learned":
            yield from self.variance_head.parameters()
        yield from self.decoder.parameters()

    def _per_example_loss(self, batch: np.ndarray, rng, projected=None) -> tuple:
        """Per-example (reconstruction, kl) for the decoding-phase objective (Eq. 8).

        ``rng`` draws the reparameterisation noise (training passes the
        model's own stream).  ``projected`` is the fixed encoder mean
        ``f(batch)``, computed when not given (training slices the encoding
        phase's projection instead).
        """
        if projected is None:
            projected = self._project(batch)
        mu = Tensor(projected)  # fixed encoder mean: no gradient flows into it
        if self.variance_mode == "fixed":
            # Zero variance: a deterministic encoder, and a constant KL term.
            z = mu
            kl = Tensor(np.zeros(len(batch)))
        else:
            log_var = self.variance_head(Tensor(batch)).clip(-10.0, 10.0)
            noise = Tensor(rng.normal(size=mu.shape))
            z = mu + (log_var * 0.5).exp() * noise
            kl = kl_gaussian_to_mog(
                mu,
                log_var,
                self.prior.weights_,
                self.prior.means_,
                self.prior.covariances_,
            )
        decoded = self.decoder(z)
        reconstruction = self._reconstruction_term(decoded, batch)
        return reconstruction, kl

    def _sample_latent(self, n_samples: int, rng) -> np.ndarray:
        """The latent draw of data synthesis (Section IV-E): ``z ~ MoG(lambda)``."""
        latent, _ = self.prior.sample(n_samples, rng=rng)
        return latent

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        self._check_fitted()
        state = {
            "n_input_features": np.asarray(self.n_input_features_),
            "effective_latent_dim": np.asarray(self.effective_latent_dim_),
            "has_reducer": np.asarray(self.reducer is not None),
        }
        state.update(self._label_state_dict())
        if self.reducer is not None:
            state["reducer.components"] = self.reducer.components_
            state["reducer.explained_variance"] = self.reducer.explained_variance_
            state["reducer.mean"] = self.reducer.mean_
        state["prior.weights"] = self.prior.weights_
        state["prior.means"] = self.prior.means_
        state["prior.covariances"] = self.prior.covariances_
        state.update(pack_state("variance_head.", self.variance_head.state_dict()))
        state.update(pack_state("decoder.", self.decoder.state_dict()))
        return state

    def load_state_dict(self, state: dict) -> "PGM":
        self.n_input_features_ = int(state["n_input_features"])
        self.effective_latent_dim_ = int(state["effective_latent_dim"])
        self._load_label_state(state)
        if bool(state["has_reducer"]):
            self.reducer = self._build_reducer(self.n_input_features_)
            if self.reducer is None:
                raise ValueError(
                    "state dict carries a dimensionality reduction but this "
                    f"configuration (latent_dim={self.latent_dim} >= "
                    f"{self.n_input_features_} features) would not build one"
                )
            self.reducer.components_ = np.asarray(state["reducer.components"])
            self.reducer.explained_variance_ = np.asarray(state["reducer.explained_variance"])
            self.reducer.mean_ = np.asarray(state["reducer.mean"])
        else:
            self.reducer = None
        self.prior = self._build_prior()
        self.prior.set_parameters(
            state["prior.weights"], state["prior.means"], state["prior.covariances"]
        )
        self._build_networks(self.n_input_features_)
        self.variance_head.load_state_dict(unpack_state(state, "variance_head."))
        self.decoder.load_state_dict(unpack_state(state, "decoder."))
        return self
