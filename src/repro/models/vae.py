"""Variational autoencoder (Kingma & Welling).

The VAE is both a non-private reference model (Table V, Table VII "VAE"
column) and the backbone that the phased models modify.  The encoder and
decoder follow the paper's implementation section: two fully connected layers
of width 1000 with ReLU activations.  Training runs through
:class:`repro.engine.Trainer`; the model supplies only its per-example ELBO
terms.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import pack_state, unpack_state
from repro.models.decoder import DecoderModel
from repro.nn import MLP, Tensor
from repro.nn import functional as F

__all__ = ["VAE"]


class VAE(DecoderModel):
    """Auto-Encoding Variational Bayes with an isotropic Gaussian prior.

    The decoder is Bernoulli: it outputs per-feature probabilities and the
    reconstruction term is a sum of binary cross-entropies, so the data must
    lie in ``[0, 1]``.

    Parameters
    ----------
    latent_dim:
        Dimensionality of the latent variable ``z``.
    hidden:
        Hidden layer widths of both encoder and decoder (paper: ``(1000,)``).
    epochs, batch_size, learning_rate:
        Standard optimisation hyper-parameters (Adam).
    sampler:
        Batch-construction strategy: ``"shuffle"`` (default; one pass over a
        permutation per epoch) or ``"poisson"`` (independent per-step record
        inclusion).  See :mod:`repro.engine` for the privacy-accounting
        implications.
    """

    encoder: Optional[MLP] = None

    # -- model construction ---------------------------------------------------------

    def _build(self, n_features: int) -> None:
        from repro.nn.layers import final_linear

        self.encoder = MLP(n_features, self.hidden, 2 * self.latent_dim, rng=self._rng)
        self.decoder = MLP(
            self.latent_dim, self.hidden, n_features, output_activation="sigmoid", rng=self._rng
        )
        # Start the encoder at (mu, log_var) ~ 0 and the decoder at p ~ 0.5: a
        # neutral initialisation that noisy, clipped DP-SGD can improve on
        # rather than having to first undo saturated outputs.
        final_linear(self.encoder).weight.data *= 0.01
        final_linear(self.decoder).weight.data *= 0.01

    def _prepare_training(self, data: np.ndarray):
        self._build(self.n_input_features_)
        return lambda index: self._per_example_loss(data[index], self._rng)

    def _parameters(self):
        yield from self.encoder.parameters()
        yield from self.decoder.parameters()

    # -- ELBO -------------------------------------------------------------------------

    def _encode(self, x: Tensor):
        encoded = self.encoder(x)
        mu = encoded[:, : self.latent_dim]
        log_var = encoded[:, self.latent_dim :].clip(-10.0, 10.0)
        return mu, log_var

    def _per_example_loss(self, batch: np.ndarray, rng) -> tuple:
        """Return per-example ``(reconstruction, kl)`` tensors for a batch.

        ``rng`` draws the reparameterisation noise (training passes the
        model's own stream).
        """
        x = Tensor(batch)
        mu, log_var = self._encode(x)
        noise = Tensor(rng.normal(size=mu.shape))
        z = mu + (log_var * 0.5).exp() * noise
        decoded = self.decoder(z)
        reconstruction = self._reconstruction_term(decoded, batch)
        kl = F.kl_standard_normal(mu, log_var, reduction="none")
        return reconstruction, kl

    # -- sampling ----------------------------------------------------------------------------

    def _sample_latent(self, n_samples: int, rng) -> np.ndarray:
        return rng.normal(size=(n_samples, self.latent_dim))

    # -- persistence -------------------------------------------------------------------------

    def state_dict(self) -> dict:
        self._check_fitted()
        state = {"n_input_features": np.asarray(self.n_input_features_)}
        state.update(self._label_state_dict())
        state.update(pack_state("encoder.", self.encoder.state_dict()))
        state.update(pack_state("decoder.", self.decoder.state_dict()))
        return state

    def load_state_dict(self, state: dict) -> "VAE":
        self.n_input_features_ = int(state["n_input_features"])
        self._load_label_state(state)
        self._build(self.n_input_features_)
        self.encoder.load_state_dict(unpack_state(state, "encoder."))
        self.decoder.load_state_dict(unpack_state(state, "decoder."))
        return self
