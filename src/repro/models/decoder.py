"""The shared skeleton of the decoder models: VAE, DP-VAE, PGM and P3GM.

The paper defines these models as edits of one another (Section IV), and so
does the code.  :class:`DecoderModel` is what VAE and PGM share; each adds
only its networks, encoder and prior, per-example loss, latent draw and state
dict.  :class:`DPSGDMixin` is the private half DP-VAE and P3GM share; each
adds only how it builds its Theorem-4 accountant.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine import (
    CheckpointableMixin,
    EpochHook,
    HistoryLogger,
    MetricsCallback,
    PrivacyBudgetTracker,
    Trainer,
    make_sampler,
)
from repro.models.base import GenerativeModel, LabelEncodingMixin, decode_rows
from repro.nn import Adam, Tensor, no_grad
from repro.nn import functional as F
from repro.privacy.dp_sgd import DPSGD
from repro.utils.logging import TrainingHistory
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_array,
    check_n_samples,
    check_positive,
    check_probability,
)

__all__ = ["DecoderModel", "DPSGDMixin"]


class DecoderModel(GenerativeModel, LabelEncodingMixin, CheckpointableMixin):
    """A latent-variable model whose decoder trains through :class:`repro.engine.Trainer`.

    ``fit`` attaches labels, runs ``_prepare_training(data)`` — the model's
    pre-training phases and network construction in its RNG order, returning
    the trainer's ``loss_fn(index) -> (reconstruction, kl)`` — and trains
    ``_parameters()`` with Adam.  A subclass also implements
    ``_per_example_loss(batch, rng)`` (``rng`` draws the reparameterisation
    noise), ``_sample_latent(n_samples, rng)`` and its state dict, and builds
    ``self.decoder``; the model is fitted once that exists.  The decoder is
    Bernoulli: it outputs per-feature probabilities, so the data must lie in
    ``[0, 1]``.  The constructor is :class:`repro.models.VAE`'s, which
    documents the parameters.
    """

    def __init__(
        self,
        latent_dim: int = 10,
        hidden: tuple = (1000,),
        epochs: int = 10,
        batch_size: int = 100,
        learning_rate: float = 1e-3,
        sampler: str = "shuffle",
        random_state=None,
    ):
        check_positive(latent_dim, "latent_dim")
        check_positive(epochs, "epochs")
        check_positive(batch_size, "batch_size")
        check_positive(learning_rate, "learning_rate")
        if sampler not in ("shuffle", "poisson"):
            raise ValueError("sampler must be 'shuffle' or 'poisson'")
        self.latent_dim = latent_dim
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.sampler = sampler
        self.random_state = random_state
        self._rng = as_generator(random_state)

        self.decoder = None
        self.n_input_features_: Optional[int] = None
        self.history = TrainingHistory()
        #: Optional hook ``callback(model, epoch)`` invoked after every epoch
        #: (used by the learning-efficiency experiments, Figure 7).
        self.epoch_callback = None

    # -- ELBO -------------------------------------------------------------------------

    def _reconstruction_term(self, decoded: Tensor, target: np.ndarray) -> Tensor:
        """Per-example Bernoulli negative log-likelihood, shape (batch,)."""
        return F.binary_cross_entropy(decoded, target, reduction="none").sum(axis=1)

    # -- training -----------------------------------------------------------------------

    def fit(self, X, y=None):
        data = self._attach_labels(check_array(X, "X"), y)
        self.n_input_features_ = data.shape[1]
        loss_fn = self._prepare_training(data)
        n_samples = len(data)
        trainer = self._make_trainer(self._make_optimizer(n_samples), n_samples)
        trainer.fit(n_samples, self.epochs, loss_fn, **self._engine_fit_kwargs())
        return self

    def _make_optimizer(self, n_samples: int):
        return Adam(list(self._parameters()), lr=self.learning_rate)

    def _training_callbacks(self) -> list:
        return [HistoryLogger(), MetricsCallback(), EpochHook()]

    def _make_trainer(self, optimizer, n_samples: int) -> Trainer:
        return Trainer(
            self,
            optimizer,
            make_sampler(self.sampler, n_samples, self.batch_size),
            # The checkpoint callback goes last so it snapshots every other
            # callback's post-epoch state.
            callbacks=[*self._training_callbacks(), *self._engine_callbacks()],
            rng=self._rng,
        )

    # -- evaluation and sampling --------------------------------------------------------

    def reconstruction_loss(self, X, y=None) -> float:
        """Mean per-example reconstruction loss (Figure 7a/7b metric).

        The reparameterisation noise comes from a generator seeded afresh on
        every call, so the value depends only on the weights and the data,
        and the model's own stream does not move.
        """
        self._check_fitted()
        data = check_array(X, "X")
        if self._n_classes and data.shape[1] == self.n_feature_columns:
            if y is None:
                raise ValueError("model was trained with labels; pass y as well")
            data = self._with_label_block(data, y)
        with no_grad():
            reconstruction, _ = self._per_example_loss(data, np.random.default_rng(0))
        return float(reconstruction.data.mean())

    def sample(self, n_samples: int, rng=None) -> np.ndarray:
        """Draw synthetic rows (features + one-hot label block if labelled)."""
        n_samples = check_n_samples(n_samples)
        self._check_fitted()
        rng = self._rng if rng is None else as_generator(rng)
        latent = self._sample_latent(n_samples, rng)
        return decode_rows(self.decoder, latent)

    def _check_fitted(self) -> None:
        if self.decoder is None:
            raise RuntimeError("model is not fitted yet; call fit() first")


class DPSGDMixin:
    """DP-SGD training for a :class:`DecoderModel`; list it before the model.

    A subclass implements ``_build_accountant(n_samples, n_features)``, which
    returns its calibrated :class:`~repro.privacy.accounting.P3GMAccountant`.
    ``fit`` builds it before the model's own pre-training phases, and DP-SGD
    takes its noise multiplier from ``accountant_.sigma_sgd``.
    """

    def __init__(self, *, epsilon, delta, noise_multiplier, max_grad_norm, **model_params):
        super().__init__(**model_params)
        check_positive(epsilon, "epsilon")
        check_probability(delta, "delta")
        check_positive(max_grad_norm, "max_grad_norm")
        if noise_multiplier is not None:
            check_positive(noise_multiplier, "noise_multiplier")
        self.epsilon = epsilon
        self.delta = delta
        self.noise_multiplier = noise_multiplier
        self.max_grad_norm = max_grad_norm
        self.accountant_ = None
        self._fitted_epsilon: Optional[float] = None

    def _dp_sgd_schedule(self, n_samples: int) -> tuple:
        """``(expected batch size, sample rate, steps)`` of one training run."""
        batch_size = min(self.batch_size, n_samples)
        steps = self.epochs * int(np.ceil(n_samples / batch_size))
        return batch_size, batch_size / n_samples, steps

    def _prepare_training(self, data: np.ndarray):
        self.accountant_ = self._build_accountant(*data.shape)
        self._fitted_epsilon = self.accountant_.epsilon(self.delta)
        return super()._prepare_training(data)

    def _make_optimizer(self, n_samples: int) -> DPSGD:
        batch_size, _, _ = self._dp_sgd_schedule(n_samples)
        return DPSGD(
            list(self._parameters()),
            noise_multiplier=self.accountant_.sigma_sgd,
            max_grad_norm=self.max_grad_norm,
            expected_batch_size=batch_size,
            base_optimizer=super()._make_optimizer(n_samples),
            rng=self._rng,
        )

    def _training_callbacks(self) -> list:
        # The tracker goes first: it writes each epoch's epsilon into the
        # logs that MetricsCallback and HistoryLogger read.
        return [
            PrivacyBudgetTracker(self.accountant_, self.delta),
            MetricsCallback(),
            HistoryLogger(),
            EpochHook(),
        ]

    def privacy_spent(self) -> tuple:
        """The ``(epsilon, delta)`` guarantee of the fitted model."""
        if self._fitted_epsilon is None:
            return (0.0, 0.0)
        return (self._fitted_epsilon, self.delta)
