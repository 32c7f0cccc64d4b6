"""Common interface and label handling for the generative models.

Every synthesizer in :mod:`repro.models` follows the same protocol:

- ``fit(X, y=None)`` — train on features in ``[0, 1]`` (the evaluation
  pipeline min–max scales data first, as the paper's Bernoulli decoders
  assume).  If labels are provided they are attached by one-hot encoding and
  concatenated to the features, exactly as Section IV-E describes.
- ``sample(n)`` — draw ``n`` synthetic feature rows.
- ``sample_labeled(n)`` — draw synthetic ``(X, y)`` whose label ratio matches
  the training data (the protocol of the paper's utility experiments).
- ``privacy_spent()`` — the ``(epsilon, delta)`` guarantee of the fitted model
  (``(0, 0)`` or ``(inf, 0)`` for non-private models).
"""

from __future__ import annotations

import inspect
from typing import Optional

import numpy as np

from repro.nn import inference
from repro.utils.rng import as_generator
from repro.utils.validation import check_array, check_n_samples

__all__ = [
    "GenerativeModel",
    "LabelEncodingMixin",
    "decode_rows",
    "label_quotas",
    "pack_state",
    "unpack_state",
]

#: Copies of the one-hot label block a labelled fit appends (see
#: :class:`LabelEncodingMixin`).
LABEL_COPIES = 10


def decode_rows(decoder, latent: np.ndarray) -> np.ndarray:
    """Run a fitted decoder over latent rows through its compiled plan.

    The fused tape-free plan (:mod:`repro.nn.inference`) is cached per
    decoder instance, so every ``load_state_dict`` (which rebuilds the
    networks) invalidates it, and it folds the Bernoulli output clip into the
    same pass.  Its rows are bit-identical to the autograd forward's; a
    decoder that does not compile raises :class:`repro.nn.CompileError`.
    """
    return inference.compiled_plan(decoder)(latent)


def label_quotas(ratio, n_samples: int, class_counts=None) -> np.ndarray:
    """Per-class sample counts for a labelled draw of ``n_samples`` rows.

    ``class_counts``, when given, must be one non-negative count per class
    (in the order of ``ratio``) summing to ``n_samples``.  Otherwise the
    training ``ratio`` is rounded and the rounding remainder goes to the
    largest class.
    """
    ratio = np.asarray(ratio)
    if class_counts is not None:
        quotas = np.asarray(class_counts, dtype=np.int64)
        if quotas.shape != ratio.shape or (quotas < 0).any():
            raise ValueError(f"class_counts must be {len(ratio)} non-negative integers")
        if quotas.sum() != n_samples:
            raise ValueError(
                f"class_counts sum to {quotas.sum()} but n_samples is {n_samples}"
            )
        return quotas
    quotas = np.round(ratio * n_samples).astype(np.int64)
    quotas[np.argmax(quotas)] += n_samples - quotas.sum()
    return quotas


def pack_state(prefix: str, state: dict) -> dict:
    """Prefix every key of ``state`` (used to nest sub-model state dicts)."""
    return {f"{prefix}{key}": value for key, value in state.items()}


def unpack_state(state: dict, prefix: str) -> dict:
    """Inverse of :func:`pack_state`: extract and strip one prefix."""
    offset = len(prefix)
    return {key[offset:]: value for key, value in state.items() if key.startswith(prefix)}


class GenerativeModel:
    """Abstract base class for data synthesizers.

    Besides the training/sampling protocol documented in the module docstring,
    every synthesizer supports first-class persistence for the serving layer
    (:mod:`repro.serving`):

    - ``get_config()`` — JSON-safe constructor hyper-parameters, sufficient to
      rebuild an unfitted twin via ``type(model)(**config)``;
    - ``state_dict()`` — the fitted state as a flat ``name -> numpy array``
      mapping (scalars as 0-d arrays; no object arrays, so artifacts load with
      ``allow_pickle=False``);
    - ``load_state_dict(state)`` — restore the fitted state into a freshly
      constructed model.  A loaded model must report the exact same
      ``privacy_spent()`` as the original and draw bit-identical samples when
      given the same ``rng``.
    """

    def fit(self, X, y=None):
        raise NotImplementedError

    def sample(self, n_samples: int, rng=None) -> np.ndarray:
        """Draw synthetic rows; ``rng`` overrides the model's internal stream."""
        raise NotImplementedError

    def privacy_spent(self) -> tuple:
        """Return the ``(epsilon, delta)`` guarantee of the trained model."""
        return (float("inf"), 0.0)

    # -- persistence protocol -----------------------------------------------------

    def get_config(self) -> dict:
        """JSON-serialisable constructor hyper-parameters of this model.

        The contract every synthesizer keeps: each constructor argument
        except ``random_state`` is stored on the model under its own name,
        so the config reads them back by name (tuples as lists).
        """
        config = {}
        for name in inspect.signature(type(self)).parameters:
            if name != "random_state":
                value = getattr(self, name)
                config[name] = list(value) if isinstance(value, tuple) else value
        return config

    def state_dict(self) -> dict:
        """Fitted state as a flat mapping of numpy arrays."""
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> "GenerativeModel":
        """Restore fitted state produced by :meth:`state_dict`."""
        raise NotImplementedError


class LabelEncodingMixin:
    """One-hot label attachment and ratio-matched labelled sampling.

    Subclasses must provide ``sample(n)`` returning rows whose trailing columns
    are the one-hot label block appended by :meth:`_attach_labels` during
    ``fit``.

    The one-hot block is replicated :data:`LABEL_COPIES` (10) times.  This
    acts as a weight on the label-reconstruction term of the ELBO: with
    heavily imbalanced data and per-example gradient clipping (DP-SGD), a
    single one-hot column carries too little gradient signal for the minority
    class to be learned, and the paper's protocol of attaching the label as
    ordinary columns would silently fail at laptop scale.  Replication keeps
    targets in ``{0, 1}`` (so Bernoulli decoders still apply) and is a pure
    reweighting of the reconstruction term; it does not affect privacy
    accounting.  A fitted model records its copy count in its state dict
    (``label.repeat``; 1 when fitted without labels).
    """

    _n_classes: int = 0
    _classes: Optional[np.ndarray] = None
    _label_ratio: Optional[np.ndarray] = None
    _label_copies: int = 1

    # -- training-side helpers ----------------------------------------------------

    def _attach_labels(self, X: np.ndarray, y) -> np.ndarray:
        """Concatenate the replicated one-hot label block to ``X``.

        The classes are those of ``y``, and the block is
        :meth:`_with_label_block`'s, the one the fitted model is also
        evaluated with.
        """
        from repro.transforms import OneHotCategorical

        X = check_array(X, "X")
        if y is None:
            self._n_classes = 0
            self._classes = None
            self._label_ratio = None
            self._label_copies = 1
            return X
        y = np.asarray(y)
        if len(y) != len(X):
            raise ValueError("X and y have inconsistent lengths")
        self._label_copies = LABEL_COPIES
        self._classes = OneHotCategorical().fit(y).categories_
        self._n_classes = len(self._classes)
        data = self._with_label_block(X, y)
        self._label_ratio = data[:, X.shape[1] : X.shape[1] + self._n_classes].mean(axis=0)
        return data

    def _label_block_width(self) -> int:
        return self._n_classes * self._label_copies

    def _label_scores(self, rows: np.ndarray) -> np.ndarray:
        """Per-class activation summed over the replicated label block."""
        return inference.label_scores(
            np.asarray(rows), self._n_classes, self._label_copies
        )

    def _with_label_block(self, X: np.ndarray, y) -> np.ndarray:
        """``X`` with the replicated one-hot block of labels ``y`` appended.

        The encoding is the shared :class:`repro.transforms.OneHotCategorical`
        over the training classes — the transform mixed-type table
        preprocessing uses — so label handling and column encoding cannot
        drift apart.  A label outside the training classes raises
        ``ValueError`` (the one-hot codec would snap a numeric one to its
        nearest class).
        """
        from repro.transforms import OneHotCategorical

        y = np.asarray(y)
        unknown = ~np.isin(y, self._classes)
        if unknown.any():
            raise ValueError(
                f"labels {np.unique(y[unknown]).tolist()} are not among the "
                f"training classes {self._classes.tolist()}"
            )
        onehot = OneHotCategorical(self._classes).transform(y)
        return np.hstack([X, np.tile(onehot, (1, self._label_copies))])

    @property
    def n_feature_columns(self) -> int:
        """Number of raw feature columns (excluding the label block)."""
        total = getattr(self, "n_input_features_", None)
        if total is None:
            raise RuntimeError("model is not fitted")
        return total - self._label_block_width()

    # -- (de)serialisation helpers --------------------------------------------------

    def _label_state_dict(self) -> dict:
        """Label-handling state as flat numpy entries (for ``state_dict``)."""
        state = {
            "label.n_classes": np.asarray(self._n_classes),
            "label.repeat": np.asarray(self._label_copies),
        }
        if self._n_classes:
            state["label.classes"] = np.asarray(self._classes)
            state["label.ratio"] = np.asarray(self._label_ratio)
        return state

    def _load_label_state(self, state: dict) -> None:
        self._n_classes = int(state["label.n_classes"])
        self._label_copies = int(state["label.repeat"])
        if self._n_classes:
            self._classes = np.asarray(state["label.classes"])
            self._label_ratio = np.asarray(state["label.ratio"], dtype=np.float64)
        else:
            self._classes = None
            self._label_ratio = None

    # -- sampling-side helpers ------------------------------------------------------

    def sample_labeled(
        self,
        n_samples: int,
        rng=None,
        generation_rng=None,
        class_counts=None,
    ):
        """Sample labelled synthetic data at the training label ratio.

        The output label distribution matches the training label ratio (the
        paper's protocol): samples are drawn in excess and assigned to
        per-class quotas by their one-hot activation, which also guards
        against mode-collapse starving a class entirely.
        ``class_counts`` overrides the ratio-derived quotas with explicit
        per-class counts (in ``classes_`` order, summing to ``n_samples``) —
        the streaming service uses this to keep rare classes represented
        across chunks instead of re-rounding the ratio per chunk.

        ``rng`` seeds the quota selection and output shuffle only; the raw
        draws come from the model's internal stream unless ``generation_rng``
        is given, in which case the whole request is reproducible from the two
        generators (the serving layer passes the same generator for both).
        """
        n_samples = check_n_samples(n_samples)
        if self._n_classes == 0:
            raise RuntimeError("model was fitted without labels; use sample() instead")
        rng = as_generator(rng)
        generation_rng = None if generation_rng is None else as_generator(generation_rng)

        quotas = label_quotas(self._label_ratio, n_samples, class_counts)

        oversample = max(2 * n_samples, 4 * self._n_classes)
        rows = self.sample(oversample, rng=generation_rng)
        scores = self._label_scores(rows)
        assignments = np.argmax(scores, axis=1)
        feature_width = rows.shape[1] - self._label_block_width()

        selected = []
        labels_out = []
        for class_index in range(self._n_classes):
            quota = quotas[class_index]
            if quota == 0:
                continue
            candidates = np.flatnonzero(assignments == class_index)
            if len(candidates) >= quota:
                chosen = rng.choice(candidates, size=quota, replace=False)
            else:
                # Not enough samples naturally landed in this class: take the
                # rows with the strongest activation for it (with replacement
                # if the class never appears at all).
                order = np.argsort(-scores[:, class_index])
                chosen = order[:quota]
            selected.append(rows[chosen, :feature_width])
            labels_out.append(np.full(quota, self._classes[class_index]))

        features = np.vstack(selected)
        labels = np.concatenate(labels_out)
        shuffle = rng.permutation(len(features))
        return features[shuffle], labels[shuffle]
