"""PrivBayes — private data release via Bayesian networks (Zhang et al., 2014).

The classical baseline of Table VI/VII and Figure 4.  PrivBayes

1. discretises every attribute,
2. spends half of the budget constructing a low-degree Bayesian network whose
   edges are chosen with the exponential mechanism scored by mutual
   information, and
3. spends the other half releasing noisy (Laplace) conditional distributions
   for every attribute given its parents,
4. synthesises data by ancestral sampling through the network.

Implementation notes / documented simplifications:

- Continuous attributes are assumed to lie in ``[0, 1]`` (the evaluation
  pipeline min–max scales data first), so the equal-width bin edges are
  data-independent and cost no privacy.
- The exponential-mechanism sensitivity of mutual information uses the
  ``(log2(n) + 1) / n`` bound of the original paper.
- Attributes whose number of distinct values is already at most ``n_bins``
  are treated as categorical without re-binning (this covers labels and
  one-hot columns).

Discretisation is the shared :mod:`repro.transforms` machinery
(:func:`repro.transforms.fit_discrete_column`): each attribute is either an
:class:`~repro.transforms.OrdinalCategorical` ("categorical") or an
:class:`~repro.transforms.EqualWidthDiscretizer` ("continuous"), and the
serialized ``attribute_{j}.kind``/``.payload`` state-dict layout is unchanged
from earlier builds, so existing artifacts keep loading.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.models.base import GenerativeModel, label_quotas
from repro.privacy.mechanisms import laplace_mechanism
from repro.transforms import EqualWidthDiscretizer, OrdinalCategorical, fit_discrete_column
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_array,
    check_n_samples,
    check_positive,
    check_probability,
)

__all__ = ["PrivBayes"]

#: Most candidate parent sets structure learning scores per attribute.
MAX_PARENT_CANDIDATES = 50


def _attribute_state(transform) -> tuple:
    """``(kind, payload)`` in the historical artifact layout."""
    if isinstance(transform, OrdinalCategorical):
        return "categorical", np.asarray(transform.categories_)
    return "continuous", np.asarray(transform.edges_)


def _attribute_from_state(kind: str, payload: np.ndarray):
    """Rebuild a fitted column discretiser from serialized state."""
    if kind == "categorical":
        transform = OrdinalCategorical()
        return transform.load_state_dict({"categories": payload})
    edges = np.asarray(payload, dtype=np.float64)
    transform = EqualWidthDiscretizer(
        n_bins=len(edges) - 1, feature_range=(float(edges[0]), float(edges[-1]))
    )
    return transform.load_state_dict({"edges": edges})


class PrivBayes(GenerativeModel):
    """Differentially private Bayesian-network synthesizer.

    Parameters
    ----------
    epsilon:
        Total (pure) DP budget, split evenly between structure learning and
        conditional-distribution release.
    degree:
        Maximum number of parents per attribute (``k``); PrivBayes only models
        dependencies among a few attributes, which is exactly why it struggles
        on high-dimensional data (Table VI/VII).
    n_bins:
        Number of equal-width bins for continuous attributes.

    Structure learning scores at most :data:`MAX_PARENT_CANDIDATES` candidate
    parent sets per attribute, which keeps it tractable on wide datasets.
    """

    def __init__(
        self,
        epsilon: float = 1.0,
        degree: int = 2,
        n_bins: int = 10,
        random_state=None,
    ):
        check_positive(epsilon, "epsilon")
        check_positive(degree, "degree")
        check_positive(n_bins, "n_bins")
        self.epsilon = epsilon
        self.degree = degree
        self.n_bins = n_bins
        self.random_state = random_state
        self._rng = as_generator(random_state)

        self.attributes_: Optional[list] = None
        self.network_: Optional[list] = None  # list of (attribute, parents) in ancestral order
        self.conditionals_: Optional[dict] = None
        self._has_labels = False
        self._classes: Optional[np.ndarray] = None
        self._label_ratio: Optional[np.ndarray] = None
        self.n_input_features_: Optional[int] = None

    # ------------------------------------------------------------------
    # Discretisation and mutual information
    # ------------------------------------------------------------------

    def _discretise(self, data: np.ndarray) -> np.ndarray:
        self.attributes_ = [
            fit_discrete_column(data[:, j], self.n_bins) for j in range(data.shape[1])
        ]
        encoded = np.column_stack(
            [attr.encode(data[:, j]) for j, attr in enumerate(self.attributes_)]
        )
        return encoded

    @staticmethod
    def _mutual_information(x_codes: np.ndarray, parent_codes: np.ndarray) -> float:
        """Empirical mutual information between an attribute and a joint parent code."""
        joint, joint_counts = np.unique(
            np.column_stack([x_codes, parent_codes]), axis=0, return_counts=True
        )
        n = len(x_codes)
        p_joint = joint_counts / n
        _, x_counts = np.unique(x_codes, return_counts=True)
        _, p_counts = np.unique(parent_codes, return_counts=True)
        p_x = {v: c / n for v, c in zip(np.unique(x_codes), x_counts)}
        p_p = {v: c / n for v, c in zip(np.unique(parent_codes), p_counts)}
        mi = 0.0
        for (xv, pv), pj in zip(joint, p_joint):
            mi += pj * np.log(pj / (p_x[xv] * p_p[pv]) + 1e-12)
        return float(mi)

    def _joint_code(self, encoded: np.ndarray, columns: tuple) -> np.ndarray:
        """Collapse several discrete columns into a single integer code.

        Uses each attribute's fixed number of levels as the mixed-radix base so
        the encoding is identical at training and sampling time.
        """
        if not columns:
            return np.zeros(len(encoded), dtype=int)
        code = np.zeros(len(encoded), dtype=np.int64)
        for col in columns:
            code = code * self.attributes_[col].n_levels + encoded[:, col]
        return code

    def _joint_levels(self, columns: tuple) -> int:
        """Number of distinct joint codes for a parent set."""
        levels = 1
        for col in columns:
            levels *= self.attributes_[col].n_levels
        return levels

    # ------------------------------------------------------------------
    # Structure learning (exponential mechanism)
    # ------------------------------------------------------------------

    def _learn_structure(self, encoded: np.ndarray, epsilon_structure: float) -> None:
        n_samples, n_attributes = encoded.shape
        order = list(self._rng.permutation(n_attributes))
        sensitivity = (np.log2(max(n_samples, 2)) + 1.0) / n_samples
        per_choice_eps = epsilon_structure / max(n_attributes - 1, 1)

        network = [(order[0], tuple())]
        placed = [order[0]]
        for attribute in order[1:]:
            candidates = self._candidate_parent_sets(placed)
            scores = np.array(
                [
                    self._mutual_information(
                        encoded[:, attribute], self._joint_code(encoded, parents)
                    )
                    for parents in candidates
                ]
            )
            # Exponential mechanism over candidate parent sets.
            logits = per_choice_eps * scores / (2.0 * sensitivity)
            logits -= logits.max()
            probabilities = np.exp(logits)
            probabilities /= probabilities.sum()
            choice = self._rng.choice(len(candidates), p=probabilities)
            network.append((attribute, candidates[choice]))
            placed.append(attribute)
        self.network_ = network

    def _candidate_parent_sets(self, placed: list) -> list:
        candidates = []
        max_size = min(self.degree, len(placed))
        for size in range(1, max_size + 1):
            candidates.extend(itertools.combinations(placed[-8:], size))
        if not candidates:
            candidates = [tuple()]
        if len(candidates) > MAX_PARENT_CANDIDATES:
            chosen = self._rng.choice(len(candidates), size=MAX_PARENT_CANDIDATES, replace=False)
            candidates = [candidates[i] for i in chosen]
        return candidates

    # ------------------------------------------------------------------
    # Conditional distributions (Laplace mechanism)
    # ------------------------------------------------------------------

    def _learn_conditionals(self, encoded: np.ndarray, epsilon_counts: float) -> None:
        n_attributes = encoded.shape[1]
        per_table_eps = epsilon_counts / n_attributes
        self.conditionals_ = {}
        for attribute, parents in self.network_:
            levels = self.attributes_[attribute].n_levels
            parent_code = self._joint_code(encoded, parents)
            parent_levels = self._joint_levels(parents)
            counts = np.zeros((parent_levels, levels))
            np.add.at(counts, (parent_code, encoded[:, attribute]), 1.0)
            # Changing one record moves one unit of count between two cells.
            noisy = laplace_mechanism(counts, per_table_eps, sensitivity=2.0, rng=self._rng)
            noisy = np.clip(noisy, 0.0, None)
            row_sums = noisy.sum(axis=1, keepdims=True)
            empty = row_sums[:, 0] == 0
            noisy[empty] = 1.0
            row_sums[empty] = levels
            self.conditionals_[attribute] = (parents, noisy / row_sums)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def fit(self, X, y=None) -> "PrivBayes":
        X = check_array(X, "X")
        self.n_input_features_ = X.shape[1]
        self._has_labels = y is not None
        if y is not None:
            y = np.asarray(y)
            if len(y) != len(X):
                raise ValueError("X and y have inconsistent lengths")
            self._classes, label_indices = np.unique(y, return_inverse=True)
            self._label_ratio = np.bincount(label_indices) / len(y)
            data = np.column_stack([X, label_indices.astype(float)])
        else:
            data = X
        encoded = self._discretise(data)
        self._learn_structure(encoded, self.epsilon / 2.0)
        self._learn_conditionals(encoded, self.epsilon / 2.0)
        return self

    def _sample_encoded(self, n_samples: int, rng) -> np.ndarray:
        n_attributes = len(self.attributes_)
        codes = np.zeros((n_samples, n_attributes), dtype=int)
        for attribute, parents in self.network_:
            parents_stored, table = self.conditionals_[attribute]
            if parents_stored:
                parent_code = self._joint_code(codes, parents_stored)
            else:
                parent_code = np.zeros(n_samples, dtype=int)
            # Vectorised inverse-CDF sampling from each row's conditional.
            cdf = np.cumsum(table[parent_code], axis=1)
            uniform = rng.random(n_samples)
            codes[:, attribute] = (uniform[:, None] > cdf).sum(axis=1)
        return codes

    def sample(self, n_samples: int, rng=None) -> np.ndarray:
        n_samples = check_n_samples(n_samples)
        self._check_fitted()
        rng = self._rng if rng is None else as_generator(rng)
        codes = self._sample_encoded(n_samples, rng)
        columns = [
            attr.decode(codes[:, j], rng) for j, attr in enumerate(self.attributes_)
        ]
        rows = np.column_stack(columns)
        if self._has_labels:
            return rows[:, : self.n_input_features_]
        return rows

    def sample_labeled(
        self,
        n_samples: int,
        rng=None,
        generation_rng=None,
        class_counts=None,
    ):
        """Sample ``(X, y)`` with the training label ratio (same protocol as the mixin)."""
        n_samples = check_n_samples(n_samples)
        self._check_fitted()
        if not self._has_labels:
            raise RuntimeError("model was fitted without labels; use sample() instead")
        rng = as_generator(rng)
        draw_rng = self._rng if generation_rng is None else as_generator(generation_rng)
        codes = self._sample_encoded(max(2 * n_samples, 4 * len(self._classes)), draw_rng)
        columns = [
            attr.decode(codes[:, j], draw_rng) for j, attr in enumerate(self.attributes_)
        ]
        rows = np.column_stack(columns)
        features = rows[:, : self.n_input_features_]
        generated_labels = np.clip(
            np.round(rows[:, -1]).astype(int), 0, len(self._classes) - 1
        )

        quotas = label_quotas(self._label_ratio, n_samples, class_counts)
        selected, labels_out = [], []
        for class_index, quota in enumerate(quotas):
            if quota == 0:
                continue
            candidates = np.flatnonzero(generated_labels == class_index)
            if len(candidates) >= quota:
                chosen = rng.choice(candidates, size=quota, replace=False)
            else:
                extra = rng.choice(len(features), size=quota - len(candidates), replace=True)
                chosen = np.concatenate([candidates, extra])
            selected.append(features[chosen])
            labels_out.append(np.full(quota, self._classes[class_index]))
        X_out = np.vstack(selected)
        y_out = np.concatenate(labels_out)
        shuffle = rng.permutation(len(X_out))
        return X_out[shuffle], y_out[shuffle]

    def privacy_spent(self) -> tuple:
        if self.network_ is None:
            return (0.0, 0.0)
        return (self.epsilon, 0.0)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        self._check_fitted()
        state = {
            "n_input_features": np.asarray(self.n_input_features_),
            "has_labels": np.asarray(self._has_labels),
            "n_attributes": np.asarray(len(self.attributes_)),
            "network.order": np.asarray([attr for attr, _ in self.network_]),
        }
        if self._has_labels:
            state["label.classes"] = np.asarray(self._classes)
            state["label.ratio"] = np.asarray(self._label_ratio)
        for j, attribute in enumerate(self.attributes_):
            kind, payload = _attribute_state(attribute)
            state[f"attribute_{j}.kind"] = np.asarray(kind)
            state[f"attribute_{j}.payload"] = payload
        for position, (attribute, parents) in enumerate(self.network_):
            state[f"network.parents_{position}"] = np.asarray(parents, dtype=np.int64)
            state[f"conditional_{attribute}"] = self.conditionals_[attribute][1]
        return state

    def load_state_dict(self, state: dict) -> "PrivBayes":
        self.n_input_features_ = int(state["n_input_features"])
        self._has_labels = bool(state["has_labels"])
        if self._has_labels:
            self._classes = np.asarray(state["label.classes"])
            self._label_ratio = np.asarray(state["label.ratio"], dtype=np.float64)
        else:
            self._classes = None
            self._label_ratio = None
        self.attributes_ = [
            _attribute_from_state(
                state[f"attribute_{j}.kind"].item(), np.asarray(state[f"attribute_{j}.payload"])
            )
            for j in range(int(state["n_attributes"]))
        ]
        order = np.asarray(state["network.order"], dtype=np.int64)
        self.network_ = []
        self.conditionals_ = {}
        for position, attribute in enumerate(order):
            attribute = int(attribute)
            parents = tuple(
                int(p) for p in np.asarray(state[f"network.parents_{position}"], dtype=np.int64)
            )
            self.network_.append((attribute, parents))
            self.conditionals_[attribute] = (parents, np.asarray(state[f"conditional_{attribute}"]))
        return self

    def _check_fitted(self) -> None:
        if self.network_ is None:
            raise RuntimeError("model is not fitted yet; call fit() first")
