"""DP-GM — differentially private mixture of generative networks (Acs et al.).

The baseline the paper compares against (Table VI/VII, Figure 2d).  DP-GM
first partitions the data with differentially private k-means and then trains
a separate small generative network on each partition with DP-SGD.  Because
every record falls in exactly one partition, the per-partition training runs
compose in *parallel*, so each partition's generator can use the full
remaining budget.

The paper's criticism — that DP-GM's samples concentrate near the cluster
centroids and lose diversity — emerges from this structure: each per-cluster
generator sees few, homogeneous records and learns a narrow distribution.

Simplifications relative to Acs et al.: the per-cluster generators are small
VAEs trained with DP-SGD (the original work uses variational autoencoders or
RBMs interchangeably), and clusters that end up with fewer records than
``min_cluster_size`` fall back to a Gaussian around the noisy centroid.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.base import GenerativeModel, LabelEncodingMixin, pack_state, unpack_state
from repro.models.dp_vae import DPVAE
from repro.privacy.clipping import clip_rows
from repro.privacy.mechanisms import laplace_mechanism
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_array,
    check_n_samples,
    check_positive,
    check_probability,
)

__all__ = ["DPGM"]

#: Noisy Lloyd iterations of the private k-means step.
KMEANS_ITERATIONS = 4
#: Fraction of ``epsilon`` the private k-means step spends; the rest goes to
#: every per-cluster generator (parallel composition).
KMEANS_BUDGET_FRACTION = 0.1


class DPGM(GenerativeModel, LabelEncodingMixin):
    """Differentially private mixture of generative neural networks.

    Parameters
    ----------
    n_clusters:
        Number of k-means partitions (one generator per partition), found by
        :data:`KMEANS_ITERATIONS` noisy Lloyd iterations that spend
        :data:`KMEANS_BUDGET_FRACTION` of ``epsilon``.
    latent_dim, hidden, epochs, batch_size, learning_rate:
        Hyper-parameters of the per-cluster DP-VAEs (kept small — each
        partition holds only a slice of the data).
    min_cluster_size:
        Partitions smaller than this are modelled as an isotropic Gaussian
        around their noisy centroid instead of a VAE.
    """

    def __init__(
        self,
        n_clusters: int = 5,
        latent_dim: int = 5,
        hidden: tuple = (100,),
        epochs: int = 5,
        batch_size: int = 100,
        learning_rate: float = 1e-3,
        epsilon: float = 1.0,
        delta: float = 1e-5,
        min_cluster_size: int = 30,
        max_grad_norm: float = 1.0,
        random_state=None,
    ):
        check_positive(n_clusters, "n_clusters")
        check_positive(epsilon, "epsilon")
        check_probability(delta, "delta")
        self.n_clusters = n_clusters
        self.latent_dim = latent_dim
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.epsilon = epsilon
        self.delta = delta
        self.min_cluster_size = min_cluster_size
        self.max_grad_norm = max_grad_norm
        self.random_state = random_state
        self._rng = as_generator(random_state)

        self.centroids_: Optional[np.ndarray] = None
        self.cluster_weights_: Optional[np.ndarray] = None
        self.generators_: Optional[list] = None
        self.n_input_features_: Optional[int] = None

    # ------------------------------------------------------------------
    # Differentially private k-means
    # ------------------------------------------------------------------

    def _private_kmeans(self, data: np.ndarray) -> np.ndarray:
        """Noisy Lloyd iterations on norm-clipped data; returns assignments."""
        n_samples, n_features = data.shape
        clipped = clip_rows(data, 1.0)
        eps_per_iter = self.epsilon * KMEANS_BUDGET_FRACTION / KMEANS_ITERATIONS
        # Each iteration releases noisy counts (sensitivity 1) and noisy sums
        # (sensitivity 1 after clipping); split the per-iteration budget evenly.
        eps_counts = eps_per_iter / 2.0
        eps_sums = eps_per_iter / 2.0

        indices = self._rng.choice(n_samples, size=self.n_clusters, replace=False)
        centroids = clipped[indices].copy()
        assignments = np.zeros(n_samples, dtype=int)
        for _ in range(KMEANS_ITERATIONS):
            distances = ((clipped[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            assignments = np.argmin(distances, axis=1)
            for k in range(self.n_clusters):
                members = clipped[assignments == k]
                noisy_count = laplace_mechanism(
                    np.array([len(members)]), eps_counts, sensitivity=1.0, rng=self._rng
                )[0]
                noisy_count = max(noisy_count, 1.0)
                sums = members.sum(axis=0) if len(members) else np.zeros(n_features)
                noisy_sum = laplace_mechanism(sums, eps_sums, sensitivity=1.0, rng=self._rng)
                centroids[k] = noisy_sum / noisy_count

        self.centroids_ = centroids
        # Final noisy cluster shares (released under the counts budget of the
        # last iteration; counted inside the k-means fraction).
        counts = np.array([(assignments == k).sum() for k in range(self.n_clusters)], float)
        noisy_counts = np.maximum(
            laplace_mechanism(counts, eps_counts, sensitivity=1.0, rng=self._rng), 1.0
        )
        self.cluster_weights_ = noisy_counts / noisy_counts.sum()
        return assignments

    # ------------------------------------------------------------------
    # Per-cluster generators
    # ------------------------------------------------------------------

    def _fit_cluster_generators(self, data: np.ndarray, assignments: np.ndarray) -> None:
        generator_epsilon = self.epsilon * (1.0 - KMEANS_BUDGET_FRACTION)
        self.generators_ = []
        for k in range(self.n_clusters):
            members = data[assignments == k]
            if len(members) < max(self.min_cluster_size, self.latent_dim + 1):
                self.generators_.append(self._make_gaussian_fallback(members, k))
                continue
            vae = DPVAE(
                latent_dim=min(self.latent_dim, members.shape[1]),
                hidden=self.hidden,
                epochs=self.epochs,
                batch_size=min(self.batch_size, len(members)),
                learning_rate=self.learning_rate,
                epsilon=generator_epsilon,
                delta=self.delta,
                max_grad_norm=self.max_grad_norm,
                random_state=self._rng,
            )
            vae.fit(members)
            self.generators_.append(vae)

    def _make_gaussian_fallback(self, members: np.ndarray, cluster_index: int):
        """Tiny clusters: sample from a small Gaussian around the noisy centroid."""
        center = self.centroids_[cluster_index]
        scale = 0.05 if len(members) == 0 else float(np.mean(members.std(axis=0)) + 0.01)
        return ("gaussian", center, scale)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def fit(self, X, y=None) -> "DPGM":
        data = self._attach_labels(check_array(X, "X"), y)
        self.n_input_features_ = data.shape[1]
        if len(data) <= self.n_clusters:
            raise ValueError("need more samples than clusters")
        assignments = self._private_kmeans(data)
        self._fit_cluster_generators(data, assignments)
        return self

    def sample(self, n_samples: int, rng=None) -> np.ndarray:
        n_samples = check_n_samples(n_samples)
        self._check_fitted()
        # Every per-cluster DPVAE shares this model's generator object, so
        # passing it down keeps one stream whether or not a request rng is given.
        rng = self._rng if rng is None else as_generator(rng)
        chosen = rng.choice(self.n_clusters, size=n_samples, p=self.cluster_weights_)
        rows = np.empty((n_samples, self.n_input_features_))
        for k in range(self.n_clusters):
            mask = chosen == k
            count = int(mask.sum())
            if count == 0:
                continue
            generator = self.generators_[k]
            if isinstance(generator, tuple):
                _, center, scale = generator
                samples = center + rng.normal(0.0, scale, size=(count, self.n_input_features_))
                samples = np.clip(samples, 0.0, 1.0)
            else:
                samples = generator.sample(count, rng=rng)
            rows[mask] = samples
        return rows

    def privacy_spent(self) -> tuple:
        """Total guarantee: k-means budget + per-cluster generators (parallel)."""
        if self.generators_ is None:
            return (0.0, 0.0)
        generator_eps = max(
            (g.privacy_spent()[0] for g in self.generators_ if not isinstance(g, tuple)),
            default=0.0,
        )
        return (self.epsilon * KMEANS_BUDGET_FRACTION + generator_eps, self.delta)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        self._check_fitted()
        state = {
            "n_input_features": np.asarray(self.n_input_features_),
            "centroids": self.centroids_,
            "cluster_weights": self.cluster_weights_,
        }
        state.update(self._label_state_dict())
        for k, generator in enumerate(self.generators_):
            prefix = f"generator_{k}."
            if isinstance(generator, tuple):
                _, center, scale = generator
                state[prefix + "kind"] = np.asarray("gaussian")
                state[prefix + "center"] = np.asarray(center)
                state[prefix + "scale"] = np.asarray(scale)
            else:
                state[prefix + "kind"] = np.asarray("vae")
                state[prefix + "latent_dim"] = np.asarray(generator.latent_dim)
                state[prefix + "batch_size"] = np.asarray(generator.batch_size)
                state.update(pack_state(prefix + "state.", generator.state_dict()))
        return state

    def load_state_dict(self, state: dict) -> "DPGM":
        self.n_input_features_ = int(state["n_input_features"])
        self._load_label_state(state)
        self.centroids_ = np.asarray(state["centroids"])
        self.cluster_weights_ = np.asarray(state["cluster_weights"])
        generator_epsilon = self.epsilon * (1.0 - KMEANS_BUDGET_FRACTION)
        self.generators_ = []
        for k in range(self.n_clusters):
            prefix = f"generator_{k}."
            kind = state[prefix + "kind"].item()
            if kind == "gaussian":
                self.generators_.append(
                    ("gaussian", np.asarray(state[prefix + "center"]), float(state[prefix + "scale"]))
                )
                continue
            vae = DPVAE(
                latent_dim=int(state[prefix + "latent_dim"]),
                hidden=self.hidden,
                epochs=self.epochs,
                batch_size=int(state[prefix + "batch_size"]),
                learning_rate=self.learning_rate,
                epsilon=generator_epsilon,
                delta=self.delta,
                max_grad_norm=self.max_grad_norm,
                random_state=self._rng,
            )
            vae.load_state_dict(unpack_state(state, prefix + "state."))
            self.generators_.append(vae)
        return self

    def _check_fitted(self) -> None:
        if self.generators_ is None:
            raise RuntimeError("model is not fitted yet; call fit() first")
