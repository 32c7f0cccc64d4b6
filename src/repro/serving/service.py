"""Batched/streaming synthesis service over model artifacts.

:class:`SynthesisService` is the query side of the release story: artifacts
written by :func:`repro.serving.save_artifact` are loaded through a bounded
LRU cache and queried for synthetic rows.  Large requests are served as a
stream of bounded-size chunks, so ``n = 10_000_000`` never materialises one
dense array — peak memory is governed by ``chunk_size``, not ``n``.

Per-request seeds make draws reproducible: the same artifact, seed, and chunk
size always produce the same rows, independent of what other requests the
service has served before.

Sampling decodes through the fused inference fast path by default
(:mod:`repro.nn.inference`): compiled plans are cached weakly per decoder
module, so they ride the LRU entries here — evicting a model drops its plan,
and a reloaded artifact compiles a fresh one — and a streamed request reuses
one set of preallocated buffers across all of its equally-sized chunks.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from repro.models.base import label_quotas
from repro.obs import get_registry
from repro.serving.artifacts import (
    ArtifactError,
    load_artifact,
    load_transformer,
    manifest_privacy,
    read_manifest,
)
from repro.utils.rng import as_generator
from repro.utils.validation import check_n_samples, check_positive

__all__ = ["SynthesisService", "DEFAULT_CHUNK_SIZE"]

DEFAULT_CHUNK_SIZE = 8192


class SynthesisService:
    """Serve ``sample`` / ``sample_labeled`` requests from saved artifacts.

    Parameters
    ----------
    artifact_root:
        Optional base directory; references that are not absolute paths or
        registered names are resolved relative to it.
    cache_size:
        Maximum number of models held in memory at once (least recently used
        models are evicted first).
    chunk_size:
        Default number of rows per streamed chunk (the memory bound).

    **Concurrency contract.**  One service instance may be shared across
    threads (the HTTP tier in :mod:`repro.server` does exactly that): the
    registry, the LRU model cache, the transformer cache, and the hit/miss
    counters are guarded by a single reentrant lock, and cold loads run
    through **per-key load futures** — the lock is only ever held for map
    mutation, never through ``load_artifact``.  N threads racing on one cold
    key perform exactly one load (the losers wait on the winner's future and
    share its model or its error); cold loads for *distinct* keys proceed
    concurrently; and a cache hit never waits behind any cold load.
    *Seeded* streams are then safe to draw concurrently —
    each request owns its own :class:`numpy.random.Generator` and the models'
    ``sample(n, rng=...)`` path only reads fitted state.  Unseeded streams
    (``seed=None``) fall back to the model's internal generator, which is
    shared mutable state: callers that need concurrency without seeds must
    supply distinct seeds themselves (the HTTP tier draws a server-side seed
    per request for this reason).
    """

    def __init__(self, artifact_root=None, cache_size: int = 4, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 registry=None):
        check_positive(cache_size, "cache_size")
        check_positive(chunk_size, "chunk_size")
        self.artifact_root = None if artifact_root is None else Path(artifact_root)
        self.cache_size = int(cache_size)
        self.chunk_size = int(chunk_size)
        self._lock = threading.RLock()
        self._registry: dict = {}
        self._cache: OrderedDict = OrderedDict()
        self._loads: dict = {}  # key -> Future of an in-flight cold load
        self._transformers: dict = {}
        self._hits = 0
        self._misses = 0
        # Observability: per-instance hit/miss stats above feed cache_stats
        # (per-service, exact); the shared metric families below feed
        # /metrics and `python -m repro obs` (`registry` defaults to the
        # process-wide one).
        metrics = registry if registry is not None else get_registry()
        self._cache_events = metrics.counter(
            "repro_service_cache_events_total",
            "Model cache traffic (hit / miss / eviction), by event",
            labels=("event",),
        )
        self._load_seconds = metrics.histogram(
            "repro_service_artifact_load_seconds",
            "Cold artifact load latency in seconds",
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0),
        )
        self._chunk_seconds = metrics.histogram(
            "repro_service_chunk_seconds",
            "Per-chunk synthesis latency of streamed requests, by stream kind",
            labels=("stream",),
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        )

    # -- model resolution and caching ----------------------------------------------

    def register(self, name: str, path) -> None:
        """Register a short name for an artifact path."""
        with self._lock:
            self._registry[name] = Path(path)

    def resolve(self, ref) -> Path:
        """Resolve a registered name or path to an artifact directory.

        With an ``artifact_root`` configured, relative refs resolve strictly
        under it — never against the process's working directory, which
        would let a network-originated ref reach (or probe for) directories
        outside the root.  Absolute paths and registered names are the
        caller's explicit choice and resolve as given.
        """
        with self._lock:
            registered = self._registry.get(ref) if isinstance(ref, str) else None
        if registered is not None:
            return registered
        path = Path(ref)
        if not path.is_absolute() and self.artifact_root is not None:
            path = self.artifact_root / path
        if not path.exists():
            raise ArtifactError(f"no artifact found for {ref!r} (resolved to {path})")
        return path

    def get(self, ref):
        """Return the loaded model for ``ref``, loading through the LRU cache.

        Cold loads run under a **per-key future**, not the service lock: the
        first thread to miss becomes the loader, concurrent threads on the
        same key wait on its future (one load, shared result *and* shared
        failure), and threads on other keys — hits and distinct cold loads
        alike — are never blocked by it.
        """
        key = str(self.resolve(ref))
        with self._lock:
            if key in self._cache:
                self._hits += 1
                self._cache_events.inc(event="hit")
                self._cache.move_to_end(key)
                return self._cache[key]
            future = self._loads.get(key)
            if future is None:
                future = self._loads[key] = Future()
                loader = True
                self._misses += 1
                self._cache_events.inc(event="miss")
            else:
                # Joining an in-flight load: the model is already on its way
                # into memory, so this counts as a hit — and crucially the
                # wait below happens *outside* the lock.
                loader = False
                self._hits += 1
                self._cache_events.inc(event="hit")
        if not loader:
            return future.result()
        try:
            load_started = time.perf_counter()
            model = load_artifact(key)
            self._load_seconds.observe(time.perf_counter() - load_started)
        except BaseException as error:
            with self._lock:
                self._loads.pop(key, None)
            future.set_exception(error)
            raise
        with self._lock:
            self._loads.pop(key, None)
            self._cache[key] = model
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                evicted, _ = self._cache.popitem(last=False)
                self._transformers.pop(evicted, None)
                self._cache_events.inc(event="eviction")
        future.set_result(model)
        return model

    def transformer(self, ref):
        """The artifact's fitted preprocessing pipeline (``None`` if absent).

        Cached alongside the model so repeated original-space requests do not
        re-read ``transformer.npz``.
        """
        key = str(self.resolve(ref))
        with self._lock:
            if key not in self._transformers:
                self._transformers[key] = load_transformer(key)
            return self._transformers[key]

    def manifest(self, ref) -> dict:
        """The artifact's manifest (no weights are loaded)."""
        return read_manifest(self.resolve(ref))

    def evict(self, ref=None) -> None:
        """Drop one model (or all of them) from the cache."""
        with self._lock:
            if ref is None:
                self._cache_events.inc(len(self._cache), event="eviction")
                self._cache.clear()
                self._transformers.clear()
                return
            key = str(self.resolve(ref))
            if self._cache.pop(key, None) is not None:
                self._cache_events.inc(event="eviction")
            self._transformers.pop(key, None)

    @property
    def cache_stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._cache),
                "capacity": self.cache_size,
                "hits": self._hits,
                "misses": self._misses,
                "cached": list(self._cache),
            }

    # -- introspection --------------------------------------------------------------

    def describe(self, ref) -> dict:
        """A JSON-safe summary of one artifact, from its manifest alone.

        No weights are loaded.  The ``privacy`` entry is kept in the
        manifest's JSON-safe encoding (non-finite epsilon as a string), and
        ``cached`` reports whether the model currently sits in the LRU cache.
        """
        path = self.resolve(ref)
        manifest = read_manifest(path)
        manifest_privacy(manifest)  # validate the recorded (epsilon, delta)
        schema = manifest.get("schema") or {}
        with self._lock:
            cached = str(path) in self._cache
        return {
            "ref": str(ref),
            "name": manifest.get("name"),
            "model_class": manifest["model_class"],
            "format_version": manifest["format_version"],
            "created_at": manifest.get("created_at"),
            "privacy": manifest["privacy"],
            "schema": schema,
            "labeled": schema.get("classes") is not None,
            "original_space": manifest.get("transformer") is not None,
            "hyperparameters": manifest["hyperparameters"],
            "metadata": manifest.get("metadata", {}),
            "cached": cached,
        }

    def available(self) -> list:
        """Sorted refs this service can serve: registered names plus every
        artifact directory (one containing ``manifest.json``) directly under
        ``artifact_root``."""
        with self._lock:
            refs = set(self._registry)
        if self.artifact_root is not None and self.artifact_root.is_dir():
            for child in self.artifact_root.iterdir():
                if (child / "manifest.json").is_file():
                    refs.add(child.name)
        return sorted(refs)

    # -- synthesis ------------------------------------------------------------------

    def _open_request(self, ref, n_samples, chunk_size):
        """Shared stream prologue: validate, resolve the model, build the rng."""
        n_samples = check_n_samples(n_samples)
        chunk_size = self.chunk_size if chunk_size is None else int(
            check_positive(chunk_size, "chunk_size")
        )
        return n_samples, chunk_size, self.get(ref)

    def _request_rng(self, seed) -> Optional[np.random.Generator]:
        return None if seed is None else as_generator(seed)

    def _inverse(self, ref, original_space: bool, model):
        """The per-chunk decoder for original-space requests (or ``None``)."""
        if not original_space:
            return None
        transformer = self.transformer(ref)
        if transformer is None:
            raise ArtifactError(
                f"artifact {ref!r} was released without a preprocessing "
                "transformer; original-space output is unavailable"
            )
        width = transformer.output_width

        def decode(chunk):
            # Labelled mixin models return features *plus* the one-hot label
            # block from raw sample(); only the feature columns are the
            # transformer's model space.  Any other width mismatch falls
            # through to inverse_transform's own error.
            if chunk.shape[1] != width:
                label_block = getattr(model, "_label_block_width", None)
                if callable(label_block) and chunk.shape[1] == width + label_block():
                    chunk = chunk[:, :width]
            return transformer.inverse_transform(chunk)

        return decode

    def stream(
        self,
        ref,
        n_samples: int,
        seed=None,
        chunk_size: Optional[int] = None,
        original_space: bool = False,
    ) -> Iterator[np.ndarray]:
        """Yield synthetic feature rows in chunks of at most ``chunk_size``.

        The generator draws lazily, so peak memory is one chunk (plus the
        model), regardless of ``n_samples``.  With ``original_space=True``
        each chunk is decoded through the artifact's fitted transformer —
        category labels and raw numeric ranges instead of the model-space
        ``[0, 1]`` matrix (requires the artifact to carry one).
        """
        n_samples, chunk_size, model = self._open_request(ref, n_samples, chunk_size)
        inverse = self._inverse(ref, original_space, model)
        rng = self._request_rng(seed)

        def generate():
            remaining = n_samples
            while remaining > 0:
                take = min(chunk_size, remaining)
                chunk_started = time.perf_counter()
                chunk = model.sample(take, rng=rng)
                if inverse is not None:
                    chunk = inverse(chunk)
                self._chunk_seconds.observe(
                    time.perf_counter() - chunk_started, stream="sample"
                )
                yield chunk
                remaining -= take

        return generate()

    def stream_labeled(
        self,
        ref,
        n_samples: int,
        seed=None,
        chunk_size: Optional[int] = None,
        original_space: bool = False,
    ) -> Iterator[tuple]:
        """Yield ``(X, y)`` chunks whose *totals* match the training label ratio.

        Per-chunk class counts are allocated against the whole request's
        quotas (monotone cumulative rounding), not re-rounded per chunk —
        otherwise any class with ratio below ``0.5 / chunk_size`` would be
        rounded to zero in every chunk and silently vanish from the release.
        ``original_space=True`` decodes each feature chunk through the
        artifact's fitted transformer (labels are emitted as-is either way).
        """
        n_samples, chunk_size, model = self._open_request(ref, n_samples, chunk_size)
        inverse = self._inverse(ref, original_space, model)
        rng = self._request_rng(seed)
        ratio = getattr(model, "_label_ratio", None)
        if ratio is None:
            raise ArtifactError(
                f"model {ref!r} was trained without labels; use stream() instead"
            )
        total_quotas = label_quotas(ratio, n_samples)

        def generate():
            emitted = np.zeros_like(total_quotas)
            served = 0
            while served < n_samples:
                take = min(chunk_size, n_samples - served)
                served += take
                # Monotone cumulative targets guarantee non-negative chunk
                # counts; the floor shortfall (< n_classes rows) is topped up
                # from the classes with the most remaining headroom.
                cumulative = (total_quotas * served) // n_samples
                counts = np.maximum(cumulative - emitted, 0)
                for _ in range(int(take - counts.sum())):
                    counts[np.argmax(total_quotas - (emitted + counts))] += 1
                emitted += counts
                chunk_started = time.perf_counter()
                features, labels = model.sample_labeled(
                    take, rng=rng, generation_rng=rng, class_counts=counts
                )
                if inverse is not None:
                    features = inverse(features)
                self._chunk_seconds.observe(
                    time.perf_counter() - chunk_started, stream="sample_labeled"
                )
                yield features, labels

        return generate()

    def open_release(
        self,
        ref,
        n_samples: int,
        *,
        labeled: bool,
        seed=None,
        chunk_size: Optional[int] = None,
        model_space: bool = False,
    ) -> tuple:
        """The chunk iterator and CSV column names of one release request.

        ``repro sample`` and ``POST .../sample`` both open their streams here,
        so the two release the same rows under the same names: original-space
        rows under the schema's names when the artifact carries a transformer
        (unless ``model_space``), model-space ``feature_i`` columns
        otherwise, and a trailing ``label`` column for a labelled release.
        The stream is built eagerly, so a bad request raises here, before any
        byte is written.
        """
        transformer = self.transformer(ref)
        original = transformer is not None and not model_space
        stream = (self.stream_labeled if labeled else self.stream)(
            ref, n_samples, seed=seed, chunk_size=chunk_size, original_space=original
        )
        if original:
            names = list(transformer.schema.names)
        else:
            model = self.get(ref)
            width = getattr(model, "n_feature_columns", None) if labeled else None
            if width is None:
                width = int(model.n_input_features_)
            names = [f"feature_{index}" for index in range(width)]
        if labeled:
            names = names + ["label"]
        return stream, names

    def sample(self, ref, n_samples: int, seed=None, chunk_size: Optional[int] = None) -> np.ndarray:
        """Materialised convenience wrapper around :meth:`stream`."""
        return np.vstack(list(self.stream(ref, n_samples, seed=seed, chunk_size=chunk_size)))

    def sample_labeled(self, ref, n_samples: int, seed=None, chunk_size: Optional[int] = None):
        """Materialised convenience wrapper around :meth:`stream_labeled`."""
        chunks = list(self.stream_labeled(ref, n_samples, seed=seed, chunk_size=chunk_size))
        X = np.vstack([chunk[0] for chunk in chunks])
        y = np.concatenate([chunk[1] for chunk in chunks])
        return X, y

    def privacy(self, ref) -> tuple:
        """The ``(epsilon, delta)`` guarantee of a released model."""
        from repro.serving.artifacts import manifest_privacy

        return manifest_privacy(self.manifest(ref))
