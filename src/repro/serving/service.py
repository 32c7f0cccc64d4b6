"""Batched/streaming synthesis service over model artifacts.

:class:`SynthesisService` is the query side of the release story: artifacts
written by :func:`repro.serving.save_artifact` are loaded through a bounded
LRU cache — one entry per artifact, holding its model and its fitted
transformer, loaded together — and queried for synthetic rows.  Large
requests are served as a stream of bounded-size chunks, so
``n = 10_000_000`` never materialises one dense array — peak memory is
governed by ``chunk_size``, not ``n``.

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
from typing import Iterator, NamedTuple, Optional

import numpy as np

from repro.models.base import label_quotas
from repro.obs import get_registry
from repro.serving.artifacts import (
    MANIFEST_FILENAME,
    ArtifactError,
    load_release,
    manifest_privacy,
    read_manifest,
)
from repro.utils.rng import as_generator
from repro.utils.validation import check_n_samples, check_positive

__all__ = ["SynthesisService", "DEFAULT_CHUNK_SIZE"]

DEFAULT_CHUNK_SIZE = 8192


class _Entry(NamedTuple):
    """One cached artifact: its model and its transformer (``None`` if absent)."""

    model: object
    transformer: object


class SynthesisService:
    """Serve ``sample`` / ``sample_labeled`` requests from saved artifacts.

    Parameters
    ----------
    artifact_root:
        Optional base directory; references that are not absolute paths are
        resolved relative to it.
    cache_size:
        Maximum number of artifacts held in memory at once (least recently
        used artifacts are evicted first).
    chunk_size:
        Default number of rows per streamed chunk (the memory bound).

    **Concurrency contract.**  One service instance may be shared across
    threads (the HTTP tier in :mod:`repro.server` does exactly that).  The
    LRU cache holds one entry per artifact — its model and its transformer —
    and it and the hit/miss counters are guarded by a single lock, held only
    for map mutation: nothing is read from disk under it.  Cold loads run
    through **per-key load futures**, one per artifact, which read the model
    and the transformer together.  N threads racing on one cold key perform
    exactly one load (the losers wait on the winner's future and share its
    entry or its error); cold loads for *distinct* keys proceed
    concurrently; and a cache hit never waits behind any cold load.
    *Seeded* streams are then safe to draw concurrently —
    each request owns its own :class:`numpy.random.Generator` and the models'
    ``sample(n, rng=...)`` path only reads fitted state.  Unseeded streams
    (``seed=None``) fall back to the model's internal generator, which is
    shared mutable state: callers that need concurrency without seeds must
    supply distinct seeds themselves (the HTTP tier draws a server-side seed
    per request for this reason).

    **Cache statistics** count lookups: every :meth:`get` is one (a hit when
    the artifact is resident or already loading, a miss when it starts the
    load), and every load is counted as a miss.  :meth:`open_release` —
    every CLI and HTTP release — makes one lookup, through :meth:`get`; the
    reads its stream is built from find the entry resident and count
    nothing more, unless another request evicted it in between.
    :meth:`stream`, :meth:`stream_labeled` and :meth:`transformer` called on
    their own count only when the artifact is not resident.
    """

    def __init__(self, artifact_root=None, cache_size: int = 4, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 registry=None):
        check_positive(cache_size, "cache_size")
        check_positive(chunk_size, "chunk_size")
        self.artifact_root = None if artifact_root is None else Path(artifact_root)
        self.cache_size = int(cache_size)
        self.chunk_size = int(chunk_size)
        self._lock = threading.Lock()
        self._cache: OrderedDict = OrderedDict()  # key -> _Entry
        self._loads: dict = {}  # key -> Future of an in-flight cold load
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

    def resolve(self, ref) -> Path:
        """Resolve a ref (a path) to an artifact directory.

        With an ``artifact_root`` configured, relative refs resolve strictly
        under it — never against the process's working directory, which
        would let a network-originated ref reach (or probe for) directories
        outside the root.  Absolute paths are the caller's explicit choice
        and resolve as given.
        """
        path = Path(ref)
        if not path.is_absolute() and self.artifact_root is not None:
            path = self.artifact_root / path
        if not path.exists():
            raise ArtifactError(f"no artifact found for {ref!r} (resolved to {path})")
        return path

    def get(self, ref):
        """Return the loaded model for ``ref``: one counted cache lookup.

        Cold loads run under a **per-key future**, not the service lock: the
        first thread to miss becomes the loader and reads the model and its
        transformer together, concurrent threads on the same key wait on its
        future (one load, shared result *and* shared failure), and threads
        on other keys — hits and distinct cold loads alike — are never
        blocked by it.
        """
        return self._lookup(str(self.resolve(ref))).model

    def _lookup(self, key: str) -> _Entry:
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._count("hit")
                self._cache.move_to_end(key)
                return entry
            future = self._loads.get(key)
            loader = future is None
            if loader:
                future = self._loads[key] = Future()
            # Joining an in-flight load counts as a hit: the artifact is
            # already on its way into memory (and the wait below happens
            # outside the lock).
            self._count("miss" if loader else "hit")
        if not loader:
            return future.result()
        try:
            load_started = time.perf_counter()
            entry = _Entry(*load_release(key)[:2])
            self._load_seconds.observe(time.perf_counter() - load_started)
        except BaseException as error:
            with self._lock:
                self._loads.pop(key, None)
            future.set_exception(error)
            raise
        with self._lock:
            self._loads.pop(key, None)
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                self._cache_events.inc(event="eviction")
        future.set_result(entry)
        return entry

    def _count(self, event: str) -> None:
        """Record one lookup (``hit`` or ``miss``); called under the lock."""
        if event == "hit":
            self._hits += 1
        else:
            self._misses += 1
        self._cache_events.inc(event=event)

    def _entry(self, ref) -> _Entry:
        """The cache entry of ``ref``: read uncounted when resident, else looked up."""
        key = str(self.resolve(ref))
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                return entry
        return self._lookup(key)

    def transformer(self, ref):
        """The artifact's fitted preprocessing pipeline (``None`` if absent),
        read off its cache entry."""
        return self._entry(ref).transformer

    def evict(self, ref=None) -> None:
        """Drop one artifact (or all of them) from the cache."""
        key = None if ref is None else str(self.resolve(ref))
        with self._lock:
            if key is None:
                self._cache_events.inc(len(self._cache), event="eviction")
                self._cache.clear()
            elif self._cache.pop(key, None) is not None:
                self._cache_events.inc(event="eviction")

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
        ``cached`` reports whether the artifact currently sits in the LRU cache.
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
        """Sorted refs this service can serve: every artifact directory (one
        containing ``manifest.json``) directly under ``artifact_root``."""
        if self.artifact_root is None or not self.artifact_root.is_dir():
            return []
        return sorted(
            child.name
            for child in self.artifact_root.iterdir()
            if (child / MANIFEST_FILENAME).is_file()
        )

    # -- synthesis ------------------------------------------------------------------

    def _open_request(self, ref, n_samples, chunk_size, original_space: bool):
        """Shared stream prologue: validate, read the artifact's entry, and
        build the per-chunk decoder of an original-space request (or ``None``)."""
        n_samples = check_n_samples(n_samples)
        chunk_size = self.chunk_size if chunk_size is None else int(
            check_positive(chunk_size, "chunk_size")
        )
        model, transformer = self._entry(ref)
        if not original_space:
            return n_samples, chunk_size, model, None
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

        return n_samples, chunk_size, model, decode

    def _request_rng(self, seed) -> Optional[np.random.Generator]:
        return None if seed is None else as_generator(seed)

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
        n_samples, chunk_size, model, inverse = self._open_request(
            ref, n_samples, chunk_size, original_space
        )
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
        n_samples, chunk_size, model, inverse = self._open_request(
            ref, n_samples, chunk_size, original_space
        )
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
        byte is written.  The request makes one counted cache lookup, through
        :meth:`get`; the stream is then built from the resident entry.
        """
        model = self.get(ref)
        transformer = self.transformer(ref)
        original = transformer is not None and not model_space
        stream = (self.stream_labeled if labeled else self.stream)(
            ref, n_samples, seed=seed, chunk_size=chunk_size, original_space=original
        )
        if original:
            names = list(transformer.schema.names)
        else:
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
