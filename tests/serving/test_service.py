"""SynthesisService tests: LRU cache, bounded streaming, per-request seeds,
and the documented concurrency contract."""

import threading

import numpy as np
import pytest

from repro.serving import ArtifactError, SynthesisService, save_artifact


@pytest.fixture(scope="module")
def artifact_root(fitted_models, tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    for name in ("vae", "pgm", "privbayes"):
        save_artifact(fitted_models[name], root / name)
    return root


class TestResolutionAndCache:
    def test_resolves_relative_to_artifact_root(self, artifact_root):
        service = SynthesisService(artifact_root=artifact_root)
        assert service.sample("vae", 5, seed=0).shape[0] == 5

    def test_missing_artifact_raises(self, artifact_root):
        service = SynthesisService(artifact_root=artifact_root)
        with pytest.raises(ArtifactError, match="no artifact found"):
            service.get("nope")

    def test_relative_refs_never_fall_back_to_the_working_directory(
        self, artifact_root, tmp_path, monkeypatch
    ):
        # With a root configured, a relative ref that is missing under it
        # must not resolve against the process cwd — that would let
        # network-originated refs probe/serve directories outside the root.
        other = tmp_path / "cwd"
        (other / "escapee").mkdir(parents=True)
        monkeypatch.chdir(other)
        service = SynthesisService(artifact_root=artifact_root)
        with pytest.raises(ArtifactError, match="no artifact found"):
            service.resolve("escapee")

    def test_cache_hits_return_the_same_object(self, artifact_root):
        service = SynthesisService(artifact_root=artifact_root, cache_size=2)
        first = service.get("vae")
        second = service.get("vae")
        assert first is second
        assert service.cache_stats["hits"] == 1
        assert service.cache_stats["misses"] == 1

    def test_lru_eviction_is_bounded_and_evicts_least_recent(self, artifact_root):
        service = SynthesisService(artifact_root=artifact_root, cache_size=2)
        vae = service.get("vae")
        service.get("pgm")
        service.get("vae")  # refresh: pgm is now least recently used
        service.get("privbayes")  # evicts pgm
        stats = service.cache_stats
        assert stats["size"] == 2
        assert [name.split("/")[-1] for name in stats["cached"]] == ["vae", "privbayes"]
        assert service.get("vae") is vae  # still cached
        service.evict()
        assert service.cache_stats["size"] == 0


class TestStreaming:
    def test_chunks_are_bounded_and_cover_the_request(self, artifact_root):
        service = SynthesisService(artifact_root=artifact_root)
        chunks = list(service.stream("vae", 10, seed=0, chunk_size=4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]

    def test_same_seed_and_chunking_is_reproducible(self, artifact_root):
        service = SynthesisService(artifact_root=artifact_root)
        a = service.sample("vae", 20, seed=123, chunk_size=8)
        b = service.sample("vae", 20, seed=123, chunk_size=8)
        c = service.sample("vae", 20, seed=124, chunk_size=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        # Reproducibility is independent of earlier requests on the service.
        service.sample("vae", 7, seed=9)
        assert np.array_equal(service.sample("vae", 20, seed=123, chunk_size=8), a)

    def test_labeled_streaming_matches_ratio_per_chunk(self, artifact_root, fitted_models):
        service = SynthesisService(artifact_root=artifact_root)
        chunks = list(service.stream_labeled("vae", 40, seed=0, chunk_size=20))
        assert len(chunks) == 2
        X, y = service.sample_labeled("vae", 40, seed=0, chunk_size=20)
        assert X.shape == (40, fitted_models["vae"].n_feature_columns)
        assert y.shape == (40,)
        assert set(np.unique(y)) <= {0, 1}

    def test_chunked_streaming_preserves_rare_classes(self, tmp_path):
        # A class with ratio < 0.5/chunk_size would round to zero in every
        # chunk under naive per-chunk quotas; the service must allocate chunk
        # counts against the whole request's quota instead.
        from repro.models import VAE

        rng = np.random.default_rng(0)
        X = np.clip(0.5 + 0.1 * rng.normal(size=(500, 5)), 0, 1)
        y = np.zeros(500, dtype=int)
        y[:2] = 1  # minority ratio 0.004
        model = VAE(latent_dim=2, hidden=(8,), epochs=1, batch_size=100, random_state=0)
        save_artifact(model.fit(X, y), tmp_path / "rare")

        service = SynthesisService(artifact_root=tmp_path)
        _, labels = service.sample_labeled("rare", 1000, seed=0, chunk_size=100)
        counts = {int(c): int(n) for c, n in zip(*np.unique(labels, return_counts=True))}
        assert counts == {0: 996, 1: 4}

    def test_invalid_requests_raise_the_shared_error(self, artifact_root):
        service = SynthesisService(artifact_root=artifact_root)
        with pytest.raises(ValueError, match="n_samples must be a positive integer"):
            list(service.stream("vae", 0))
        with pytest.raises(ValueError, match="n_samples must be a positive integer"):
            service.sample("vae", 2.5)


class TestDescribe:
    def test_describe_summarises_the_manifest_without_loading_weights(self, artifact_root):
        service = SynthesisService(artifact_root=artifact_root)
        description = service.describe("vae")
        assert description["model_class"] == "VAE"
        assert description["labeled"] is True
        assert description["original_space"] is False  # no transformer saved
        assert description["cached"] is False  # describe never loads the model
        service.get("vae")
        assert service.describe("vae")["cached"] is True

    def test_available_lists_the_artifact_directories_under_the_root(
        self, artifact_root
    ):
        service = SynthesisService(artifact_root=artifact_root)
        assert service.available() == ["pgm", "privbayes", "vae"]
        assert SynthesisService().available() == []


class TestConcurrencyContract:
    def _count_loads(self, monkeypatch, delay: float = 0.01):
        """Patch the service module's load_release with a slowed, counting stub."""
        import time

        import repro.serving.service as service_module

        calls = []
        real = service_module.load_release

        def counting(path):
            calls.append(path)
            time.sleep(delay)  # widen the would-be double-load window
            return real(path)

        monkeypatch.setattr(service_module, "load_release", counting)
        return calls

    def test_hammering_one_ref_on_a_size_1_cache_loads_once(
        self, artifact_root, monkeypatch
    ):
        calls = self._count_loads(monkeypatch)
        service = SynthesisService(artifact_root=artifact_root, cache_size=1)
        n_threads, gets_per_thread = 8, 5
        barrier = threading.Barrier(n_threads)
        seen = []

        def worker():
            barrier.wait()
            for _ in range(gets_per_thread):
                seen.append(service.get("vae"))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(calls) == 1  # no double-loads despite the race window
        assert len({id(model) for model in seen}) == 1
        stats = service.cache_stats
        assert stats["misses"] == 1
        assert stats["hits"] == n_threads * gets_per_thread - 1
        assert stats["size"] == 1

    def test_eviction_churn_keeps_stats_consistent(self, artifact_root, monkeypatch):
        # Two refs fighting over a cache of one: every get is a miss-or-hit,
        # every miss is exactly one load, and the cache never exceeds its cap.
        calls = self._count_loads(monkeypatch, delay=0.001)
        service = SynthesisService(artifact_root=artifact_root, cache_size=1)
        n_threads, gets_per_thread = 6, 8
        barrier = threading.Barrier(n_threads)

        def worker(index):
            ref = ("vae", "pgm")[index % 2]
            barrier.wait()
            for _ in range(gets_per_thread):
                service.get(ref)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = service.cache_stats
        assert stats["hits"] + stats["misses"] == n_threads * gets_per_thread
        assert stats["misses"] == len(calls)
        assert stats["size"] == 1

    def test_releases_under_eviction_churn_count_every_load_as_a_miss(
        self, artifact_root, monkeypatch
    ):
        # Two refs fighting over a cache of one, through open_release: a
        # stream's entry read may find its artifact evicted since the
        # request's lookup and reload it, but every load is a counted miss
        # and every release still draws the serial bytes.
        import sys

        refs = ("vae", "pgm")
        reference = {
            ref: SynthesisService(artifact_root=artifact_root).sample(
                ref, 12, seed=3, chunk_size=5
            )
            for ref in refs
        }
        calls = self._count_loads(monkeypatch, delay=0.001)
        service = SynthesisService(artifact_root=artifact_root, cache_size=1)
        n_threads, releases_per_thread = 6, 6
        barrier = threading.Barrier(n_threads)
        results = []

        def worker(index):
            ref = refs[index % 2]
            barrier.wait()
            for _ in range(releases_per_thread):
                stream, _ = service.open_release(
                    ref, 12, labeled=False, seed=3, chunk_size=5
                )
                results.append((ref, np.vstack(list(stream))))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == n_threads * releases_per_thread
        for ref, rows in results:
            assert np.array_equal(rows, reference[ref])
        stats = service.cache_stats
        assert stats["misses"] == len(calls)
        assert stats["hits"] + stats["misses"] >= n_threads * releases_per_thread
        assert stats["size"] == 1

    def test_concurrent_seeded_streams_match_serial_draws(self, artifact_root):
        service = SynthesisService(artifact_root=artifact_root)
        jobs = [(seed, 30, 8) for seed in (0, 1, 2, 0, 1, 2, 3, 3)]
        serial = [
            service.sample("vae", n, seed=seed, chunk_size=chunk)
            for seed, n, chunk in jobs
        ]
        results = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def worker(index):
            seed, n, chunk = jobs[index]
            barrier.wait()
            results[index] = service.sample("vae", n, seed=seed, chunk_size=chunk)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for got, want in zip(results, serial):
            assert np.array_equal(got, want)


class TestLoadFutures:
    """The per-key load-future refactor: cold loads serialize per key, not
    per service — a slow load on one ref must never block traffic on another."""

    def _gate_loads(self, monkeypatch, blocked_ref: str):
        """Patch load_release so loads of ``blocked_ref`` park on an event.

        Returns ``(started, release, calls)``: ``started`` fires when the
        blocked load begins, ``release`` lets it finish, ``calls`` counts
        every load.
        """
        import repro.serving.service as service_module

        real = service_module.load_release
        started, release = threading.Event(), threading.Event()
        calls = []

        def gated(path):
            calls.append(path)
            if str(path).endswith(blocked_ref):
                started.set()
                assert release.wait(timeout=30), "gated load was never released"
            return real(path)

        monkeypatch.setattr(service_module, "load_release", gated)
        return started, release, calls

    def test_slow_cold_load_does_not_block_hits_on_other_keys(
        self, artifact_root, monkeypatch
    ):
        import time

        service = SynthesisService(artifact_root=artifact_root, cache_size=2)
        warm = service.get("pgm")  # resident before the slow load begins
        started, release, _ = self._gate_loads(monkeypatch, blocked_ref="vae")

        loader = threading.Thread(target=service.get, args=("vae",))
        loader.start()
        try:
            assert started.wait(timeout=10)
            # The cold load is parked inside load_release right now; a cache
            # hit on the other key must come back immediately — the map lock
            # is only held for bookkeeping, never through a load.
            began = time.perf_counter()
            assert service.get("pgm") is warm
            elapsed = time.perf_counter() - began
            assert loader.is_alive()  # the slow load really was in flight
            assert elapsed < 2.0
        finally:
            release.set()
            loader.join(timeout=30)
        assert not loader.is_alive()

    def test_slow_transformer_load_does_not_block_hits_on_other_keys(
        self, artifact_root, monkeypatch
    ):
        # The transformer is read by the same per-key load as the model, not
        # under the service lock: a hit on a resident artifact comes back at
        # once while another artifact's transformer.npz is still being read.
        import time

        import repro.serving.artifacts as artifacts_module

        real = artifacts_module._transformer_from
        started, release = threading.Event(), threading.Event()

        def gated(path, manifest):
            if str(path).endswith("vae"):
                started.set()
                release.wait(timeout=5)
            return real(path, manifest)

        monkeypatch.setattr(artifacts_module, "_transformer_from", gated)
        service = SynthesisService(artifact_root=artifact_root, cache_size=2)
        warm = service.get("pgm")
        reader = threading.Thread(target=service.transformer, args=("vae",))
        reader.start()
        try:
            assert started.wait(timeout=10)
            began = time.perf_counter()
            assert service.get("pgm") is warm
            elapsed = time.perf_counter() - began
        finally:
            release.set()
            reader.join(timeout=30)
        assert elapsed < 1.0

    def test_distinct_cold_keys_load_concurrently(self, artifact_root, monkeypatch):
        import repro.serving.service as service_module

        real = service_module.load_release
        rendezvous = threading.Barrier(2, timeout=15)

        def meeting(path):
            # Both cold loads must be inside load_release at the same time;
            # lock-through-load would deadlock this barrier (and time out).
            rendezvous.wait()
            return real(path)

        monkeypatch.setattr(service_module, "load_release", meeting)
        service = SynthesisService(artifact_root=artifact_root, cache_size=2)
        results = {}
        threads = [
            threading.Thread(target=lambda r=ref: results.update({r: service.get(r)}))
            for ref in ("vae", "pgm")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not rendezvous.broken
        assert set(results) == {"vae", "pgm"}
        assert service.cache_stats["misses"] == 2

    def test_eviction_during_in_flight_load_stays_consistent(
        self, artifact_root, monkeypatch
    ):
        # Size-1 cache: while vae's load is parked, pgm loads and occupies the
        # only slot; vae's insert then evicts pgm.  Every stat stays exact.
        started, release, calls = self._gate_loads(monkeypatch, blocked_ref="vae")
        service = SynthesisService(artifact_root=artifact_root, cache_size=1)

        loaded = {}
        loader = threading.Thread(
            target=lambda: loaded.update(vae=service.get("vae"))
        )
        loader.start()
        try:
            assert started.wait(timeout=10)
            service.get("pgm")  # fills the slot mid-load
        finally:
            release.set()
            loader.join(timeout=30)

        stats = service.cache_stats
        assert stats["size"] == 1
        assert stats["misses"] == 2
        assert len(calls) == 2
        assert [key.rsplit("/", 1)[-1] for key in stats["cached"]] == ["vae"]
        # The in-flight load's result is served from cache afterwards.
        assert service.get("vae") is loaded["vae"]
        assert service.cache_stats["hits"] == 1

    def test_failed_load_does_not_poison_the_key(self, artifact_root, monkeypatch):
        import repro.serving.service as service_module

        real = service_module.load_release
        failures = [RuntimeError("transient artifact store hiccup")]

        def flaky(path):
            if failures:
                raise failures.pop()
            return real(path)

        monkeypatch.setattr(service_module, "load_release", flaky)
        service = SynthesisService(artifact_root=artifact_root, cache_size=2)
        with pytest.raises(RuntimeError, match="hiccup"):
            service.get("vae")
        # The failed future is discarded: the next get retries the load
        # instead of replaying a cached exception forever.
        assert service.get("vae") is service.get("vae")
        assert service.cache_stats["misses"] == 2
