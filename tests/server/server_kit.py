"""Helpers for the HTTP tier tests: tiny models and a live-server context."""

import inspect
import io
import threading
from contextlib import contextmanager

from repro.server import ServingClient, SynthesisHTTPServer, WorkerPool
from repro.serving import SynthesisService
from repro.serving.registry import get_model_spec
from repro.utils.logging import StructuredLogger

#: Laptop-instant hyper-parameter overrides (mirrors tests/contracts).
TINY_OVERRIDES = {
    "latent_dim": 3,
    "hidden": (16,),
    "epochs": 1,
    "batch_size": 50,
    "n_mixture_components": 2,
    "em_iterations": 3,
    "n_clusters": 2,
    "min_cluster_size": 10,
    "epsilon": 3.0,
    "delta": 1e-5,
    "degree": 2,
}


def tiny_model(name: str, random_state: int = 0):
    """A miniature instance of a registered synthesizer, by introspection."""
    cls = get_model_spec(name).cls
    accepted = set(inspect.signature(cls.__init__).parameters)
    kwargs = {key: value for key, value in TINY_OVERRIDES.items() if key in accepted}
    if "random_state" in accepted:
        kwargs["random_state"] = random_state
    return cls(**kwargs)


@contextmanager
def serve_root(root, *, service_kwargs=None, **server_kwargs):
    """Run a :class:`SynthesisHTTPServer` over ``root`` for the block's duration.

    Yields ``(server, client, service)`` — the in-process service is the
    conformance reference the HTTP responses are compared against.
    """
    service = SynthesisService(artifact_root=root, **(service_kwargs or {}))
    server = SynthesisHTTPServer(
        ("127.0.0.1", 0),
        service,
        access_log=StructuredLogger(io.StringIO()),
        **server_kwargs,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, ServingClient(port=server.port), service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@contextmanager
def serve_pool(root, processes=2, *, service_kwargs=None, **server_kwargs):
    """Run a pre-fork :class:`WorkerPool` over ``root`` for the block's duration.

    Yields ``(pool, client, service)``; ``service`` is a supervisor-side
    in-process reference (its own cache, never shared with the workers) for
    byte-conformance comparisons.
    """
    kwargs = dict(service_kwargs or {})

    def make_service():
        return SynthesisService(artifact_root=root, **kwargs)

    server_kwargs.setdefault("access_log", StructuredLogger(io.StringIO()))
    pool = WorkerPool(
        ("127.0.0.1", 0),
        make_service,
        processes,
        server_kwargs=server_kwargs,
    )
    pool.start()
    client = ServingClient(port=pool.port)
    try:
        client.wait_until_ready(attempts=100, delay=0.1)
        yield pool, client, make_service()
    finally:
        pool.stop(graceful=False)
