"""An HTTP stream's memory is bounded by its chunk, not by n.

The server encodes and writes one chunk at a time.  A client that reads a
large response incrementally therefore never makes the process hold the whole
request: traced with :mod:`tracemalloc`, server and client threads together
peak well below a one-shot in-process ``model.sample(n)`` of the same size.
"""

import http.client
import json
import tracemalloc

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.models import VAE
from repro.serving import SynthesisService, save_artifact
from server_kit import serve_root

N_ROWS = 20_000
CHUNK_SIZE = 256


@pytest.fixture(scope="module")
def credit_root(tmp_path_factory):
    data = load_dataset("credit", n_samples=1500, random_state=0)
    model = VAE(latent_dim=10, hidden=(64,), epochs=1, batch_size=200, random_state=0)
    model.fit(data.X_train, data.y_train)
    root = tmp_path_factory.mktemp("http-credit")
    save_artifact(model, root / "vae-credit")
    return root


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def read_stream(port: int) -> None:
    """POST one NDJSON sample request and read the body in 64 KiB pieces."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = json.dumps({"n_samples": N_ROWS, "seed": 7, "chunk_size": CHUNK_SIZE})
        conn.request("POST", "/v1/models/vae-credit/sample", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 200
        rows = 0
        while piece := response.read(1 << 16):
            rows += piece.count(b"\n")
        assert rows == N_ROWS
    finally:
        conn.close()


def test_an_http_stream_peaks_below_half_the_one_shot_draw(credit_root):
    with serve_root(credit_root) as (server, _, _):
        streamed = traced_peak_mb(lambda: read_stream(server.port))
    model = SynthesisService(artifact_root=credit_root).get("vae-credit")
    oneshot = traced_peak_mb(lambda: model.sample(N_ROWS, rng=np.random.default_rng(7)))
    assert streamed < oneshot / 2, f"HTTP stream {streamed:.2f} MB vs one-shot {oneshot:.2f} MB"
