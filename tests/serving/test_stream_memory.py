"""A streamed release's memory is bounded by its chunk, not by n.

``SynthesisService.stream`` decodes one chunk at a time, so its peak is about
one chunk's arrays, while a one-shot ``model.sample(n)`` materialises all n
rows and the decoder's activations for them.  Peaks are traced with
:mod:`tracemalloc` on a VAE released from the credit simulator.
"""

import tracemalloc

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.models import VAE
from repro.serving import SynthesisService, save_artifact

CHUNK_SIZE = 1024


@pytest.fixture(scope="module")
def credit_vae(tmp_path_factory):
    data = load_dataset("credit", n_samples=1500, random_state=0)
    model = VAE(latent_dim=10, hidden=(64,), epochs=1, batch_size=200, random_state=0)
    model.fit(data.X_train, data.y_train)
    return save_artifact(model, tmp_path_factory.mktemp("credit") / "vae-credit")


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def stream_peak_mb(service, ref, n_rows) -> float:
    def consume():
        rows = sum(len(chunk) for chunk in service.stream(ref, n_rows, seed=7))
        assert rows == n_rows

    return traced_peak_mb(consume)


def test_a_stream_peaks_below_half_the_one_shot_draw(credit_vae):
    service = SynthesisService(chunk_size=CHUNK_SIZE)
    service.get(credit_vae)  # loaded outside the trace
    streamed = stream_peak_mb(service, credit_vae, 20_000)
    # A second copy of the model: the one-shot draw's decoder buffers must
    # not be the ones the stream has already allocated, or the other way round.
    model = SynthesisService().get(credit_vae)
    oneshot = traced_peak_mb(lambda: model.sample(20_000, rng=np.random.default_rng(7)))
    assert streamed < oneshot / 2, f"stream {streamed:.2f} MB vs one-shot {oneshot:.2f} MB"


def test_a_large_stream_stays_within_128_mb(credit_vae):
    service = SynthesisService(chunk_size=CHUNK_SIZE)
    service.get(credit_vae)
    streamed = stream_peak_mb(service, credit_vae, 50_000)
    assert streamed <= 128.0, f"a 50,000-row stream peaked at {streamed:.2f} MB"
