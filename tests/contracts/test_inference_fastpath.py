"""The fused-inference fast-path contract, asserted for every registered model.

Sampling always decodes through the compiled tape-free plan
(:mod:`repro.nn.inference`), which promises **bit-identity** with the
autograd tape, not mere closeness.  The tape reference lives in the contract
kit (:func:`contract_kit.tape_decode_rows`) and is patched in where the
decoder models decode (``repro.models.decoder.decode_rows``).  This suite
pins the promise end to end, registry-driven like the rest of the kit:

- seeded ``sample`` / ``sample_labeled`` are byte-equal on the plan and on
  the tape, for every registered synthesizer;
- the identity holds through a released artifact (``save -> load -> sample``);
- it holds over HTTP: NDJSON and CSV response bodies are identical whether
  the server decodes through the tape or the compiled plans.
"""

import io
import json
import threading
from contextlib import contextmanager

import numpy as np
import pytest

import repro.models.decoder as decoder_module
from contract_kit import tape_decode_rows
from repro.models import PrivBayes
from repro.nn.inference import compiled_plan
from repro.obs import MetricsRegistry
from repro.server import ServingClient, SynthesisHTTPServer
from repro.serving import SynthesisService
from repro.serving.artifacts import load_artifact, save_artifact
from repro.serving.registry import registered_synthesizers
from repro.utils.logging import StructuredLogger

ALL_MODELS = registered_synthesizers()


@contextmanager
def _tape_decoding(decode=tape_decode_rows):
    """Decode through ``decode`` (the tape reference) instead of the plan."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoder_module, "decode_rows", decode)
        yield


def _tape_sample(model, n, seed):
    with _tape_decoding():
        return model.sample(n, rng=np.random.default_rng(seed))


def _fused_sample(model, n, seed):
    return model.sample(n, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("name", ALL_MODELS)
def test_every_neural_decoder_decodes_through_the_patch_point(
    name, fitted_contract_models
):
    # The comparisons below are only meaningful if the tape reference really
    # replaces the plan: every model with a neural decoder (all but the
    # Bayesian-network PrivBayes) must decode through
    # repro.models.decoder.decode_rows.
    model = fitted_contract_models[name]
    calls = []

    def counting_decode(*args):
        calls.append(len(args[1]))
        return tape_decode_rows(*args)

    with _tape_decoding(counting_decode):
        model.sample(60, rng=np.random.default_rng(0))
    assert bool(calls) == (not isinstance(model, PrivBayes))


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("n_samples", [1, 97])
def test_fused_sample_is_bit_identical_to_tape(
    name, n_samples, fitted_contract_models
):
    model = fitted_contract_models[name]
    tape = _tape_sample(model, n_samples, seed=11)
    fused = _fused_sample(model, n_samples, seed=11)
    assert tape.dtype == fused.dtype and tape.shape == fused.shape
    # tobytes() equality is stricter than array_equal: it distinguishes
    # -0.0 from +0.0, the classic fused-kernel divergence.
    assert tape.tobytes() == fused.tobytes()


@pytest.mark.parametrize("name", ALL_MODELS)
def test_fused_sample_labeled_is_bit_identical_to_tape(
    name, fitted_contract_models
):
    model = fitted_contract_models[name]
    with _tape_decoding():
        X_tape, y_tape = model.sample_labeled(
            41, rng=np.random.default_rng(5), generation_rng=np.random.default_rng(7)
        )
    X_fused, y_fused = model.sample_labeled(
        41, rng=np.random.default_rng(5), generation_rng=np.random.default_rng(7)
    )
    assert X_tape.tobytes() == X_fused.tobytes()
    assert np.array_equal(y_tape, y_fused)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_identity_holds_through_released_artifact(
    name, fitted_contract_models, tmp_path
):
    path = save_artifact(fitted_contract_models[name], tmp_path / name)
    clone = load_artifact(path)
    tape = _tape_sample(clone, 53, seed=3)
    fused = _fused_sample(clone, 53, seed=3)
    assert tape.tobytes() == fused.tobytes()
    # And the loaded model agrees with the original fitted one.
    assert fused.tobytes() == _fused_sample(fitted_contract_models[name], 53, 3).tobytes()


def test_load_state_dict_invalidates_the_compiled_plan(fitted_contract_models):
    model = fitted_contract_models["vae"]
    _fused_sample(model, 5, seed=1)  # materialise a plan for the decoder
    plan_before = compiled_plan(model.decoder)
    model.load_state_dict(model.state_dict())
    # load_state_dict rebuilds the decoder module, so the stale plan cannot
    # be reached; the fresh decoder compiles its own.
    _fused_sample(model, 5, seed=1)
    assert compiled_plan(model.decoder) is not plan_before


# ----------------------------------------------------------------------------------
# Over HTTP
# ----------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fastpath_artifact_root(tmp_path_factory, fitted_contract_models):
    """Every registered synthesizer, released (model space, no transformer)."""
    root = tmp_path_factory.mktemp("fastpath-artifacts")
    for name in ALL_MODELS:
        save_artifact(fitted_contract_models[name], root / name, name=name)
    return root


@contextmanager
def _serve(root, **server_kwargs):
    service = SynthesisService(artifact_root=root)
    server = SynthesisHTTPServer(
        ("127.0.0.1", 0),
        service,
        access_log=StructuredLogger(io.StringIO()),
        **server_kwargs,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, ServingClient(port=server.port)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _fetch(client, ref, payload, labeled=False):
    action = "sample_labeled" if labeled else "sample"
    status, _, body = client.request(
        "POST", f"/v1/models/{ref}/{action}", json.dumps(payload).encode()
    )
    assert status == 200, body
    return body


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
@pytest.mark.parametrize("name", ALL_MODELS)
def test_http_bodies_identical_fused_vs_tape(name, fmt, fastpath_artifact_root):
    payload = {"n_samples": 64, "seed": 9, "format": fmt}
    with _serve(fastpath_artifact_root, registry=MetricsRegistry()) as (_, client):
        # The server decodes on its own threads, in this process, through
        # the patched module attribute.
        with _tape_decoding():
            tape = _fetch(client, name, payload)
            tape_labeled = _fetch(client, name, payload, labeled=True)
        fused = _fetch(client, name, payload)
        fused_labeled = _fetch(client, name, payload, labeled=True)
    assert tape == fused
    assert tape_labeled == fused_labeled
