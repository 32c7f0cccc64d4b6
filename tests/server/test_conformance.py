"""HTTP <-> in-process conformance: the network tier adds transport, not drift.

For every registered synthesizer, a seeded ``POST /sample`` body must decode
to arrays **bit-identical** to ``SynthesisService.sample(ref, n, seed=s)`` —
in model space, in original space (through the artifact's stored
transformer), and for labelled streams including exact per-class counts.
"""

import json

import numpy as np
import pytest

from repro.server.protocol import to_jsonable
from repro.serving.artifacts import read_manifest
from repro.serving.registry import registered_synthesizers
from server_kit import serve_root

N, SEED, CHUNK = 37, 11, 16

MODELS = registered_synthesizers()


@pytest.fixture(scope="module")
def http(mixed_artifact_root):
    with serve_root(mixed_artifact_root, workers=4) as running:
        yield running


def expected_rows(reference, labels=None):
    """The reference arrays in wire form: native python values per row."""
    rows = [[to_jsonable(cell) for cell in row] for row in np.asarray(reference)]
    if labels is not None:
        for row, label in zip(rows, labels):
            row.append(to_jsonable(label))
    return rows


class TestModelSpace:
    @pytest.mark.parametrize("name", MODELS)
    def test_sample_is_bit_identical(self, http, name):
        _, client, service = http
        got = client.sample(name, N, seed=SEED, chunk_size=CHUNK, model_space=True)
        reference = service.sample(name, N, seed=SEED, chunk_size=CHUNK)
        arr = np.array(got, dtype=np.float64)
        assert arr.shape == reference.shape
        assert np.array_equal(arr, reference)

    @pytest.mark.parametrize("name", MODELS)
    def test_sample_labeled_is_bit_identical(self, http, name):
        _, client, service = http
        got = client.sample(
            name, N, seed=SEED, chunk_size=CHUNK, model_space=True, labeled=True
        )
        X, y = service.sample_labeled(name, N, seed=SEED, chunk_size=CHUNK)
        features = np.array([row[:-1] for row in got], dtype=np.float64)
        labels = [row[-1] for row in got]
        assert np.array_equal(features, X)
        assert labels == [to_jsonable(label) for label in y]

    def test_labeled_class_counts_match(self, http):
        _, client, service = http
        got = client.sample(
            "vae", 60, seed=5, chunk_size=7, model_space=True, labeled=True
        )
        _, y = service.sample_labeled("vae", 60, seed=5, chunk_size=7)
        wire_counts = {}
        for row in got:
            wire_counts[row[-1]] = wire_counts.get(row[-1], 0) + 1
        ref_counts = {
            to_jsonable(label): int(count)
            for label, count in zip(*np.unique(y, return_counts=True))
        }
        assert wire_counts == ref_counts


class TestOriginalSpace:
    @pytest.mark.parametrize("name", MODELS)
    def test_sample_decodes_identically(self, http, name):
        _, client, service = http
        # Original space is the HTTP default for transformer-carrying artifacts.
        got = client.sample(name, N, seed=SEED, chunk_size=CHUNK)
        reference = np.vstack(
            list(service.stream(name, N, seed=SEED, chunk_size=CHUNK, original_space=True))
        )
        assert got == expected_rows(reference)

    @pytest.mark.parametrize("name", MODELS)
    def test_sample_labeled_decodes_identically(self, http, name):
        _, client, service = http
        got = client.sample(name, N, seed=SEED, chunk_size=CHUNK, labeled=True)
        chunks = list(
            service.stream_labeled(name, N, seed=SEED, chunk_size=CHUNK, original_space=True)
        )
        reference = np.vstack([chunk[0] for chunk in chunks])
        labels = np.concatenate([chunk[1] for chunk in chunks])
        assert got == expected_rows(reference, labels)

    def test_rows_carry_real_category_labels(self, http):
        _, client, service = http
        transformer = service.transformer("vae")
        got = client.sample("vae", 25, seed=2)
        names = list(transformer.schema.names)
        assert all(len(row) == len(names) for row in got)
        workclass = {row[names.index("workclass")] for row in got}
        assert workclass <= {"Private", "Self-employed", "Government", "Unemployed"}
        assert workclass  # decoded strings, not one-hot floats


class TestFormats:
    def test_csv_matches_ndjson_bit_for_bit(self, http):
        _, client, service = http
        ndjson = client.sample("vae", 19, seed=7, chunk_size=8, model_space=True)
        raw = client.sample_raw(
            "vae", 19, seed=7, chunk_size=8, fmt="csv", model_space=True
        )
        lines = raw.decode("utf-8").splitlines()
        header, body = lines[0], lines[1:]
        assert header.startswith("feature_0,")
        csv_rows = [[float(cell) for cell in line.split(",")] for line in body]
        assert csv_rows == ndjson
        reference = service.sample("vae", 19, seed=7, chunk_size=8)
        assert np.array_equal(np.array(csv_rows, dtype=np.float64), reference)

    def test_csv_header_is_optional_and_named_for_original_space(self, http):
        _, client, service = http
        raw = client.sample_raw("vae", 4, seed=1, fmt="csv", labeled=True)
        header = raw.decode("utf-8").splitlines()[0]
        assert header == ",".join(list(service.transformer("vae").schema.names) + ["label"])
        bare = client.sample_raw("vae", 4, seed=1, fmt="csv", labeled=True, header=False)
        assert raw.decode("utf-8").splitlines()[1:] == bare.decode("utf-8").splitlines()

    def test_ndjson_lines_are_parseable_json_arrays(self, http):
        _, client, _ = http
        raw = client.sample_raw("privbayes", 9, seed=3)
        lines = raw.decode("utf-8").splitlines()
        assert len(lines) == 9
        assert all(isinstance(json.loads(line), list) for line in lines)


class TestDescribe:
    @pytest.mark.parametrize("name", MODELS)
    def test_model_endpoint_reports_manifest_and_privacy(self, http, name):
        _, client, service = http
        description = client.model(name)
        manifest = read_manifest(service.resolve(name))
        assert description["model_class"] == manifest["model_class"]
        assert description["privacy"] == manifest["privacy"]
        assert description["labeled"] is True
        assert description["original_space"] is True

    def test_models_endpoint_lists_the_whole_registry(self, http):
        _, client, _ = http
        assert client.models() == sorted(MODELS)

    def test_metrics_cache_shows_refs_not_server_paths(self, http):
        _, client, _ = http
        client.sample("vae", 3, seed=0)
        cached = client.metrics()["cache"]["cached"]
        assert cached  # the sampled model is resident
        assert all("/" not in entry for entry in cached)
        assert "vae" in cached
