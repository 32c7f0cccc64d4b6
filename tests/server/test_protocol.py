"""Protocol error paths: every failure is a documented 4xx JSON envelope.

A table test over the malformed-request space — bad JSON, unknown refs,
out-of-range or mistyped fields — asserting the exact status, stable
``error.code``, and that validation messages name the offending field.
The server must never answer with a traceback or an empty body.
"""

import json

import pytest

from server_kit import serve_root

MAX_ROWS = 1000


@pytest.fixture(scope="module")
def http_server(numeric_artifact_root):
    with serve_root(numeric_artifact_root, workers=4, max_rows=MAX_ROWS) as running:
        yield running


def post(client, path, body):
    if isinstance(body, (dict, list)):
        body = json.dumps(body).encode()
    status, headers, data = client.request("POST", path, body)
    return status, headers, json.loads(data)


SAMPLE = "/v1/models/vae/sample"

#: (case id, body, expected status, expected error.code, message must mention)
BAD_REQUESTS = [
    ("malformed-json", b"{not json", 400, "invalid_json", "not valid JSON"),
    ("empty-body", b"", 400, "invalid_json", "empty"),
    ("non-object-body", [1, 2, 3], 400, "invalid_request", "JSON object"),
    ("missing-n-samples", {}, 400, "invalid_request", "n_samples"),
    ("zero-n-samples", {"n_samples": 0}, 400, "invalid_request", "n_samples"),
    ("negative-n-samples", {"n_samples": -3}, 400, "invalid_request", "n_samples"),
    ("float-n-samples", {"n_samples": 2.5}, 400, "invalid_request", "n_samples"),
    ("bool-n-samples", {"n_samples": True}, 400, "invalid_request", "n_samples"),
    ("string-n-samples", {"n_samples": "10"}, 400, "invalid_request", "n_samples"),
    ("oversized-n-samples", {"n_samples": MAX_ROWS + 1}, 413, "too_many_rows", "n_samples"),
    ("string-seed", {"n_samples": 5, "seed": "abc"}, 400, "invalid_request", "seed"),
    ("float-seed", {"n_samples": 5, "seed": 1.5}, 400, "invalid_request", "seed"),
    ("bool-seed", {"n_samples": 5, "seed": True}, 400, "invalid_request", "seed"),
    ("negative-seed", {"n_samples": 5, "seed": -1}, 400, "invalid_request", "seed"),
    ("zero-chunk-size", {"n_samples": 5, "chunk_size": 0}, 400, "invalid_request", "chunk_size"),
    ("oversized-chunk-size", {"n_samples": 5, "chunk_size": 1 << 20}, 400, "invalid_request", "chunk_size"),
    ("unknown-format", {"n_samples": 5, "format": "xml"}, 400, "invalid_request", "format"),
    ("string-model-space", {"n_samples": 5, "model_space": "yes"}, 400, "invalid_request", "model_space"),
    ("unknown-field", {"n_samples": 5, "rows": 7}, 400, "invalid_request", "rows"),
]


class TestErrorTable:
    @pytest.mark.parametrize(
        "body,status,code,mentions",
        [case[1:] for case in BAD_REQUESTS],
        ids=[case[0] for case in BAD_REQUESTS],
    )
    def test_bad_request_envelope(self, http_server, body, status, code, mentions):
        _, client, _ = http_server
        got_status, headers, payload = post(client, SAMPLE, body)
        assert got_status == status
        assert headers["Content-Type"] == "application/json"
        assert set(payload) == {"error"}
        assert payload["error"]["code"] == code
        assert mentions in payload["error"]["message"]

    def test_unknown_ref_is_404(self, http_server):
        _, client, _ = http_server
        status, _, payload = post(client, "/v1/models/nope/sample", {"n_samples": 5})
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert "nope" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "ref",
        [
            "../secrets",
            "%2e%2e/secrets",
            "a/../../b",
            "%2Ftmp%2Fsomewhere",  # percent-encoded absolute path
            "a%2F%2Fb",  # empty segment
            "a%5Cb",  # backslash
        ],
    )
    def test_escaping_refs_are_rejected(self, http_server, ref):
        # Refs must stay relative paths under --root: traversal, absolute
        # paths (via percent-encoded slashes), and backslashes are all 400s
        # on both the describe and sample routes.
        _, client, _ = http_server
        status, _, payload = post(client, f"/v1/models/{ref}/sample", {"n_samples": 5})
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        status, _, data = client.request("GET", f"/v1/models/{ref}")
        assert status == 400
        assert json.loads(data)["error"]["code"] == "invalid_request"

    def test_unreadable_artifact_is_409_on_describe_like_on_sample(
        self, numeric_artifact_root, tmp_path_factory
    ):
        import shutil

        from server_kit import serve_root

        root = tmp_path_factory.mktemp("broken-root")
        shutil.copytree(numeric_artifact_root / "vae", root / "broken")
        manifest = root / "broken" / "manifest.json"
        manifest.write_text(manifest.read_text().replace(
            '"format_version": 2', '"format_version": 99'
        ))
        with serve_root(root, workers=2) as (_, client, _):
            assert client.models() == ["broken"]  # listed: the ref exists
            status, _, data = client.request("GET", "/v1/models/broken")
            assert status == 409
            assert json.loads(data)["error"]["code"] == "artifact_error"
            status, _, payload = post(client, "/v1/models/broken/sample", {"n_samples": 5})
            assert status == 409
            assert payload["error"]["code"] == "artifact_error"

    def test_damaged_weights_are_409_not_500(
        self, numeric_artifact_root, tmp_path_factory, damage_npz
    ):
        import shutil

        from server_kit import serve_root

        root = tmp_path_factory.mktemp("damaged-root")
        shutil.copytree(numeric_artifact_root / "vae", root / "broken")
        damage_npz(root / "broken" / "weights.npz")
        with serve_root(root, workers=2) as (_, client, _):
            status, _, payload = post(client, "/v1/models/broken/sample", {"n_samples": 5})
        assert status == 409
        assert payload["error"]["code"] == "artifact_error"
        assert "weights.npz" in payload["error"]["message"]

    def test_sample_labeled_on_unlabeled_artifact_is_409(self, http_server):
        _, client, _ = http_server
        status, _, payload = post(
            client, "/v1/models/vae-unlabeled/sample_labeled", {"n_samples": 5}
        )
        assert status == 409
        assert payload["error"]["code"] == "artifact_error"
        assert "without labels" in payload["error"]["message"]


class TestRoutes:
    def test_unknown_route_is_404_envelope(self, http_server):
        _, client, _ = http_server
        status, _, data = client.request("GET", "/v2/everything")
        assert status == 404
        assert json.loads(data)["error"]["code"] == "not_found"

    def test_unknown_model_describe_is_404(self, http_server):
        _, client, _ = http_server
        status, _, data = client.request("GET", "/v1/models/nope")
        assert status == 404
        assert json.loads(data)["error"]["code"] == "not_found"

    @pytest.mark.parametrize(
        "method,path",
        [
            ("POST", "/healthz"),
            ("POST", "/metrics"),
            ("POST", "/v1/models"),
            ("POST", "/v1/models/vae"),
        ],
    )
    def test_wrong_method_is_405_envelope(self, http_server, method, path):
        _, client, _ = http_server
        body = json.dumps({"n_samples": 5}).encode() if method == "POST" else None
        status, _, data = client.request(method, path, body)
        assert status == 405
        assert json.loads(data)["error"]["code"] == "method_not_allowed"

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS"])
    def test_other_verbs_get_the_json_envelope_not_stdlib_html(self, http_server, method):
        _, client, _ = http_server
        status, headers, data = client.request(method, "/v1/models/vae")
        assert status == 405
        assert headers["Content-Type"] == "application/json"
        assert json.loads(data)["error"]["code"] == "method_not_allowed"

    def test_unknown_verbs_get_the_json_envelope_via_send_error(self, http_server):
        # Verbs with no do_* handler fall through to stdlib send_error, which
        # is overridden to keep the envelope contract (and close the
        # connection: the request body, if any, was never read).
        import http.client

        server, _, _ = http_server
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("PROPFIND", "/v1/models/vae")
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 501
        assert response.getheader("Content-Type") == "application/json"
        assert payload["error"]["code"] == "method_not_allowed"

    def test_get_on_a_sample_url_is_404_with_a_post_hint(self, http_server):
        # The action suffix only exists on POST routes: a GET reads the whole
        # tail as a ref (so an artifact literally named "sample" stays
        # describable), and the 404 points the caller at POST.
        _, client, _ = http_server
        status, _, data = client.request("GET", SAMPLE)
        assert status == 404
        payload = json.loads(data)
        assert payload["error"]["code"] == "not_found"
        assert "POST" in payload["error"]["message"]

    def test_an_artifact_named_sample_is_still_describable(
        self, numeric_artifact_root, tmp_path_factory
    ):
        import shutil

        from server_kit import serve_root

        root = tmp_path_factory.mktemp("shadow-root")
        shutil.copytree(numeric_artifact_root / "vae", root / "sample")
        with serve_root(root, workers=2) as (_, client, _):
            assert client.models() == ["sample"]
            assert client.model("sample")["model_class"] == "VAE"

    def test_error_before_body_read_closes_the_keep_alive_connection(self, http_server):
        # A 4xx sent without consuming the POST body must not leave the body
        # bytes in the stream: the next request on the connection would be
        # parsed starting at the leftover JSON.
        import http.client

        server, _, _ = http_server
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        body = json.dumps({"n_samples": 5})
        # POST to a GET-only route: rejected in routing, before the body is read.
        conn.request("POST", "/v1/models/vae", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        assert response.status == 405
        assert response.getheader("Connection") == "close"
        conn.close()

    def test_keep_alive_survives_requests_whose_body_was_consumed(self, http_server):
        # Both success and post-parse errors (here: unknown ref, rejected
        # after the body was read) keep the connection reusable.
        import http.client

        server, _, _ = http_server
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        for path, expected in [
            ("/v1/models/nope/sample", 404),
            (SAMPLE, 200),
            (SAMPLE, 200),
        ]:
            conn.request("POST", path, body=json.dumps({"n_samples": 3, "seed": 1}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            assert response.status == expected
            assert response.getheader("Connection") != "close"
        conn.close()

    def test_successful_get_with_a_body_closes_the_connection(self, http_server):
        # Legal-but-odd HTTP: a GET carrying a body.  The 200 must not leave
        # the unread body bytes in the keep-alive stream.
        import http.client

        server, _, _ = http_server
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/healthz", body=b'{"stray": "body"}')
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200 and payload == {"status": "ok"}
        # The server hung up rather than risk parsing the stray body as the
        # next request; a follow-up on the same connection fails cleanly.
        with pytest.raises((http.client.HTTPException, OSError)):
            conn.request("GET", "/healthz")
            conn.getresponse()
        conn.close()

    def test_negative_content_length_is_rejected_not_hung(self, http_server):
        # rfile.read(-1) would block until EOF; the server must answer 400
        # immediately instead of wedging the handler thread.
        import http.client

        server, _, _ = http_server
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.putrequest("POST", SAMPLE, skip_accept_encoding=True)
        conn.putheader("Content-Length", "-1")
        conn.endheaders()
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "Content-Length" in payload["error"]["message"]

    def test_missing_content_length_is_rejected(self, http_server):
        # urllib always sets Content-Length; go below it to omit the header.
        import http.client

        server, _, _ = http_server
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.putrequest("POST", SAMPLE, skip_accept_encoding=True)
        conn.putheader("Transfer-Encoding", "chunked")
        conn.endheaders()
        conn.send(b"0\r\n\r\n")
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "Content-Length" in payload["error"]["message"]
