"""The /metrics endpoint: one code path for one process and for a pool.

Every scrape merges one entry per process (a single process is a pool of
one) into one registry snapshot.  The JSON must keep every key the original
endpoint served (dashboards depend on them), add the full registry dump
and the ``pool`` section, and ``?format=prometheus`` must render the same
merged snapshot.  ``workers``, ``max_rows`` and ``cache`` come from server
and service state, so they stay exact when the registry is disabled.
"""

import json
import os
import threading
import time
import urllib.request

import pytest

from repro.obs import MetricsRegistry, configure_tracer
from repro.serving.cli import main
from repro.utils.logging import StructuredLogger
from server_kit import serve_pool, serve_root

#: Exact key paths the PR-5 JSON endpoint established.
PR5_REQUEST_KEYS = {"total", "in_flight", "rejected", "by_status", "by_route"}
PR5_LATENCY_KEYS = {"buckets", "sum", "count"}
PR5_TOP_KEYS = {"requests", "latency_seconds", "rows_streamed", "workers", "max_rows", "cache"}


@pytest.fixture(scope="module")
def http(numeric_artifact_root):
    registry = MetricsRegistry()
    with serve_root(
        numeric_artifact_root,
        service_kwargs={"registry": registry},
        registry=registry,
        workers=4,
    ) as running:
        yield running


class TestJsonCompatibility:
    def test_json_keys_are_a_superset_of_pr5(self, http):
        _, client, _ = http
        client.sample("vae", 5, seed=0)
        payload = client.metrics()
        assert PR5_TOP_KEYS <= set(payload)
        assert PR5_REQUEST_KEYS <= set(payload["requests"])
        assert PR5_LATENCY_KEYS <= set(payload["latency_seconds"])
        assert {"size", "capacity", "hits", "misses", "cached"} <= set(payload["cache"])
        # The new registry dump rides along without displacing anything.
        assert "registry" in payload
        assert "repro_http_requests_total" in payload["registry"]

    def test_request_accounting_flows_through_the_registry(self, http):
        _, client, _ = http
        before = client.metrics()
        client.sample("vae", 7, seed=1)
        # A request is counted in its handler's finally block, which may
        # still be running when the next request is served — poll for the
        # counters to land instead of racing them.
        deadline = time.monotonic() + 5.0
        while True:
            after = client.metrics()
            if (
                after["requests"]["total"] >= before["requests"]["total"] + 2
                or time.monotonic() > deadline
            ):
                break
            time.sleep(0.01)
        assert after["requests"]["total"] >= before["requests"]["total"] + 2
        assert after["requests"]["by_status"].get("200", 0) > 0
        assert after["requests"]["by_route"].get("sample", 0) > 0
        assert after["rows_streamed"] >= before["rows_streamed"] + 7
        assert after["latency_seconds"]["count"] >= before["latency_seconds"]["count"] + 2
        bucket_total = sum(after["latency_seconds"]["buckets"].values())
        assert bucket_total == after["latency_seconds"]["count"]

    def test_service_cache_events_share_the_registry(self, http):
        _, client, _ = http
        client.sample("vae", 3, seed=2)
        client.sample("vae", 3, seed=3)
        registry_dump = client.metrics()["registry"]
        events = registry_dump["repro_service_cache_events_total"]["series"]
        by_event = {entry["labels"]["event"]: entry["value"] for entry in events}
        assert by_event.get("miss", 0) >= 1
        assert by_event.get("hit", 0) >= 1

    def test_worker_and_cache_gauges_refresh_at_scrape_time(self, http):
        server, client, _ = http
        registry_dump = client.metrics()["registry"]
        slots = {
            entry["labels"]["state"]: entry["value"]
            for entry in registry_dump["repro_http_worker_slots"]["series"]
        }
        assert slots["capacity"] == 4
        assert 0 <= slots["in_use"] <= 4


class TestPrometheusFormat:
    def test_prometheus_text_is_served_with_the_right_content_type(self, http):
        _, client, _ = http
        client.sample("vae", 4, seed=4)
        status, headers, body = client.request("GET", "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode("utf-8")
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_service_cache_events_total" in text

    def test_prometheus_counts_agree_with_json(self, http):
        _, client, _ = http
        payload = client.metrics()
        _, _, body = client.request("GET", "/metrics?format=prometheus")
        line = next(
            line for line in body.decode().splitlines()
            if line.startswith("repro_http_request_seconds_count")
        )
        # The scrape itself is not yet counted; JSON ran first so >= holds.
        assert int(line.rsplit(" ", 1)[1]) >= payload["latency_seconds"]["count"]

    def test_json_stays_the_default(self, http):
        _, client, _ = http
        status, headers, body = client.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        json.loads(body)

    def test_unknown_format_is_a_400(self, http):
        _, client, _ = http
        status, _, body = client.request("GET", "/metrics?format=xml")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "invalid_request"


class TestRequestTracing:
    def test_x_request_id_becomes_the_trace_correlation_id(self, http):
        server, client, _ = http
        import io
        import time

        sink = io.StringIO()
        configure_tracer(StructuredLogger(sink))
        try:
            request = urllib.request.Request(
                client.base_url + "/healthz",
                headers={"X-Request-Id": "req-42-abc"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
            # The span closes in the handler thread after the response body
            # is already consumed; wait for the emit rather than racing it.
            deadline = time.monotonic() + 5.0
            while "req-42-abc" not in sink.getvalue():
                if time.monotonic() > deadline:
                    break
                time.sleep(0.01)
        finally:
            configure_tracer(None)
        spans = [json.loads(line) for line in sink.getvalue().splitlines()]
        request_spans = [
            span for span in spans
            if span["name"] == "http.request" and span["trace_id"] == "req-42-abc"
        ]
        assert len(request_spans) == 1
        assert request_spans[0]["route"] == "healthz"
        assert request_spans[0]["status_code"] == 200
        assert request_spans[0]["status"] == "ok"


POOL_WORKERS = 3


@pytest.fixture(scope="module")
def pooled(numeric_artifact_root):
    with serve_pool(numeric_artifact_root, processes=2, workers=POOL_WORKERS) as running:
        yield running


def _settled_metrics(client) -> dict:
    """``/metrics`` once the last sample request has released its slot.

    A client reads the final chunk before the handler thread releases the
    worker slot, so an immediate scrape may still count it.
    """
    deadline = time.monotonic() + 5.0
    payload = client.metrics()
    while payload["workers"]["in_use"] and time.monotonic() < deadline:
        time.sleep(0.01)
        payload = client.metrics()
    return payload


def _prometheus(client) -> list:
    status, _, body = client.request("GET", "/metrics?format=prometheus")
    assert status == 200
    return body.decode("utf-8").splitlines()


class TestOnePath:
    def test_single_process_and_pool_serve_the_same_top_level_keys(self, http, pooled):
        _, single_client, _ = http
        _, pool_client, _ = pooled
        assert set(single_client.metrics()) == set(pool_client.metrics())

    def test_a_single_process_is_a_pool_of_one(self, http):
        _, client, _ = http
        assert client.metrics()["pool"] == {"processes": 1, "workers": [os.getpid()]}

    @pytest.mark.parametrize("mode", ["http", "pooled"])
    def test_prometheus_shows_unlabeled_counters_before_their_first_sample(
        self, mode, request
    ):
        _, client, _ = request.getfixturevalue(mode)
        lines = _prometheus(client)
        # No 429 is ever provoked on these servers.
        assert "repro_http_requests_rejected_total 0" in lines
        assert any(line.startswith("repro_http_rows_streamed_total ") for line in lines)

    def test_cached_refs_are_sorted_in_one_process(self, numeric_artifact_root):
        with serve_root(numeric_artifact_root, workers=2) as (_, client, _):
            client.sample("vae-unlabeled", 2, seed=0)
            client.sample("vae", 2, seed=0)
            assert client.metrics()["cache"]["cached"] == ["vae", "vae-unlabeled"]

    def test_obs_cli_prints_the_merged_pool_table(self, pooled, capsys):
        _, client, _ = pooled
        assert main(["obs", "--url", client.base_url]) == 0
        table = capsys.readouterr().out
        slots = table.split("repro_http_worker_slots (gauge)\n", 1)[1].splitlines()
        capacity = next(line for line in slots if "state=capacity" in line)
        assert float(capacity.split()[-1]) == 2 * POOL_WORKERS


class TestDisabledRegistry:
    """``REPRO_OBS_DISABLED=1``: no series, but server state stays exact."""

    def test_one_process_reports_server_and_cache_state(self, numeric_artifact_root):
        registry = MetricsRegistry(enabled=False)
        with serve_root(
            numeric_artifact_root,
            service_kwargs={"registry": registry, "cache_size": 3},
            registry=registry,
            workers=2,
            max_rows=500,
        ) as (_, client, service):
            client.sample("vae", 5, seed=0)
            payload = _settled_metrics(client)
            stats = service.cache_stats
            assert payload["workers"] == {"capacity": 2, "in_use": 0}
            assert payload["max_rows"] == 500
            assert payload["cache"] == {**stats, "cached": ["vae"]}
            assert stats["size"] == 1 and stats["misses"] == 1
            assert payload["requests"]["total"] == 0
            assert payload["rows_streamed"] == 0
            assert payload["latency_seconds"]["count"] == 0
            assert all(not family["series"] for family in payload["registry"].values())

    def test_one_process_serves_prometheus_without_samples(self, numeric_artifact_root):
        registry = MetricsRegistry(enabled=False)
        with serve_root(
            numeric_artifact_root, service_kwargs={"registry": registry}, registry=registry
        ) as (_, client, _):
            lines = _prometheus(client)
        assert "# TYPE repro_http_requests_total counter" in lines
        assert all(line.startswith("#") for line in lines)

    def test_pool_reports_server_and_cache_state(self, numeric_artifact_root, monkeypatch):
        # Set before the fork: each worker builds its registry from the env.
        monkeypatch.setenv("REPRO_OBS_DISABLED", "1")
        with serve_pool(
            numeric_artifact_root,
            processes=2,
            service_kwargs={"cache_size": 3},
            workers=2,
            max_rows=500,
        ) as (_, client, _):
            client.sample("vae", 5, seed=0)
            payload = _settled_metrics(client)
            assert payload["pool"]["processes"] == 2
            assert payload["workers"] == {"capacity": 4, "in_use": 0}
            assert payload["max_rows"] == 500
            cache = payload["cache"]
            assert (cache["size"], cache["capacity"], cache["misses"]) == (1, 6, 1)
            assert cache["cached"] == ["vae"]
            assert payload["requests"]["total"] == 0
            assert payload["rows_streamed"] == 0
            assert all(line.startswith("#") for line in _prometheus(client))


class _BlockingPeers:
    """Pool peers whose ``collect()`` holds a scrape until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def collect(self) -> list:
        self.entered.set()
        self.release.wait(10.0)
        return []


class TestInFlight:
    def test_a_request_without_a_slot_counts_when_the_registry_is_disabled(
        self, numeric_artifact_root
    ):
        # The pool's SIGTERM drain waits on this count; a disabled registry
        # must not hide a running scrape from it.
        registry = MetricsRegistry(enabled=False)
        with serve_root(
            numeric_artifact_root, service_kwargs={"registry": registry}, registry=registry
        ) as (server, client, _):
            server.peers = peers = _BlockingPeers()
            scrape = threading.Thread(target=client.metrics)
            scrape.start()
            try:
                assert peers.entered.wait(5.0)
                assert server.in_flight == 1
                assert server.slots_in_use == 0
            finally:
                peers.release.set()
                scrape.join(timeout=10.0)
            assert not scrape.is_alive()
            deadline = time.monotonic() + 5.0
            while server.in_flight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.in_flight == 0
