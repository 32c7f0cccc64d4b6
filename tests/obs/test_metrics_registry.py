"""Metrics registry: instruments, thread safety, and both expositions."""

import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    render_prometheus_snapshot,
    set_registry,
)
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_counts_per_label_combination(self, registry):
        requests = registry.counter("requests_total", labels=("route", "status"))
        requests.inc(route="sample", status="200")
        requests.inc(3, route="sample", status="200")
        requests.inc(route="models", status="200")
        assert requests.value(route="sample", status="200") == 4
        assert requests.value(route="models", status="200") == 1
        assert requests.value(route="missing", status="500") == 0
        assert sum(requests.samples().values()) == 5

    def test_counter_rejects_negative_increments(self, registry):
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("c").inc(-1)

    def test_counter_rejects_wrong_label_names(self, registry):
        counter = registry.counter("c", labels=("route",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(routes="typo")
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()  # missing the declared label entirely

    def test_gauge_set_and_inc(self, registry):
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.inc(-1)
        assert gauge.value() == 6.0
        assert registry.gauge("absent_default").value(default=9.5) == 9.5

    def test_get_or_create_is_idempotent(self, registry):
        first = registry.counter("requests_total", labels=("route",))
        second = registry.counter("requests_total", labels=("route",))
        assert first is second

    def test_kind_conflict_raises(self, registry):
        registry.counter("dual")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("dual")

    def test_label_conflict_raises(self, registry):
        registry.counter("labeled", labels=("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("labeled", labels=("a", "b"))


class TestHistogramExactness:
    def test_observations_land_in_exact_buckets(self, registry):
        histogram = registry.histogram("latency", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.01, 0.02, 0.1, 0.5, 2.0, 100.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        # Upper edges are inclusive; the implicit +Inf bucket catches the rest.
        assert snap["buckets"] == {"0.01": 2, "0.1": 2, "1.0": 1, "+Inf": 2}
        assert snap["count"] == 7
        assert snap["sum"] == pytest.approx(102.635)

    def test_default_buckets_match_the_serving_grid(self, registry):
        histogram = registry.histogram("latency_default")
        assert histogram.buckets == DEFAULT_LATENCY_BUCKETS

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("bad", buckets=(1.0, 0.5))

    def test_labeled_histogram_keeps_series_independent(self, registry):
        histogram = registry.histogram("h", labels=("kind",), buckets=(1.0,))
        histogram.observe(0.5, kind="a")
        histogram.observe(2.0, kind="b")
        assert histogram.snapshot(kind="a")["buckets"] == {"1.0": 1, "+Inf": 0}
        assert histogram.snapshot(kind="b")["buckets"] == {"1.0": 0, "+Inf": 1}


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self, registry):
        counter = registry.counter("hits_total", labels=("worker",))
        gauge = registry.gauge("level")
        histogram = registry.histogram("lat", buckets=(0.5,))
        threads, per_thread = 8, 2500

        def hammer(worker):
            for _ in range(per_thread):
                counter.inc(worker=str(worker % 2))
                gauge.inc()
                histogram.observe(0.25)

        pool = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert sum(counter.samples().values()) == threads * per_thread
        assert counter.value(worker="0") == threads * per_thread / 2
        assert gauge.value() == threads * per_thread
        snap = histogram.snapshot()
        assert snap["count"] == threads * per_thread
        assert snap["buckets"]["0.5"] == threads * per_thread

    def test_concurrent_family_creation_yields_one_family(self, registry):
        seen = []

        def create():
            seen.append(registry.counter("shared_total"))

        pool = [threading.Thread(target=create) for _ in range(16)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len({id(family) for family in seen}) == 1


class TestPrometheusExposition:
    def test_golden_text(self, registry):
        requests = registry.counter(
            "repro_http_requests_total", "HTTP requests completed",
            labels=("route", "status"),
        )
        requests.inc(route="sample", status="200")
        requests.inc(2, route="models", status="200")
        registry.gauge("repro_http_requests_in_flight", "In-flight requests").set(1)
        latency = registry.histogram(
            "repro_http_request_seconds", "Request latency", buckets=(0.1, 1.0)
        )
        latency.observe(0.05)
        latency.observe(0.5)
        latency.observe(5.0)

        assert render_prometheus_snapshot(registry.snapshot(), registry) == (
            "# HELP repro_http_request_seconds Request latency\n"
            "# TYPE repro_http_request_seconds histogram\n"
            'repro_http_request_seconds_bucket{le="0.1"} 1\n'
            'repro_http_request_seconds_bucket{le="1"} 2\n'
            'repro_http_request_seconds_bucket{le="+Inf"} 3\n'
            "repro_http_request_seconds_sum 5.55\n"
            "repro_http_request_seconds_count 3\n"
            "# HELP repro_http_requests_in_flight In-flight requests\n"
            "# TYPE repro_http_requests_in_flight gauge\n"
            "repro_http_requests_in_flight 1\n"
            "# HELP repro_http_requests_total HTTP requests completed\n"
            "# TYPE repro_http_requests_total counter\n"
            'repro_http_requests_total{route="models",status="200"} 2\n'
            'repro_http_requests_total{route="sample",status="200"} 1\n'
        )

    def test_label_values_are_escaped(self, registry):
        counter = registry.counter("c_total", labels=("path",))
        counter.inc(path='a"b\\c\nd')
        assert 'path="a\\"b\\\\c\\nd"' in render_prometheus_snapshot(registry.snapshot(), registry)

    def test_buckets_are_cumulative_in_prometheus_but_not_json(self, registry):
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        # JSON keeps per-bucket counts (the PR-5 /metrics convention)...
        assert histogram.snapshot()["buckets"] == {"1.0": 1, "2.0": 1, "+Inf": 0}
        text = render_prometheus_snapshot(registry.snapshot(), registry)
        # ...while Prometheus gets the standard cumulative le series.
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 2' in text
        assert 'h_bucket{le="+Inf"} 2' in text


class TestJsonExposition:
    def test_snapshot_roundtrips_through_json(self, registry):
        registry.counter("a_total", labels=("k",)).inc(k="x")
        registry.histogram("b_seconds", buckets=(1.0,)).observe(0.2)
        payload = json.loads(json.dumps(registry.snapshot()))
        assert payload["a_total"]["type"] == "counter"
        assert payload["a_total"]["series"] == [{"labels": {"k": "x"}, "value": 1}]
        assert payload["b_seconds"]["series"][0]["buckets"] == {"1.0": 1, "+Inf": 0}

    def test_fresh_unlabeled_counter_and_gauge_read_zero(self, registry):
        registry.counter("fresh_total", "never incremented")
        registry.gauge("fresh_gauge", "never set")
        registry.counter("fresh_labeled_total", labels=("k",))
        registry.histogram("fresh_seconds", buckets=(1.0,))
        snapshot = registry.snapshot()
        assert snapshot["fresh_total"]["series"] == [{"labels": {}, "value": 0}]
        assert snapshot["fresh_gauge"]["series"] == [{"labels": {}, "value": 0}]
        # A labeled family has no label values to report yet, and an empty
        # histogram has no observations to bucket.
        assert snapshot["fresh_labeled_total"]["series"] == []
        assert snapshot["fresh_seconds"]["series"] == []
        assert "fresh_total 0\n" in render_prometheus_snapshot(registry.snapshot(), registry)


class TestDisableSwitch:
    def test_disabled_registry_is_a_noop_with_stable_shapes(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total", labels=("k",))
        counter.inc(k="x")
        assert counter.samples() == {}
        histogram = registry.histogram("h", buckets=(1.0,))
        histogram.observe(0.5)
        snap = histogram.snapshot()
        assert snap == {"buckets": {"1.0": 0, "+Inf": 0}, "sum": 0.0, "count": 0}
        # Families keep their names (shape-preserving) but carry no samples.
        assert registry.snapshot() == {
            "c_total": {"type": "counter", "series": []},
            "h": {"type": "histogram", "series": []},
        }

    def test_disabled_unlabeled_families_still_report_no_series(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("plain_total").inc()
        registry.gauge("plain_gauge").set(3)
        assert registry.snapshot() == {
            "plain_gauge": {"type": "gauge", "series": []},
            "plain_total": {"type": "counter", "series": []},
        }

    def test_disabled_registry_renders_help_and_type_lines_only(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("plain_total", "what it counts").inc()
        assert render_prometheus_snapshot(registry.snapshot(), registry) == (
            "# HELP plain_total what it counts\n# TYPE plain_total counter\n"
        )

    def test_env_disable_flows_through_get_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DISABLED", "1")
        previous = set_registry(None)  # force lazy re-creation under the env
        try:
            assert get_registry().enabled is False
        finally:
            set_registry(previous)

    def test_set_registry_swaps_and_restores(self):
        original = get_registry()  # force creation so restore is exact
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert previous is original
            assert get_registry() is mine
        finally:
            set_registry(previous)
        assert get_registry() is original


class TestMergeSnapshots:
    """Cross-process aggregation for the pre-fork pool: one snapshot per
    worker in, one pool-wide snapshot out."""

    def _worker(self, requests, in_flight, latencies):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", labels=("route",))
        for route, count in requests.items():
            counter.inc(count, route=route)
        registry.gauge("in_flight").set(in_flight)
        histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        for value in latencies:
            histogram.observe(value)
        return registry.snapshot()

    def test_counters_sum_per_label_combination(self):
        merged = merge_snapshots(
            [
                self._worker({"sample": 3, "models": 1}, 0, []),
                self._worker({"sample": 2}, 0, []),
            ]
        )
        series = {
            tuple(sorted(entry["labels"].items())): entry["value"]
            for entry in merged["requests_total"]["series"]
        }
        assert series == {(("route", "models"),): 1, (("route", "sample"),): 5}

    def test_gauges_sum_because_they_are_per_worker_quantities(self):
        merged = merge_snapshots(
            [self._worker({}, 2, []), self._worker({}, 1, []), self._worker({}, 0, [])]
        )
        assert merged["in_flight"]["series"] == [{"labels": {}, "value": 3}]

    def test_histograms_sum_buckets_sum_and_count(self):
        merged = merge_snapshots(
            [
                self._worker({}, 0, [0.05, 0.5]),
                self._worker({}, 0, [0.5, 5.0]),
            ]
        )
        entry = merged["latency_seconds"]["series"][0]
        assert entry["buckets"] == {"0.1": 1, "1.0": 2, "+Inf": 1}
        assert entry["count"] == 4
        assert entry["sum"] == pytest.approx(6.05)

    def test_families_missing_from_some_workers_still_merge(self):
        lonely = MetricsRegistry()
        lonely.counter("only_here_total").inc(7)
        merged = merge_snapshots([self._worker({"sample": 1}, 0, []), lonely.snapshot()])
        assert merged["only_here_total"]["series"] == [{"labels": {}, "value": 7}]
        assert "requests_total" in merged

    def test_single_snapshot_merges_to_itself(self):
        snapshot = self._worker({"sample": 2}, 1, [0.2])
        assert merge_snapshots([snapshot]) == snapshot

    def test_type_conflicts_raise(self):
        a = MetricsRegistry()
        a.counter("m").inc()
        b = MetricsRegistry()
        b.gauge("m").set(1)
        with pytest.raises(ValueError, match="cannot merge metric 'm'"):
            merge_snapshots([a.snapshot(), b.snapshot()])


class TestRenderPrometheusSnapshot:
    def test_renders_merged_snapshot_with_cumulative_buckets(self):
        a = MetricsRegistry()
        a.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.05)
        b = MetricsRegistry()
        b.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus_snapshot(merge_snapshots([a.snapshot(), b.snapshot()]))
        lines = text.splitlines()
        assert "# TYPE h_seconds histogram" in lines
        assert 'h_seconds_bucket{le="0.1"} 1' in lines
        assert 'h_seconds_bucket{le="1"} 2' in lines
        assert 'h_seconds_bucket{le="+Inf"} 2' in lines
        assert "h_seconds_count 2" in lines

    def test_help_text_comes_from_the_local_registry(self):
        local = MetricsRegistry()
        local.counter("c_total", "what c counts").inc(2)
        remote = MetricsRegistry()
        remote.counter("c_total", "what c counts").inc(3)
        merged = merge_snapshots([local.snapshot(), remote.snapshot()])
        with_help = render_prometheus_snapshot(merged, registry=local)
        assert "# HELP c_total what c counts" in with_help
        assert "c_total 5" in with_help
        # Without a registry the exposition is still valid, just help-less.
        without = render_prometheus_snapshot(merged)
        assert "# HELP" not in without
        assert "c_total 5" in without
