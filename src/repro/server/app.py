"""The concurrent HTTP synthesis server.

A stdlib-only (:mod:`http.server` + :mod:`socketserver`) network tier over
:class:`repro.serving.SynthesisService`.  One thread per connection serves
the cheap introspection routes; synthesis streams additionally pass through a
bounded worker gate so a traffic spike degrades into fast 429s instead of an
unbounded pile of in-flight model draws.

Routes
------
- ``GET  /healthz``                         — liveness (no model touched)
- ``GET  /metrics``                         — request counts, latency
  histogram, worker occupancy, and the service's cache stats
- ``GET  /v1/models``                       — refs this server can serve
- ``GET  /v1/models/{ref}``                 — one artifact's manifest summary
- ``POST /v1/models/{ref}/sample``          — stream synthetic rows
- ``POST /v1/models/{ref}/sample_labeled``  — stream ``(row, label)`` records

Streamed bodies use chunked ``Transfer-Encoding`` in NDJSON or CSV, decoded
to **original-space** rows through the artifact's stored transformer by
default (``"model_space": true`` opts out).  Every request is reproducible:
a client ``seed`` pins the exact bytes; without one the server draws a
private per-request seed, so concurrent unseeded requests never share an RNG
stream.  Failures before the first byte surface as the JSON error envelope
of :mod:`repro.server.protocol`; a failure mid-stream can only abort the
connection (HTTP has no status left to change), which is why all request
validation and artifact loading happen eagerly.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import PurePath
from urllib.parse import parse_qs, unquote, urlsplit

import numpy as np

from repro.obs import (
    MetricsRegistry,
    get_registry,
    get_tracer,
    merge_snapshots,
    render_prometheus_snapshot,
)
from repro.serving.artifacts import ArtifactError
from repro.serving.service import SynthesisService
from repro.server.protocol import (
    ProtocolError,
    encode_chunk,
    error_body,
    header_line,
    json_body,
    parse_sample_request,
)
from repro.utils.logging import StructuredLogger

__all__ = [
    "SynthesisHTTPServer",
    "ServerMetrics",
    "DEFAULT_MAX_ROWS",
    "WORKER_HEADER",
    "merge_metrics_payloads",
]

DEFAULT_MAX_ROWS = 1_000_000

#: Response header naming the process that served the request.  Always sent;
#: with a pre-fork pool it is how clients (and the fault-injection tests)
#: observe which worker a connection landed on.
WORKER_HEADER = "X-Repro-Worker"

#: Request bodies are small JSON objects; anything bigger is rejected before
#: a byte of it is read.
MAX_BODY_BYTES = 1 << 20

#: Upper edges (seconds) of the request-latency histogram.
LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, float("inf"))


class ServerMetrics:
    """The HTTP tier's request metrics, backed by a :class:`MetricsRegistry`.

    This used to be a hand-rolled lock-guarded dict; it is now a thin facade
    over the shared registry (counters/gauges/histograms with exact buckets),
    so the same numbers are visible through ``/metrics`` JSON, the Prometheus
    exposition, and ``python -m repro obs``.  :meth:`snapshot` reconstructs
    the exact JSON shape the PR-5 endpoint established, so existing
    dashboards keep working.
    """

    def __init__(self, registry: MetricsRegistry = None):
        self.registry = registry if registry is not None else get_registry()
        self._requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests completed, by route and status",
            labels=("route", "status"),
        )
        self._in_flight = self.registry.gauge(
            "repro_http_requests_in_flight", "HTTP requests currently being handled"
        )
        self._rejected = self.registry.counter(
            "repro_http_requests_rejected_total",
            "Requests refused with 429 because every worker slot was busy",
        )
        self._latency = self.registry.histogram(
            "repro_http_request_seconds",
            "End-to-end request latency in seconds",
            buckets=LATENCY_BUCKETS,
        )
        self._rows = self.registry.counter(
            "repro_http_rows_streamed_total", "Synthetic rows streamed to clients"
        )

    def start_request(self) -> None:
        self._in_flight.inc()

    def in_flight(self) -> int:
        """Requests currently inside ``_handle`` (the drain signal)."""
        return int(self._in_flight.value())

    def finish_request(self, route: str, status: int, elapsed: float, rows: int = 0) -> None:
        self._in_flight.dec()
        self._requests.inc(route=route, status=str(status))
        if status == 429:
            self._rejected.inc()
        self._latency.observe(elapsed)
        if rows:
            self._rows.inc(rows)

    def snapshot(self) -> dict:
        by_status: dict = {}
        by_route: dict = {}
        total = 0
        for (route, status), count in self._requests.samples().items():
            count = int(count)
            total += count
            by_status[status] = by_status.get(status, 0) + count
            by_route[route] = by_route.get(route, 0) + count
        latency = self._latency.snapshot()
        return {
            "requests": {
                "total": total,
                "in_flight": int(self._in_flight.value()),
                "rejected": int(self._rejected.total()),
                "by_status": dict(sorted(by_status.items())),
                "by_route": dict(sorted(by_route.items())),
            },
            "latency_seconds": {
                "buckets": latency["buckets"],
                "sum": latency["sum"],
                "count": latency["count"],
            },
            "rows_streamed": int(self._rows.total()),
        }


def _as_ref(cache_key: str, root) -> str:
    path = PurePath(cache_key)
    if root is not None:
        try:
            return str(path.relative_to(root))
        except ValueError:
            pass
    return path.name


def merge_metrics_payloads(payloads) -> dict:
    """Merge per-worker ``/metrics`` JSON payloads into one pool-wide view.

    Counters, gauges, and histogram buckets sum; ``max_rows`` is a shared
    configuration value (identical across workers, merged with ``max`` for
    robustness); the cache listing is the union of every worker's resident
    refs.  The result keeps the exact PR-5 key shape, so a dashboard pointed
    at a pooled server keeps working unchanged.
    """
    merged = {
        "requests": {
            "total": 0, "in_flight": 0, "rejected": 0,
            "by_status": {}, "by_route": {},
        },
        "latency_seconds": {"buckets": {}, "sum": 0.0, "count": 0},
        "rows_streamed": 0,
        "workers": {"capacity": 0, "in_use": 0},
        "max_rows": 0,
        "cache": {"size": 0, "capacity": 0, "hits": 0, "misses": 0, "cached": set()},
    }
    for payload in payloads:
        requests = payload["requests"]
        target = merged["requests"]
        target["total"] += requests["total"]
        target["in_flight"] += requests["in_flight"]
        target["rejected"] += requests["rejected"]
        for field in ("by_status", "by_route"):
            for key, count in requests[field].items():
                target[field][key] = target[field].get(key, 0) + count
        latency = payload["latency_seconds"]
        buckets = merged["latency_seconds"]["buckets"]
        for edge, count in latency["buckets"].items():
            buckets[edge] = buckets.get(edge, 0) + count
        merged["latency_seconds"]["sum"] = round(
            merged["latency_seconds"]["sum"] + latency["sum"], 6
        )
        merged["latency_seconds"]["count"] += latency["count"]
        merged["rows_streamed"] += payload["rows_streamed"]
        merged["workers"]["capacity"] += payload["workers"]["capacity"]
        merged["workers"]["in_use"] += payload["workers"]["in_use"]
        merged["max_rows"] = max(merged["max_rows"], payload["max_rows"])
        cache = payload["cache"]
        for field in ("size", "capacity", "hits", "misses"):
            merged["cache"][field] += cache[field]
        merged["cache"]["cached"].update(cache["cached"])
    merged["requests"]["by_status"] = dict(sorted(merged["requests"]["by_status"].items()))
    merged["requests"]["by_route"] = dict(sorted(merged["requests"]["by_route"].items()))
    merged["cache"]["cached"] = sorted(merged["cache"]["cached"])
    return merged


class SynthesisHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server over one shared :class:`SynthesisService`.

    Parameters
    ----------
    address:
        ``(host, port)``; port 0 binds an ephemeral port (tests).
    service:
        The shared synthesis service.  Its documented concurrency contract is
        what makes one instance safe under this server's thread-per-connection
        model.
    workers:
        Maximum *synthesis streams* in flight at once.  The gate is
        non-blocking: request number ``workers + 1`` receives a 429 with
        ``Retry-After`` instead of queueing, so saturation never manifests as
        a hang and per-request memory stays bounded by
        ``workers * chunk_size`` rows.  Introspection routes bypass the gate
        and stay responsive while every worker streams.
    max_rows:
        Per-request row budget; larger requests are refused with 413.
    max_connections:
        Hard cap on simultaneously open connections (each costs one handler
        thread, held for up to the socket timeout).  Connections beyond the
        cap are closed at accept time — no thread is spawned for them — so
        idle or slow-header clients cannot grow the thread count without
        bound.
    access_log:
        A :class:`StructuredLogger`; defaults to JSON lines on stderr.
    registry:
        The :class:`repro.obs.MetricsRegistry` request metrics land on;
        defaults to the process-wide registry (so one ``/metrics`` scrape
        sees the HTTP tier, the synthesis service, and any in-process
        training).  Tests pass a private registry for isolation.
    listen_socket:
        An already-bound, already-listening socket to adopt instead of
        binding ``address`` — how the pre-fork pool (:mod:`repro.server.pool`)
        hands every worker the supervisor's shared listening socket.  When
        given, ``address`` is ignored.
    """

    daemon_threads = True
    allow_reuse_address = True
    #: Accept-queue backlog sized to match ``max_connections``: the stdlib
    #: default of 5 overflows (kernel resets the excess) when a connect burst
    #: lands faster than the accept loop drains it under CPU contention.
    request_queue_size = 128

    def __init__(
        self,
        address,
        service: SynthesisService,
        workers: int = 8,
        max_rows: int = DEFAULT_MAX_ROWS,
        max_connections: int = 128,
        access_log: StructuredLogger = None,
        registry: MetricsRegistry = None,
        listen_socket: socket.socket = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1; got {workers!r}")
        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1; got {max_rows!r}")
        if max_connections < workers:
            raise ValueError(
                f"max_connections ({max_connections!r}) must be >= workers ({workers!r})"
            )
        if listen_socket is None:
            super().__init__(tuple(address), _SynthesisRequestHandler)
        else:
            # Adopt the supervisor's socket: skip bind/activate entirely and
            # replace the placeholder socket TCPServer.__init__ created.  The
            # kernel then load-balances accept() across every worker sharing
            # the descriptor.
            super().__init__(
                listen_socket.getsockname()[:2],
                _SynthesisRequestHandler,
                bind_and_activate=False,
            )
            self.socket.close()
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()[:2]
            host, port = self.server_address
            self.server_name = host
            self.server_port = port
        self.service = service
        self.workers = int(workers)
        self.max_rows = int(max_rows)
        self.max_connections = int(max_connections)
        self.metrics = ServerMetrics(registry)
        #: Set by the pre-fork pool: a :class:`repro.server.control.PoolPeers`
        #: (anything with ``collect() -> list[dict]``).  When present,
        #: ``/metrics`` merges every worker's counters into one pool-wide
        #: exposition instead of reporting this process alone.
        self.peers = None
        self.tracer = get_tracer()
        self.access_log = access_log if access_log is not None else StructuredLogger()
        self._connections = threading.BoundedSemaphore(self.max_connections)
        self._slots = threading.BoundedSemaphore(self.workers)
        self._slots_lock = threading.Lock()
        self._slots_in_use = 0
        self._seed_lock = threading.Lock()
        self._seed_sequence = np.random.SeedSequence()

    @property
    def port(self) -> int:
        return self.server_address[1]

    # -- connection cap (one handler thread per open connection) ---------------------

    def process_request(self, request, client_address):
        if not self._connections.acquire(blocking=False):
            # Over the cap: refuse at accept time, before any thread exists.
            self.access_log.log("http_overload", client=str(client_address))
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except Exception:
            self._connections.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._connections.release()

    def acquire_slot(self) -> bool:
        """Try to claim a synthesis worker slot without blocking."""
        acquired = self._slots.acquire(blocking=False)
        if acquired:
            with self._slots_lock:
                self._slots_in_use += 1
        return acquired

    def release_slot(self) -> None:
        with self._slots_lock:
            self._slots_in_use -= 1
        self._slots.release()

    @property
    def slots_in_use(self) -> int:
        """Synthesis streams currently holding a worker slot (the 429 signal)."""
        with self._slots_lock:
            return self._slots_in_use

    def metrics_payload(self) -> dict:
        """The ``/metrics`` JSON payload for **this process** (sans registry).

        Refreshes the scrape-time gauges (worker-slot occupancy, cache size)
        on the registry so the JSON and Prometheus expositions agree, then
        assembles the PR-5 top-level shape.  In pooled mode this is also what
        each worker serves over the control channel for aggregation.
        """
        registry = self.metrics.registry
        workers = registry.gauge(
            "repro_http_worker_slots", "Synthesis worker slots", labels=("state",)
        )
        workers.set(self.workers, state="capacity")
        workers.set(self.slots_in_use, state="in_use")
        cache = self.service.cache_stats
        cache_gauge = registry.gauge(
            "repro_service_cache_models", "Models in the LRU cache", labels=("state",)
        )
        cache_gauge.set(cache["size"], state="size")
        cache_gauge.set(cache["capacity"], state="capacity")
        payload = self.metrics.snapshot()
        payload["workers"] = {"capacity": self.workers, "in_use": self.slots_in_use}
        payload["max_rows"] = self.max_rows
        # The service keys its cache by resolved path; on the wire only
        # root-relative refs are shown (absolute server paths are the
        # operator's business, not the client's).
        root = self.service.artifact_root
        cache["cached"] = [_as_ref(key, root) for key in cache["cached"]]
        payload["cache"] = cache
        return payload

    def control_payload(self) -> dict:
        """What this worker serves over the pool's control channel."""
        return {
            "pid": os.getpid(),
            "metrics": self.metrics_payload(),
            "registry": self.metrics.registry.snapshot(),
        }

    def next_request_seed(self) -> int:
        """A fresh server-side seed for an unseeded request.

        Spawned from one :class:`numpy.random.SeedSequence` under a lock, so
        concurrent unseeded requests get independent streams — the model's
        internal generator (shared mutable state) is never used by the HTTP
        tier.
        """
        with self._seed_lock:
            child = self._seed_sequence.spawn(1)[0]
        return int(child.generate_state(1, dtype=np.uint64)[0] >> 1)


class _SynthesisRequestHandler(BaseHTTPRequestHandler):
    """Routes one connection's requests; all state lives on ``self.server``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    #: Socket timeout for an accepted request's body and response I/O.  A
    #: client that stalls without disconnecting — TCP half-open, a consumer
    #: that stops reading forever — would otherwise block its handler thread
    #: (and, mid-stream, its worker slot) indefinitely; after this many
    #: seconds the blocked I/O raises TimeoutError, which is treated like a
    #: disconnect and frees the slot.
    timeout = 600
    #: Much shorter timeout while *receiving a request* — request line,
    #: headers, and the (small JSON) body — i.e. on idle keep-alive
    #: connections and slowloris-style clients.  These hold a connection
    #: permit but no worker slot; reaping them quickly keeps permits
    #: available so /healthz stays reachable even when an attacker opens
    #: max_connections idle or drip-feeding sockets.  The long ``timeout``
    #: takes over only once a request has fully arrived.
    header_timeout = 10.0

    # -- plumbing -------------------------------------------------------------------

    def handle_one_request(self) -> None:
        # Two-tier timeout: the request line + headers must arrive within
        # header_timeout (stdlib catches the TimeoutError and closes the
        # connection); once a request is dispatched, _handle restores the
        # long I/O timeout for body reads and streamed writes.
        self.connection.settimeout(self.header_timeout)
        super().handle_one_request()

    def send_response(self, code, message=None):
        super().send_response(code, message)
        # Every response names its serving process; under the pre-fork pool
        # this is the only way a client can tell which worker it reached.
        self.send_header(WORKER_HEADER, str(os.getpid()))

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # BaseHTTPRequestHandler's default writes human text to stderr; route
        # the rare internal messages through the structured log instead.
        self.server.access_log.log("http_server", message=format % args)

    def log_request(self, code="-", size="-"):
        # Suppressed: _handle emits one structured access-log record per
        # request with route, status, latency, and row count.
        pass

    def send_error(self, code, message=None, explain=None):
        # Stdlib fallback paths that never reach _handle — unknown verbs
        # (501), an oversized request line (414), an unsupported HTTP
        # version (505) — must still emit the JSON envelope, not
        # http.server's HTML error page.
        label = {
            404: "not_found",
            405: "method_not_allowed",
            501: "method_not_allowed",
        }.get(code, "invalid_request" if 400 <= code < 500 else "internal")
        short = self.responses.get(code, ("error",))[0]
        try:
            self._send_body(
                code,
                error_body(label, message or short),
                "application/json",
                {"Connection": "close"},
            )
        except OSError:
            pass
        self.close_connection = True

    def _client(self) -> str:
        return f"{self.client_address[0]}:{self.client_address[1]}"

    def _send_body(self, status: int, body: bytes, content_type: str, extra=None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_body(status, json_body(payload), "application/json")

    def _send_protocol_error(self, error: ProtocolError, close: bool = False) -> None:
        extra = {}
        if error.code == "saturated":
            extra["Retry-After"] = "1"
        if close:
            # An unread request body would desync this keep-alive connection:
            # the next request would be parsed starting at the leftover bytes.
            extra["Connection"] = "close"
            self.close_connection = True
        self._send_body(
            error.status, error_body(error.code, error.message), "application/json", extra
        )

    # -- routing --------------------------------------------------------------------

    def _parse_route(self, method: str):
        """Return ``(route_name, ref, action)`` or raise :class:`ProtocolError`."""
        segments = [unquote(part) for part in urlsplit(self.path).path.split("/") if part]
        if segments == ["healthz"]:
            route = ("healthz", None, None)
        elif segments == ["metrics"]:
            route = ("metrics", None, None)
        elif segments == ["v1", "models"]:
            route = ("models", None, None)
        elif len(segments) >= 3 and segments[:2] == ["v1", "models"]:
            # The action suffix only exists on POST; for GET the whole tail
            # is the ref, so an artifact literally named "sample" is still
            # describable.
            action = None
            if method == "POST" and segments[-1] in ("sample", "sample_labeled"):
                action = segments[-1]
            ref = "/".join(segments[2:-1] if action else segments[2:])
            # Refs must stay relative paths under --root: '..' segments,
            # backslashes, and absolute paths (reachable via percent-encoded
            # slashes, e.g. %2Fetc%2F...) would escape it.
            pieces = ref.replace("\\", "/").split("/")
            if not ref or ".." in pieces or "" in pieces or "\\" in ref:
                raise ProtocolError("invalid_request", f"invalid model ref {ref!r}")
            route = ("model" if action is None else action, ref, action)
        else:
            raise ProtocolError("not_found", f"no route for {self.path!r}")
        expected = "POST" if route[0] in ("sample", "sample_labeled") else "GET"
        if method != expected:
            raise ProtocolError(
                "method_not_allowed", f"{route[0]} only accepts {expected}, not {method}"
            )
        return route

    def _handle(self, method: str) -> None:
        started = time.perf_counter()
        self.server.metrics.start_request()
        route_name, status, rows = "unknown", 500, 0
        pending_error = None
        # One span per request; an X-Request-Id header pins the correlation
        # id so a client's logs line up with the server's trace tree.  The
        # span is a no-op unless the process tracer is configured.
        request_span = self.server.tracer.span(
            "http.request", trace_id=self.headers.get("X-Request-Id"), method=method
        )
        request_span.__enter__()
        self._streaming = False
        self._rows_sent = 0
        # A request that declared a body we never read leaves its bytes in
        # the keep-alive stream; such error responses must close the
        # connection.  Only _read_body (the POST path) ever consumes one.
        try:
            declared_body = int(self.headers.get("Content-Length") or 0) != 0
        except ValueError:
            declared_body = True
        if self.headers.get("Transfer-Encoding"):
            declared_body = True  # chunked bodies are never read either
        self._body_read = not declared_body
        try:
            route_name, ref, action = self._parse_route(method)
            if route_name == "healthz":
                status = self._do_healthz()
            elif route_name == "metrics":
                status = self._do_metrics()
            elif route_name == "models":
                status = self._do_models()
            elif route_name == "model":
                status = self._do_model(ref)
            else:
                status, rows = self._do_sample(ref, labeled=action == "sample_labeled")
        except ProtocolError as error:
            # Deferred: the envelope goes out *after* the metrics update below,
            # so a client that sees a 429 and immediately reads /metrics is
            # guaranteed to find it counted.
            status = error.status
            pending_error = error
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # The client went away or stalled past the socket timeout
            # (possibly mid-stream): nothing to send, just free the thread.
            status = 499
            self.close_connection = True
        except Exception as error:  # pragma: no cover - defensive backstop
            # Never leak a traceback onto the wire; the envelope carries the
            # class name only and the log carries the details.
            status = 500
            self.server.access_log.log(
                "http_error", path=self.path, error=f"{type(error).__name__}: {error}"
            )
            if self._streaming:
                # Headers (and possibly chunks) are already out: the only
                # honest signal left is an aborted connection.
                self.close_connection = True
            else:
                try:
                    self._send_body(
                        500,
                        error_body("internal", f"internal error ({type(error).__name__})"),
                        "application/json",
                        {"Connection": "close"},
                    )
                except OSError:
                    pass
                # 500 means unknown request state; never reuse the connection.
                self.close_connection = True
        finally:
            elapsed = time.perf_counter() - started
            # An aborted stream (client gone, mid-stream failure) still moved
            # rows; count what actually went out, not just completed requests.
            rows = max(rows, self._rows_sent)
            self.server.metrics.finish_request(route_name, status, elapsed, rows)
            self.server.access_log.log(
                "http_request",
                method=method,
                path=self.path,
                route=route_name,
                status=status,
                duration_ms=round(elapsed * 1000, 3),
                rows=rows,
                client=self._client(),
            )
            request_span.annotate(
                path=self.path, route=route_name, status_code=status, rows=rows
            )
            if status >= 500:
                request_span.status = "error"
            request_span.__exit__(None, None, None)
            if pending_error is not None:
                # Non-GET/POST verbs also close: a HEAD client, for one,
                # will not read the envelope body off the stream.
                close = not self._body_read or method not in ("GET", "POST")
                try:
                    self._send_protocol_error(pending_error, close=close)
                except OSError:
                    self.close_connection = True
            if not self._body_read:
                # Any response — success included (e.g. a GET that arrived
                # with a body) — sent while declared body bytes sit unread in
                # rfile would desync the next keep-alive request.
                self.close_connection = True

    def _dispatch(self) -> None:
        self._handle(self.command)

    # Known verbs route through _handle (GET/POST do real work; the rest get
    # the 405 envelope from _parse_route's method check, with metrics and
    # access logging).  Verbs with no do_* attribute at all — TRACE,
    # PROPFIND, ... — fall to stdlib send_error, overridden above to keep
    # the JSON envelope.
    do_GET = do_POST = do_HEAD = do_PUT = do_DELETE = do_PATCH = do_OPTIONS = _dispatch

    # -- introspection routes ---------------------------------------------------------

    def _do_healthz(self) -> int:
        self._send_json(200, {"status": "ok"})
        return 200

    def _do_metrics(self) -> int:
        query = parse_qs(urlsplit(self.path).query)
        fmt = query.get("format", ["json"])[-1]
        if fmt not in ("json", "prometheus"):
            raise ProtocolError(
                "invalid_request",
                f"unknown metrics format {fmt!r}; expected 'json' or 'prometheus'",
            )
        registry = self.server.metrics.registry
        if self.server.peers is None:
            # Single process: this registry is the whole story.
            if fmt == "prometheus":
                self._send_body(
                    200,
                    registry.render_prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                return 200
            payload = self.server.metrics_payload()
            # The full registry dump (service, training, profiling families)
            # rides along under its own key; the PR-5 top-level keys stay
            # untouched.
            payload["registry"] = registry.snapshot()
            self._send_json(200, payload)
            return 200
        # Pooled: whichever worker catches the scrape merges every worker's
        # counters so the exposition covers the whole pool.  A peer that just
        # died degrades the scrape to partial data rather than failing it.
        entries = [self.server.control_payload()] + self.server.peers.collect()
        merged_registry = merge_snapshots([entry["registry"] for entry in entries])
        if fmt == "prometheus":
            self._send_body(
                200,
                render_prometheus_snapshot(merged_registry, registry).encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return 200
        payload = merge_metrics_payloads([entry["metrics"] for entry in entries])
        payload["registry"] = merged_registry
        payload["pool"] = {
            "processes": len(entries),
            "workers": sorted(
                entry["pid"] for entry in entries if entry.get("pid") is not None
            ),
        }
        self._send_json(200, payload)
        return 200

    def _do_models(self) -> int:
        service = self.server.service
        self._send_json(200, {"models": service.available()})
        return 200

    def _do_model(self, ref: str) -> int:
        service = self.server.service
        try:
            service.resolve(ref)
        except ArtifactError as error:
            message = str(error)
            if ref.rsplit("/", 1)[-1] in ("sample", "sample_labeled"):
                message += " (hint: the sampling endpoints are POST requests)"
            raise ProtocolError("not_found", message)
        try:
            description = service.describe(ref)
        except ArtifactError as error:
            # The ref exists but its artifact is unreadable — the same 409
            # the sample routes report, so "not_found" keeps meaning
            # "no such ref".
            raise ProtocolError("artifact_error", str(error))
        self._send_json(200, description)
        return 200

    # -- synthesis routes -------------------------------------------------------------

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        if length is None:
            raise ProtocolError(
                "invalid_request", "Content-Length is required (chunked request "
                "bodies are not accepted)"
            )
        try:
            length = int(length)
        except ValueError:
            raise ProtocolError("invalid_request", f"invalid Content-Length {length!r}")
        if length < 0:
            # rfile.read(-1) would block until EOF, wedging this handler
            # thread for as long as the client cares to hold the socket open.
            raise ProtocolError("invalid_request", f"invalid Content-Length {length!r}")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                "invalid_request",
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit",
            )
        # The body is still read under header_timeout — request bodies are
        # small JSON, and a slow-body client must be reaped as fast as a
        # slow-header one or it pins a connection permit.  Only once the
        # request is fully in does the long streaming I/O budget apply.
        body = self.rfile.read(length)
        self._body_read = True
        self.connection.settimeout(self.timeout)
        return body

    def _open_stream(self, ref: str, request, labeled: bool):
        """Resolve the artifact and build the chunk iterator, all eagerly.

        Returns ``(iterator, names)`` where ``names`` are the CSV header
        fields.  Raises :class:`ProtocolError` for every failure, so by the
        time headers go out the stream can only fail on a dead socket or a
        genuine bug — never on a bad request.
        """
        service = self.server.service
        try:
            service.resolve(ref)
        except ArtifactError as error:
            raise ProtocolError("not_found", str(error))
        try:
            transformer = service.transformer(ref)
            original = transformer is not None and not request.model_space
            seed = request.seed
            if seed is None:
                seed = self.server.next_request_seed()
            stream = (service.stream_labeled if labeled else service.stream)(
                ref,
                request.n_samples,
                seed=seed,
                chunk_size=request.chunk_size,
                original_space=original,
            )
        except ArtifactError as error:
            raise ProtocolError("artifact_error", str(error))
        except ValueError as error:
            raise ProtocolError("invalid_request", str(error))
        if original:
            names = list(transformer.schema.names)
        else:
            model = service.get(ref)
            width = getattr(model, "n_feature_columns", None) if labeled else None
            if width is None:
                width = int(model.n_input_features_)
            names = [f"feature_{index}" for index in range(width)]
        if labeled:
            names = names + ["label"]
        return stream, names

    def _do_sample(self, ref: str, labeled: bool):
        request = parse_sample_request(self._read_body(), self.server.max_rows)
        if not self.server.acquire_slot():
            raise ProtocolError(
                "saturated",
                f"all {self.server.workers} synthesis workers are busy; retry",
            )
        try:
            stream, names = self._open_stream(ref, request, labeled)
            self.send_response(200)
            self.send_header("Content-Type", request.content_type)
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("X-Repro-Rows", str(request.n_samples))
            self.end_headers()
            self._streaming = True
            if request.format == "csv" and request.header:
                self._write_chunk(header_line("csv", names))
            for chunk in stream:
                features, labels = chunk if labeled else (chunk, None)
                self._write_chunk(encode_chunk(request.format, features, labels))
                self._rows_sent += len(features)
            self.wfile.write(b"0\r\n\r\n")
        finally:
            self.server.release_slot()
        return 200, self._rows_sent

    def _write_chunk(self, data: bytes) -> None:
        if data:
            self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
