"""Fault injection for the pre-fork pool: crashes truncate, never hang.

Four guarantees that make the pool operable:

- SIGKILLing the worker that owns a stream closes that client's connection
  (a truncated body, detected immediately) instead of leaving it hung;
- the supervisor reaps and respawns the dead worker, so the pool's capacity
  recovers and the next request succeeds;
- SIGTERM is a drain, not a kill: a worker told to exit finishes the stream
  it is serving — every row arrives — before the process goes away, and an
  idle pool stops at once;
- a pool that cannot bind its port raises and leaves no socket open.
"""

import gc
import http.client
import json
import os
import signal
import socket
import threading
import time
import warnings

import pytest

from repro.server import WORKER_HEADER, WorkerPool
from server_kit import serve_pool


def _open_stream(port, n_samples, chunk_size, timeout=30):
    """Begin a streamed request, read only the headers, return (conn, response).

    The response carries the pid of the worker that owns the stream in the
    ``X-Repro-Worker`` header; the unread body keeps that worker mid-stream.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    body = json.dumps({"n_samples": n_samples, "chunk_size": chunk_size, "seed": 0})
    conn.request("POST", "/v1/models/vae/sample", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    assert response.status == 200
    return conn, response


def _wait_for_respawn(pool, dead_pid, processes, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = pool.worker_pids
        if dead_pid not in pids and len(pids) == processes:
            return pids
        time.sleep(0.05)
    pytest.fail(f"worker {dead_pid} was not respawned within {timeout}s")


class TestWorkerCrash:
    def test_kill_mid_stream_truncates_instead_of_hanging(
        self, numeric_artifact_root
    ):
        with serve_pool(numeric_artifact_root, processes=2) as (pool, client, _):
            conn, response = _open_stream(
                pool.port, n_samples=200_000, chunk_size=2048, timeout=10
            )
            victim = int(response.headers[WORKER_HEADER])
            assert victim in pool.worker_pids
            try:
                os.kill(victim, signal.SIGKILL)
                started = time.perf_counter()
                # The chunked body cannot terminate cleanly once its sender
                # is dead: the read must fail, and fail fast — a truncated
                # response, never a connection hung until the client timeout.
                with pytest.raises(
                    (http.client.IncompleteRead, http.client.HTTPException,
                     ConnectionError, OSError)
                ):
                    response.read()
                assert time.perf_counter() - started < 8.0
            finally:
                conn.close()

    def test_supervisor_respawns_and_next_request_succeeds(
        self, numeric_artifact_root
    ):
        with serve_pool(numeric_artifact_root, processes=2) as (pool, client, _):
            victim = pool.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            pids = _wait_for_respawn(pool, victim, processes=2)
            assert pool.respawned >= 1
            assert len(pids) == 2
            # The recovered pool serves: health and a full synthesis stream.
            assert client.healthz() == {"status": "ok"}
            rows = client.sample("vae", 5, seed=1)
            assert len(rows) == 5

    def test_crash_during_stream_leaves_other_requests_unharmed(
        self, numeric_artifact_root
    ):
        with serve_pool(numeric_artifact_root, processes=2) as (pool, client, _):
            conn, response = _open_stream(
                pool.port, n_samples=200_000, chunk_size=2048, timeout=10
            )
            victim = int(response.headers[WORKER_HEADER])
            os.kill(victim, signal.SIGKILL)
            conn.close()
            _wait_for_respawn(pool, victim, processes=2)
            reference = client.sample_raw("vae", 21, seed=4, chunk_size=8)
            assert client.sample_raw("vae", 21, seed=4, chunk_size=8) == reference


class TestGracefulDrain:
    N_ROWS = 20_000

    def test_sigterm_finishes_the_active_stream_before_exit(
        self, numeric_artifact_root
    ):
        with serve_pool(numeric_artifact_root, processes=2) as (pool, client, _):
            conn, response = _open_stream(
                pool.port, n_samples=self.N_ROWS, chunk_size=512, timeout=60
            )
            victim = int(response.headers[WORKER_HEADER])
            os.kill(victim, signal.SIGTERM)
            try:
                body = response.read()  # keep consuming: the drain must let
                lines = body.decode("utf-8").splitlines()  # every row through
                assert len(lines) == self.N_ROWS
                assert json.loads(lines[-1])  # the last row is intact
            finally:
                conn.close()
            # The drained worker exits afterwards (and is respawned by the
            # supervisor, which never asked it to die).
            _wait_for_respawn(pool, victim, processes=2)
            assert client.healthz() == {"status": "ok"}

    def test_pool_stop_graceful_drains_in_flight_streams(
        self, numeric_artifact_root
    ):
        with serve_pool(numeric_artifact_root, processes=2) as (pool, client, _):
            conn, response = _open_stream(
                pool.port, n_samples=self.N_ROWS, chunk_size=512, timeout=60
            )
            result = {}

            def consume():
                try:
                    result["body"] = response.read()
                except Exception as error:  # surfaced by the main thread
                    result["error"] = error

            reader = threading.Thread(target=consume)
            reader.start()
            time.sleep(0.2)  # let the stream get properly under way
            pool.stop(graceful=True)  # SIGTERM + wait: the supervisor's path
            reader.join(timeout=60)
            conn.close()
            assert not reader.is_alive()
            assert "error" not in result, f"stream broke during drain: {result}"
            assert len(result["body"].decode("utf-8").splitlines()) == self.N_ROWS
            assert pool.worker_pids == []

    def test_pool_stop_graceful_after_traffic_returns_promptly(
        self, numeric_artifact_root
    ):
        # A connection wakes every worker's select(); a worker that loses the
        # accept() race must not block in accept() and sit out the drain
        # timeout (DRAIN_TIMEOUT + 5 s, then SIGKILL) on a graceful stop.
        # Whether a worker loses that race is down to scheduling (3 pools in
        # 6 on two idle cores with a blocking listener), so four pools get
        # the chance.
        for attempt in range(4):
            with serve_pool(numeric_artifact_root, processes=2) as (pool, client, _):
                assert len(client.sample("vae", 5, seed=1)) == 5
                started = time.monotonic()
                pool.stop(graceful=True)
                elapsed = time.monotonic() - started
                assert pool.worker_pids == []
            assert elapsed < 5.0, f"pool {attempt}: graceful stop took {elapsed:.1f}s"


def test_start_on_a_taken_port_closes_its_socket():
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        pool = WorkerPool(taken.getsockname(), lambda: None, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                pool.start()
            gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
