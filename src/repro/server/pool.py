"""Pre-fork multi-process serving: supervisor, workers, graceful drain.

The PR-5 :class:`~repro.server.app.SynthesisHTTPServer` is thread-per-
connection inside **one** process, so synthesis throughput is capped by the
GIL no matter how many cores the box has (``BENCH_serving_http.json``:
req/s flat from 1 to 32 clients while p99 explodes).  This module breaks
that ceiling the classic Unix way:

- the **supervisor** (:class:`WorkerPool`) binds the listening socket once,
  forks N workers that inherit it, and then only watches: a worker that dies
  — segfault, OOM kill, anything — is reaped and respawned so the pool's
  capacity self-heals;
- each **worker** is a full private serving stack: its own
  :class:`~repro.serving.SynthesisService` (model cache), its own
  :class:`~repro.obs.MetricsRegistry`, its own thread pool — no shared
  mutable state, no cross-process locks.  All workers ``accept()`` on the
  shared socket and the kernel load-balances connections across them;
- ``/metrics`` stays whole-pool: every worker serves its scrape entry over a
  unix-socket **control channel** (:mod:`repro.server.control`) and whichever
  worker catches a scrape merges all of them, exactly as a single process
  merges its own one entry (:func:`repro.obs.merge_snapshots`);
- **SIGTERM drains gracefully**: the supervisor forwards it, each worker
  stops accepting, finishes its in-flight streams (bounded by
  :data:`DRAIN_TIMEOUT`), and only then exits.  A worker whose supervisor
  dies without one (SIGKILL, OOM kill) drains the same way, so no
  unsupervised pool keeps the port.  SIGKILLing a worker mid-stream
  surfaces to that client as a truncated response — never a hung connection
  — and costs the pool nothing beyond the respawn.

Requires ``os.fork`` (POSIX).  Everything is stdlib-only.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.server.app import SynthesisHTTPServer
from repro.server.control import ControlServer, PoolPeers
from repro.utils.logging import StructuredLogger

__all__ = ["WorkerPool", "default_processes"]

#: Seconds a SIGTERM'd worker waits for its in-flight requests before exiting
#: anyway.
DRAIN_TIMEOUT = 30.0

#: Pause before respawning a dead worker: keeps a crash-looping artifact from
#: turning the supervisor into a fork bomb.
RESPAWN_DELAY = 0.05


def default_processes() -> int:
    """The default pool size: one worker per core."""
    return os.cpu_count() or 1


def fork_available() -> bool:
    return hasattr(os, "fork")


class WorkerPool:
    """Supervise N pre-forked :class:`SynthesisHTTPServer` workers.

    Parameters
    ----------
    address:
        ``(host, port)`` for the shared listening socket; port 0 binds an
        ephemeral port (tests, benchmarks).
    service_factory:
        Zero-argument callable building a fresh
        :class:`~repro.serving.SynthesisService`.  Called once **inside each
        worker**, after the fork, so every worker owns an independent model
        cache (and registers its instruments on its own registry).
    processes:
        Number of workers; defaults to :func:`default_processes`.
    server_kwargs:
        Extra keyword arguments for each worker's
        :class:`SynthesisHTTPServer` (``workers``, ``max_rows``,
        ``access_log``, ...).

    The supervisor itself serves nothing: after :meth:`start` it only reaps
    and respawns (logging each death as JSON on stderr).  Use :meth:`wait` to
    block until :meth:`stop` (or a signal handler calling it) shuts the pool
    down.
    """

    def __init__(
        self,
        address,
        service_factory: Callable[[], object],
        processes: Optional[int] = None,
        *,
        server_kwargs: Optional[dict] = None,
    ):
        if not fork_available():
            raise RuntimeError(
                "the pre-fork worker pool requires os.fork (POSIX); "
                "use --processes 1 on this platform"
            )
        self.address = tuple(address)
        self.service_factory = service_factory
        self.processes = default_processes() if processes is None else int(processes)
        if self.processes < 1:
            raise ValueError(f"processes must be >= 1; got {processes!r}")
        self.server_kwargs = dict(server_kwargs or {})
        self.log = StructuredLogger()
        self._control_dir: Optional[Path] = None
        self._socket: Optional[socket.socket] = None
        self._children: Dict[int, int] = {}  # pid -> worker index
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self.respawned = 0

    # -- lifecycle --------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self._socket.getsockname()[1]

    @property
    def worker_pids(self) -> list:
        with self._lock:
            return sorted(self._children)

    def start(self) -> "WorkerPool":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(self.address)
            listener.listen(SynthesisHTTPServer.request_queue_size)
            # Every worker's select() wakes on a new connection; the ones that
            # lose the accept() race must get BlockingIOError (which
            # socketserver drops), not block in accept() past a shutdown().
            listener.setblocking(False)
        except BaseException:
            listener.close()
            raise
        self._socket = listener
        # mkdtemp (not tmp_path-style dirs): unix socket paths have a
        # ~107-byte limit, so stay under the system tmp root.
        self._control_dir = Path(tempfile.mkdtemp(prefix="repro-pool-"))
        for index in range(self.processes):
            self._fork_worker(index)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="pool-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _control_path(self, index: int) -> Path:
        return self._control_dir / f"worker-{index}.sock"

    def _fork_worker(self, index: int) -> int:
        supervisor = os.getpid()
        pid = os.fork()
        if pid == 0:
            # Worker process: never return into the supervisor's stack.
            status = 0
            try:
                _worker_main(
                    listen_socket=self._socket,
                    service_factory=self.service_factory,
                    server_kwargs=self.server_kwargs,
                    control_path=self._control_path(index),
                    control_dir=self._control_dir,
                    supervisor=supervisor,
                )
            except BaseException:
                traceback.print_exc(file=sys.stderr)
                status = 1
            finally:
                os._exit(status)
        with self._lock:
            self._children[pid] = index
        return pid

    def _monitor_loop(self) -> None:
        while not self._stopping.is_set():
            self._reap_and_respawn()
            time.sleep(0.05)

    def _reap_and_respawn(self) -> None:
        """Reap exactly our children (never another subsystem's process
        pools) and replace any that died while the pool is running."""
        with self._lock:
            pids = list(self._children)
        for pid in pids:
            try:
                reaped, status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                reaped, status = pid, 0  # already reaped elsewhere
            if reaped == 0:
                continue
            with self._lock:
                index = self._children.pop(pid, None)
            if index is None or self._stopping.is_set():
                continue
            self.log.log(
                "pool_worker_died", pid=pid, worker=index,
                exit_status=int(status), respawning=True,
            )
            self.respawned += 1
            time.sleep(RESPAWN_DELAY)
            if not self._stopping.is_set():
                self._fork_worker(index)

    def wait(self) -> None:
        """Block until :meth:`stop` completes (the CLI supervisor's loop)."""
        self._stopped.wait()

    def stop(self, graceful: bool = True, timeout: Optional[float] = None) -> None:
        """Shut the pool down.

        ``graceful=True`` sends SIGTERM and lets every worker finish its
        in-flight streams (bounded by the drain timeout); ``graceful=False``
        SIGKILLs.  Always reaps, closes the shared socket, and removes the
        control directory.
        """
        if self._stopping.is_set():
            self._stopped.wait()
            return
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        with self._lock:
            children = dict(self._children)
        sig = signal.SIGTERM if graceful else signal.SIGKILL
        for pid in children:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + (
            (DRAIN_TIMEOUT + 5.0) if timeout is None else timeout
        )
        remaining = set(children)
        while remaining and time.monotonic() < deadline:
            for pid in list(remaining):
                try:
                    reaped, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    remaining.discard(pid)
                    continue
                if reaped:
                    remaining.discard(pid)
            if remaining:
                time.sleep(0.02)
        for pid in remaining:  # drain timeout blown: no mercy
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        with self._lock:
            self._children.clear()
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
        if self._control_dir is not None:
            shutil.rmtree(self._control_dir, ignore_errors=True)
        self._stopped.set()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# --------------------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------------------


def _worker_main(
    listen_socket: socket.socket,
    service_factory: Callable[[], object],
    server_kwargs: dict,
    control_path: Path,
    control_dir: Path,
    supervisor: int,
) -> None:
    """One worker: private service + registry, shared accept, graceful drain.

    Runs until SIGTERM or the death of its ``supervisor`` pid (drain: stop
    accepting, finish in-flight streams, exit 0) or until killed.  Never
    returns — every path ends in ``os._exit`` via the caller's ``finally``.
    """
    from repro.obs import get_registry, set_registry

    # A fresh per-process registry: counters inherited from the supervisor's
    # (or a test harness's) memory image must not leak into this worker's
    # exposition.  set_registry(None) re-runs the REPRO_OBS_DISABLED check.
    set_registry(None)
    registry = get_registry()
    service = service_factory()
    server = SynthesisHTTPServer(
        None,
        service,
        registry=registry,
        listen_socket=listen_socket,
        **server_kwargs,
    )
    control = ControlServer(control_path, server.control_payload).start()
    server.peers = PoolPeers(control_dir, exclude=control_path)

    serving = threading.Event()
    draining = threading.Event()

    def _drain() -> None:
        serving.wait(5.0)
        server.shutdown()  # stop accepting; handler threads keep running
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while time.monotonic() < deadline:
            if server.in_flight <= 0 and server.slots_in_use <= 0:
                break
            time.sleep(0.05)
        # One beat for the final response bytes to clear the socket buffers.
        time.sleep(0.05)
        control.stop()
        try:
            server.server_close()
        except OSError:
            pass
        os._exit(0)

    def _on_signal(signum, frame) -> None:
        if not draining.is_set():
            draining.set()
            threading.Thread(target=_drain, name="drain", daemon=True).start()

    signal.signal(signal.SIGTERM, _on_signal)
    # ^C in a foreground CLI hits the whole process group; workers drain on
    # it the same way instead of dying mid-stream with a KeyboardInterrupt.
    signal.signal(signal.SIGINT, _on_signal)

    def _drain_if_orphaned() -> None:
        # serve_forever calls this once per poll interval.  A SIGKILLed or
        # OOM-killed supervisor sends no SIGTERM; its workers are reparented.
        if os.getppid() != supervisor:
            _on_signal(None, None)

    server.service_actions = _drain_if_orphaned

    serving.set()
    server.serve_forever(poll_interval=0.1)
    # serve_forever only exits once a drain is in progress; the drain thread
    # owns the exit (after the in-flight streams finish), so park on an event
    # nobody sets.  The timeout is a dead-man switch for a wedged drain.
    threading.Event().wait(DRAIN_TIMEOUT + 15.0)
    os._exit(0)
