"""The worker pool's local control channel (metrics aggregation).

Every pre-fork worker owns a private :class:`~repro.obs.MetricsRegistry`, so
a ``/metrics`` scrape — which the kernel hands to *one* worker — would
otherwise only see a fraction of the pool's traffic.  Each worker therefore
exposes its metrics state over a unix-domain socket in a shared control
directory (``worker-<index>.sock``); the worker handling a scrape connects to
every peer socket, collects their payloads, and merges.

The protocol is deliberately trivial: connecting *is* the request.  The
server side sends one JSON document (the worker's ``/metrics`` entry: its
registry snapshot plus server and cache state) and closes; the client reads
to EOF.  Unreachable sockets are
skipped — a worker that just died (and is being respawned by the supervisor)
must degrade a scrape to partial data, never fail it.

Everything here is stdlib-only and Unix-only, like the pool itself.
"""

from __future__ import annotations

import json
import socket
import threading
from pathlib import Path
from typing import Callable, List, Optional

__all__ = ["ControlServer", "PoolPeers", "CONTROL_SOCKET_SUFFIX"]

CONTROL_SOCKET_SUFFIX = ".sock"

#: Per-peer connect/read budget.  A scrape over N workers costs at most
#: N * this many seconds in the worst case; in practice peers answer in
#: microseconds because the payload is built from in-memory counters.
PEER_TIMEOUT = 2.0


class ControlServer:
    """Serve one worker's metrics payload over a unix socket, one thread.

    Parameters
    ----------
    path:
        The socket path (inside the pool's control directory).
    payload:
        Zero-argument callable returning the JSON-safe dict to serve.  It is
        evaluated per connection, so scrapes always see current counters.
    """

    def __init__(self, path, payload: Callable[[], dict]):
        self.path = Path(path)
        self._payload = payload
        self._socket: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    def start(self) -> "ControlServer":
        if self.path.exists():
            self.path.unlink()
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(str(self.path))
        server.listen(8)
        self._socket = server
        self._thread = threading.Thread(
            target=self._serve, name=f"control:{self.path.name}", daemon=True
        )
        self._thread.start()
        return self

    def _serve(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _ = self._socket.accept()
            except OSError:
                return  # socket closed by stop()
            try:
                body = json.dumps(self._payload()).encode("utf-8")
                connection.sendall(body)
            except Exception:
                pass  # a failed scrape never takes the worker down
            finally:
                try:
                    connection.close()
                except OSError:
                    pass

    def stop(self) -> None:
        self._stopping.set()
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
        try:
            self.path.unlink()
        except OSError:
            pass


class PoolPeers:
    """Collect peer workers' metrics payloads from the control directory."""

    def __init__(self, control_dir, exclude=None):
        self.control_dir = Path(control_dir)
        self.exclude = None if exclude is None else Path(exclude)

    def collect(self) -> List[dict]:
        """One payload per reachable peer; dead peers are silently skipped."""
        payloads = []
        try:
            entries = sorted(self.control_dir.glob(f"*{CONTROL_SOCKET_SUFFIX}"))
        except OSError:
            return payloads
        for path in entries:
            if self.exclude is not None and path == self.exclude:
                continue
            payload = self._fetch(path)
            if payload is not None:
                payloads.append(payload)
        return payloads

    def _fetch(self, path: Path) -> Optional[dict]:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as connection:
                connection.settimeout(PEER_TIMEOUT)
                connection.connect(str(path))
                pieces = []
                while True:
                    piece = connection.recv(1 << 16)
                    if not piece:
                        break
                    pieces.append(piece)
            return json.loads(b"".join(pieces))
        except (OSError, ValueError):
            # Connection refused / stale socket of a dead worker, a torn
            # write, or an unparseable body: partial aggregation wins over a
            # failed scrape.
            return None
