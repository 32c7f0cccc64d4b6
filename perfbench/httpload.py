"""Closed-loop HTTP/1.1 load generator over raw keep-alive sockets.

Bodies are never decoded on the timed path: the client reads the chunked
framing, counts newlines (one NDJSON row per line) and, only when asked to,
keeps the bytes.  Decoding 3 MB JSON bodies in Python would put the load
generator, not the server, on the critical path of a 2-core box.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass

perf_counter = time.perf_counter


@dataclass
class Response:
    request_id: str
    status: int
    rows: int
    terminated: bool
    sent: float
    first_byte: float
    done: float
    size: int
    body: bytes = b""

    @property
    def latency(self) -> float:
        return self.done - self.sent

    @property
    def ttfb(self) -> float:
        return self.first_byte - self.sent


class Connection:
    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb", buffering=1 << 16)
        self.open = True

    def close(self) -> None:
        self.open = False
        self.reader.close()
        self.sock.close()

    def post(self, path: str, payload: dict, request_id: str, keep_body=False) -> Response:
        body = json.dumps(payload).encode()
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"X-Request-Id: {request_id}\r\n\r\n"
        ).encode()
        sent = perf_counter()
        self.sock.sendall(head + body)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("connection", "").lower() == "close":
            self.open = False
        rows, size_total, parts, terminated = 0, 0, [], False
        first_byte = None
        if headers.get("transfer-encoding", "").lower() == "chunked":
            while True:
                size_line = self.reader.readline()
                if first_byte is None:
                    first_byte = perf_counter()
                if not size_line:
                    break
                size = int(size_line.split(b";")[0], 16)
                if size == 0:
                    terminated = self.reader.readline() == b"\r\n"
                    break
                data = self.reader.read(size)
                rows += data.count(b"\n")
                size_total += size
                if keep_body:
                    parts.append(data)
                self.reader.read(2)
        else:
            data = self.reader.read(int(headers.get("content-length", 0)))
            first_byte = perf_counter()
            size_total = len(data)
            parts.append(data)
        done = perf_counter()
        return Response(
            request_id, status, rows, terminated, sent, first_byte or done, done, size_total,
            b"".join(parts),
        )


def closed_loop(host, port, make_request, clients: int, seconds=None, per_client=None):
    """Run ``clients`` threads, each sending its next request only after the
    previous response ends, for ``seconds`` or ``per_client`` requests.

    ``make_request(client, index) -> (path, payload, request_id)``.
    Returns ``(responses, errors, wall_seconds)``; an error is a request that
    raised (connection lost, timeout), recorded as ``(request_id, message)``.
    """
    responses, errors = [], []
    lock = threading.Lock()
    start = perf_counter()
    deadline = None if seconds is None else start + seconds

    def client(number):
        connection = None
        index = 0
        try:
            while True:
                if per_client is not None and index >= per_client:
                    break
                if deadline is not None and perf_counter() >= deadline:
                    break
                path, payload, request_id = make_request(number, index)
                index += 1
                try:
                    if connection is None or not connection.open:
                        if connection is not None:
                            connection.close()
                        connection = Connection(host, port)
                    response = connection.post(path, payload, request_id)
                except (OSError, ValueError, IndexError) as error:
                    with lock:
                        errors.append((request_id, f"{type(error).__name__}: {error}"))
                    if connection is not None:
                        connection.close()
                    connection = None
                    continue
                with lock:
                    responses.append(response)
        finally:
            if connection is not None:
                connection.close()

    threads = [threading.Thread(target=client, args=(n,)) for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return responses, errors, perf_counter() - start
