"""Wire protocol of the HTTP synthesis tier.

Requests and responses are plain JSON; streamed bodies are NDJSON (one JSON
array per row) or CSV.  Two properties are load-bearing and pinned by the
conformance suite:

- **Bit-exact floats.**  Model-space values are encoded with python's
  shortest round-trip ``repr`` (what :func:`json.dumps` uses), so a client
  that parses a streamed row recovers the *exact* float64 the in-process
  :class:`~repro.serving.SynthesisService` would have returned.  The CSV
  encoder uses the same representation.
- **Typed errors, never tracebacks.**  Every failure surfaces as a 4xx JSON
  envelope ``{"error": {"code": ..., "message": ...}}`` with a stable machine
  code; validation messages name the offending field.

:class:`ProtocolError` is the single carrier of (status, code, message);
:func:`parse_sample_request` maps a raw POST body to a validated
:class:`SampleRequest` or raises it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

try:
    # Optional accelerator for the float-row hot path (the CI image does not
    # ship it); every byte it emits is checked against the stdlib encoding
    # contract below, and chunks it cannot reproduce exactly fall through to
    # the stdlib path.
    import orjson

    _ORJSON_NUMPY = orjson.OPT_SERIALIZE_NUMPY
except ImportError:  # pragma: no cover - exercised on images without orjson
    orjson = None
    _ORJSON_NUMPY = 0

__all__ = [
    "ERROR_CODES",
    "FORMATS",
    "ProtocolError",
    "SampleRequest",
    "encode_chunk",
    "error_body",
    "header_line",
    "json_body",
    "parse_sample_request",
    "to_jsonable",
]

#: Machine error codes -> the HTTP status they are served with.
ERROR_CODES = {
    "invalid_json": 400,
    "invalid_request": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "artifact_error": 409,
    "too_many_rows": 413,
    "saturated": 429,
    "internal": 500,
}

FORMATS = ("ndjson", "csv")

CONTENT_TYPES = {"ndjson": "application/x-ndjson", "csv": "text/csv; charset=utf-8"}


class ProtocolError(Exception):
    """A request failure with a stable machine code and HTTP status."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.status = ERROR_CODES[code]
        self.message = message


@dataclass(frozen=True)
class SampleRequest:
    """A validated synthesis request body."""

    n_samples: int
    seed: Optional[int] = None
    chunk_size: Optional[int] = None
    format: str = "ndjson"
    model_space: bool = False
    header: bool = True

    @property
    def content_type(self) -> str:
        return CONTENT_TYPES[self.format]


def _require_int(value, field: str, minimum: int = 1) -> int:
    """An integer field: booleans and floats are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            "invalid_request",
            f"{field} must be an integer; got {value!r} ({type(value).__name__})",
        )
    if value < minimum:
        raise ProtocolError(
            "invalid_request", f"{field} must be >= {minimum}; got {value!r}"
        )
    return value


def _require_bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ProtocolError(
            "invalid_request",
            f"{field} must be a boolean; got {value!r} ({type(value).__name__})",
        )
    return value


#: Upper bound on a client-requested chunk size.  Chunk size is the streaming
#: memory bound, so letting a request set it to ``n_samples`` would turn a
#: stream back into one materialised draw.
MAX_CHUNK_ROWS = 65_536


def parse_sample_request(body: bytes, max_rows: int) -> SampleRequest:
    """Parse and validate a POST body, or raise :class:`ProtocolError`.

    ``max_rows`` is the server's per-request row budget; exceeding it is a
    413 ``too_many_rows``, distinct from plain validation failures, so load
    balancers and clients can tell "ask for less" from "fix the request".
    A requested ``chunk_size`` is capped at :data:`MAX_CHUNK_ROWS`.
    """
    if not body:
        raise ProtocolError("invalid_json", "request body is empty; expected a JSON object")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as error:
        raise ProtocolError("invalid_json", f"request body is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ProtocolError(
            "invalid_request",
            f"request body must be a JSON object; got {type(payload).__name__}",
        )
    known = {"n_samples", "seed", "chunk_size", "format", "model_space", "header"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(
            "invalid_request",
            f"unknown field(s) {unknown}; accepted fields: {sorted(known)}",
        )
    if "n_samples" not in payload:
        raise ProtocolError("invalid_request", "n_samples is required")
    n_samples = _require_int(payload["n_samples"], "n_samples")
    if n_samples > max_rows:
        raise ProtocolError(
            "too_many_rows",
            f"n_samples={n_samples} exceeds this server's per-request limit "
            f"of {max_rows} rows; split the request",
        )
    seed = payload.get("seed")
    if seed is not None:
        # numpy's default_rng rejects negative seeds; catching it here keeps
        # the error a field-naming 400 instead of a bare numpy message.
        seed = _require_int(seed, "seed", minimum=0)
    chunk_size = payload.get("chunk_size")
    if chunk_size is not None:
        chunk_size = _require_int(chunk_size, "chunk_size")
        if chunk_size > MAX_CHUNK_ROWS:
            raise ProtocolError(
                "invalid_request",
                f"chunk_size={chunk_size} exceeds this server's per-chunk limit "
                f"of {MAX_CHUNK_ROWS} rows (the streaming memory bound)",
            )
    fmt = payload.get("format", "ndjson")
    if fmt not in FORMATS:
        raise ProtocolError(
            "invalid_request", f"format must be one of {list(FORMATS)}; got {fmt!r}"
        )
    return SampleRequest(
        n_samples=n_samples,
        seed=seed,
        chunk_size=chunk_size,
        format=fmt,
        model_space=_require_bool(payload.get("model_space", False), "model_space"),
        header=_require_bool(payload.get("header", True), "header"),
    )


# ----------------------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------------------


def to_jsonable(value):
    """Native python value for one table cell (numpy scalars unwrapped).

    Floats stay floats — ``json.dumps`` renders them with the shortest
    round-trip ``repr``, which is what makes streamed rows bit-identical to
    the in-process arrays.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def header_line(fmt: str, names: list) -> bytes:
    """The CSV header record (empty for NDJSON, which needs none)."""
    if fmt != "csv":
        return b""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([str(name) for name in names])
    return buffer.getvalue().encode("utf-8")


def _native_records(rows: np.ndarray) -> list:
    """Rows as lists of native python values.

    Numeric arrays convert wholesale through ``ndarray.tolist()`` (one C
    call, the streaming hot path); object (original-space) arrays go cell by
    cell through :func:`to_jsonable` to unwrap numpy scalars.
    """
    if rows.dtype == object:
        return [[to_jsonable(cell) for cell in row] for row in rows]
    return rows.tolist()


# The orjson fast path is only byte-identical to python's shortest
# round-trip ``repr`` inside this magnitude window: below it orjson renders
# positionally (``0.0000769...``) where repr switches to exponent form, and
# its exponents drop repr's zero padding (``1e-6`` vs ``1e-06``); at 1e16
# repr itself goes exponential.  Zero (either sign) and everything in the
# window round-trips identically — verified exhaustively against repr over
# the window and its boundaries.  NaN/inf fail both comparisons below and
# fall back to the stdlib encoder (orjson would emit ``null``).
_REPR_SAFE_LOW = 1e-4
_REPR_SAFE_HIGH = 1e16


def _repr_safe(rows: np.ndarray) -> np.ndarray:
    magnitude = np.abs(rows)
    return ((magnitude >= _REPR_SAFE_LOW) & (magnitude < _REPR_SAFE_HIGH)) | (
        rows == 0.0
    )


def _encode_float_chunk(fmt: str, rows: np.ndarray) -> bytes:
    """The float-row hot path: one vectorised ``orjson`` encode per chunk.

    The whole chunk is serialised as a single nested JSON array straight from
    the ndarray (no ``tolist``), then spliced into NDJSON lines or CSV
    records — float-only rows never trigger CSV quoting, and JSON float text
    equals ``repr``.  Rows holding any value outside the repr-safe window are
    re-encoded individually through the exact stdlib path.
    """
    if not rows.flags.c_contiguous:
        rows = np.ascontiguousarray(rows)
    safe = _repr_safe(rows)
    if safe.all():
        body = orjson.dumps(rows, option=_ORJSON_NUMPY)
        if fmt == "ndjson":
            return body[1:-1].replace(b"],[", b"]\n[") + b"\n"
        return body[2:-2].replace(b"],[", b"\n") + b"\n"
    pieces = []
    if fmt == "ndjson":
        for row, ok in zip(rows, safe.all(axis=1)):
            if ok:
                pieces.append(orjson.dumps(row, option=_ORJSON_NUMPY))
            else:
                pieces.append(
                    json.dumps(row.tolist(), separators=(",", ":")).encode("utf-8")
                )
    else:
        for row, ok in zip(rows, safe.all(axis=1)):
            if ok:
                pieces.append(orjson.dumps(row, option=_ORJSON_NUMPY)[1:-1])
            else:
                # csv.writer never quotes float reprs (no delimiter/quote/
                # newline characters), so a plain join is its exact output.
                pieces.append(
                    ",".join(repr(value) for value in row.tolist()).encode("utf-8")
                )
    return b"\n".join(pieces) + b"\n"


def encode_chunk(fmt: str, rows, labels=None) -> bytes:
    """Encode one streamed chunk of rows (plus an optional label column).

    ``rows`` is a 2-D numpy array (float model space or object original
    space); ``labels``, when given, is appended as the last field of every
    row.  NDJSON emits one JSON array per row; CSV one quoted record per row.
    Both use round-trip float encoding, so the two formats decode to the same
    values.  Unlabelled float chunks take the vectorised fast path of
    :func:`_encode_float_chunk` when ``orjson`` is available — its output is
    byte-identical to the stdlib encoding by construction.
    """
    rows = np.asarray(rows)
    if (
        orjson is not None
        and labels is None
        and rows.ndim == 2
        and rows.dtype == np.float64
        and rows.shape[0]
        and rows.shape[1]
    ):
        return _encode_float_chunk(fmt, rows)
    records = _native_records(rows)
    if labels is not None:
        for record, label in zip(records, labels):
            record.append(to_jsonable(label))
    if fmt == "ndjson":
        lines = [json.dumps(record, separators=(",", ":")) for record in records]
        return ("\n".join(lines) + "\n").encode("utf-8")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for record in records:
        writer.writerow([
            repr(value) if isinstance(value, float) else str(value) for value in record
        ])
    return buffer.getvalue().encode("utf-8")


def json_body(payload: dict) -> bytes:
    """A JSON response body (trailing newline for curl-friendliness)."""
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def error_body(code: str, message: str) -> bytes:
    """The documented error envelope."""
    return json_body({"error": {"code": code, "message": message}})
