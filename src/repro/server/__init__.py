"""``repro.server`` — the HTTP synthesis tier.

Puts :class:`repro.serving.SynthesisService` on the network: a stdlib-only
threaded HTTP server (:mod:`repro.server.app`) with a typed wire protocol
(:mod:`repro.server.protocol`) and a matching stdlib client
(:mod:`repro.server.client`).  Every release request opens its stream through
:meth:`~repro.serving.SynthesisService.open_release`: one counted lookup of
the service's cache, which holds one entry (model and transformer) per
artifact.  Launch it with ``python -m repro serve``.
For multi-core boxes, :mod:`repro.server.pool` pre-forks N such servers
onto one shared listening socket (``serve --processes N``); peers exchange
their ``/metrics`` entries over a unix-socket control channel
(:mod:`repro.server.control`).  ``/metrics`` has one code path: a single
process is a pool of one, and every view is built from one merged registry
snapshot.

The conformance suite (``tests/server/``) pins the defining property: a
seeded HTTP response decodes to arrays **bit-identical** to the in-process
service's, in model space and original space alike — the network tier adds
transport, never drift.
"""

from repro.server.app import (
    DEFAULT_MAX_ROWS,
    WORKER_HEADER,
    SynthesisHTTPServer,
)
from repro.server.client import ServerError, ServingClient
from repro.server.pool import WorkerPool, default_processes
from repro.server.protocol import ProtocolError, SampleRequest

__all__ = [
    "DEFAULT_MAX_ROWS",
    "WORKER_HEADER",
    "ProtocolError",
    "SampleRequest",
    "ServerError",
    "ServingClient",
    "SynthesisHTTPServer",
    "WorkerPool",
    "default_processes",
]
