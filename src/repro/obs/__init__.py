"""``repro.obs`` — the unified observability layer: metrics and tracing.

Two complementary instruments, both stdlib-only and safe to leave on in
production:

- **Metrics** (:mod:`repro.obs.registry`): a process-wide
  :class:`MetricsRegistry` of thread-safe, labeled :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` families with exact bucket counts.
  Its JSON :meth:`~MetricsRegistry.snapshot` is the one source both
  expositions come from: :func:`merge_snapshots` sums snapshots across
  processes and :func:`render_prometheus_snapshot` renders the Prometheus
  text format scrapers expect.  ``REPRO_OBS_DISABLED=1`` turns every
  instrument into a no-op.
- **Tracing** (:mod:`repro.obs.trace`): ``span("model.sample")`` context
  managers building parent/child timing trees with per-request / per-trial
  correlation ids, emitted as JSON lines through
  :class:`repro.utils.logging.StructuredLogger` (enable with
  ``REPRO_TRACE=path`` or :func:`configure_tracer`).

Consumers: :mod:`repro.server` serves the registry at ``/metrics`` (JSON and
``?format=prometheus``), :class:`repro.serving.SynthesisService` counts cache
traffic and times artifact loads / streamed chunks,
:class:`repro.engine.MetricsCallback` publishes training throughput and the
privacy-budget gauge, :class:`repro.experiments.Runner` emits per-trial spans,
and ``python -m repro obs`` renders a server's ``/metrics`` and trace trees.
"""

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    render_prometheus_snapshot,
    set_registry,
)
from repro.obs.trace import (
    Span,
    Tracer,
    configure_tracer,
    current_span,
    get_tracer,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    "merge_snapshots",
    "render_prometheus_snapshot",
    "Span",
    "Tracer",
    "get_tracer",
    "configure_tracer",
    "current_span",
    "span",
]
