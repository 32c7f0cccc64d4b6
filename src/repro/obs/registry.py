"""Process-wide metrics: labeled counters, gauges, and exact histograms.

The registry is the single source of truth for operational metrics across the
codebase — the HTTP tier, the synthesis service, the training engine, and the
experiment runner all register their instruments here and the ``/metrics``
endpoint (or ``python -m repro obs``) exposes one consistent snapshot.

Design points:

- **Thread-safe.**  Every instrument guards its samples with one lock; the
  registry guards family creation with another.  Concurrent increments from
  request-handler and training threads are exact, never lost.
- **Labeled.**  A family is declared once with its label *names*
  (``registry.counter("repro_http_requests_total", labels=("route",
  "status"))``) and each observation supplies the label *values*.  Declaring
  the same name twice returns the existing family (so modules can be
  imported in any order); re-declaring with a different kind or label set is
  a programming error and raises.
- **Exact-bucket histograms.**  Observations are counted into fixed upper
  edges with exact integer counts (no sketching); the JSON exposition keeps
  the per-bucket (non-cumulative) counts the PR-5 ``/metrics`` endpoint
  established, while the Prometheus exposition, rendered from that same
  snapshot, uses the standard cumulative ``le`` form.
- **Disable switch.**  ``REPRO_OBS_DISABLED=1`` makes :func:`get_registry`
  hand out a disabled registry whose instruments are no-ops, so the
  instrumentation can be priced (``benchmarks/bench_obs_overhead.py``) and
  turned off wholesale without touching call sites.

Everything here is stdlib-only.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "merge_snapshots",
    "render_prometheus_snapshot",
    "set_registry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Shared default upper edges (seconds) for latency histograms — the PR-5
#: serving buckets, reused anywhere a more specific grid is not declared.
DEFAULT_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, float("inf"))


def _edge_label(edge: float) -> str:
    """The JSON key for a bucket edge ('+Inf' for the overflow bucket)."""
    return "+Inf" if math.isinf(edge) else repr(float(edge))


class _Instrument:
    """Shared label plumbing for one metric family."""

    kind = ""

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        self.name = str(name)
        self.help = str(help)
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()
        self._samples: Dict[tuple, object] = {}

    def _label_values(self, labels: dict) -> tuple:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {list(self.label_names)}; "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def samples(self) -> dict:
        """``{label_values_tuple: value}`` — a consistent copy."""
        with self._lock:
            return dict(self._samples)


def _escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter(_Instrument):
    """A monotonically increasing count (requests served, cache hits, ...)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount!r})")
        key = self._label_values(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels) -> float:
        key = self._label_values(labels)
        with self._lock:
            return self._samples.get(key, 0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._samples.values())


class Gauge(_Instrument):
    """A value that goes up and down (in-flight requests, epsilon spent)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._label_values(labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._label_values(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, default: float = 0.0, **labels) -> float:
        key = self._label_values(labels)
        with self._lock:
            return self._samples.get(key, default)


class _HistogramState:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket distribution with exact per-bucket counts.

    ``buckets`` are upper edges; an implicit ``+Inf`` edge is appended when
    the caller's last edge is finite, so every observation lands somewhere.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help, labels)
        edges = tuple(float(edge) for edge in buckets)
        if not edges or list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"bucket edges must be strictly increasing; got {buckets!r}")
        if not math.isinf(edges[-1]):
            edges = edges + (float("inf"),)
        self.buckets: Tuple[float, ...] = edges

    def observe(self, value: float, **labels) -> None:
        key = self._label_values(labels)
        value = float(value)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = self._samples[key] = _HistogramState(len(self.buckets))
            for index, edge in enumerate(self.buckets):
                if value <= edge:
                    state.bucket_counts[index] += 1
                    break
            state.sum += value
            state.count += 1

    def snapshot(self, **labels) -> dict:
        """Per-bucket counts, sum, and count for one label combination."""
        key = self._label_values(labels)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                counts = [0] * len(self.buckets)
                total, count = 0.0, 0
            else:
                counts = list(state.bucket_counts)
                total, count = state.sum, state.count
        return {
            "buckets": {
                _edge_label(edge): bucket
                for edge, bucket in zip(self.buckets, counts)
            },
            "sum": round(total, 6),
            "count": count,
        }


class _NullInstrument:
    """The disabled registry's no-op instrument: accepts anything, stores nothing."""

    def __init__(self, name: str, kind: str, help: str = "", buckets=DEFAULT_LATENCY_BUCKETS):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = ()
        edges = tuple(float(edge) for edge in buckets)
        if edges and not math.isinf(edges[-1]):
            edges = edges + (float("inf"),)
        self.buckets = edges or (float("inf"),)

    def inc(self, amount: float = 1, **labels) -> None:
        pass

    def dec(self, amount: float = 1, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def value(self, default: float = 0.0, **labels) -> float:
        return default if self.kind == "gauge" else 0

    def total(self) -> float:
        return 0

    def samples(self) -> dict:
        return {}

    def snapshot(self, **labels) -> dict:
        return {
            "buckets": {_edge_label(edge): 0 for edge in self.buckets},
            "sum": 0.0,
            "count": 0,
        }


class MetricsRegistry:
    """Get-or-create metric families by name; JSON and Prometheus exposition.

    Parameters
    ----------
    enabled:
        ``False`` makes every instrument a shared-shape no-op — the full
        off-switch behind ``REPRO_OBS_DISABLED=1``.  Consumers keep their
        call sites; snapshots come back with zeroed values.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._families: Dict[str, object] = {}

    # -- family creation -------------------------------------------------------------

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        if not self.enabled:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = self._families[name] = _NullInstrument(
                        name, cls.kind, help, kwargs.get("buckets", DEFAULT_LATENCY_BUCKETS)
                    )
                return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = cls(name, help, labels, **kwargs)
                return family
        if family.kind != cls.kind or tuple(family.label_names) != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind} with "
                f"labels {list(family.label_names)}; cannot re-register as a "
                f"{cls.kind} with labels {list(labels)}"
            )
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, tuple(labels))

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, tuple(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, tuple(labels), buckets=buckets
        )

    def get(self, name: str):
        """The registered family for ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def families(self) -> list:
        with self._lock:
            return sorted(self._families.values(), key=lambda family: family.name)

    def reset(self) -> None:
        """Drop every family (tests)."""
        with self._lock:
            self._families.clear()

    # -- exposition ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe dump: every family, every label combination.

        An enabled registry reports an unlabeled counter or gauge as ``0``
        before its first sample, so a fresh family is visible in every
        exposition; a disabled registry reports families with no series.
        """
        out: dict = {}
        for family in self.families():
            if family.kind == "histogram":
                series = []
                for key in sorted(family.samples()):
                    labels = dict(zip(family.label_names, key))
                    series.append({"labels": labels, **family.snapshot(**labels)})
                out[family.name] = {"type": "histogram", "series": series}
            else:
                samples = family.samples()
                if not samples and not family.label_names and self.enabled:
                    samples = {(): 0}
                series = [
                    {"labels": dict(zip(family.label_names, key)), "value": value}
                    for key, value in sorted(samples.items())
                ]
                out[family.name] = {"type": family.kind, "series": series}
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        return render_prometheus_snapshot(self.snapshot(), self)


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge registry :meth:`MetricsRegistry.snapshot` dumps across processes.

    The pre-fork serving tier gives every worker its own registry; a
    ``/metrics`` scrape lands on *one* worker, which collects its peers'
    snapshots over the control channel and merges them here so the exposition
    covers the whole pool.  Merge rules per family type:

    - **counter** — values for the same label combination are summed;
    - **gauge** — summed as well (in-flight requests, worker-slot occupancy,
      and cache sizes are all per-worker quantities whose pool-wide reading
      is the sum);
    - **histogram** — per-bucket counts, ``sum``, and ``count`` are summed
      (buckets are aligned by edge label; a family must use the same grid in
      every worker, which registration guarantees for identical code).

    A family name appearing with different types in two snapshots is a
    programming error and raises, mirroring the registry's own registration
    conflict check.
    """
    merged: dict = {}
    order: Dict[str, dict] = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            target = merged.get(name)
            if target is None:
                target = merged[name] = {"type": family["type"]}
                order[name] = {}
            elif target["type"] != family["type"]:
                raise ValueError(
                    f"cannot merge metric {name!r}: seen as both "
                    f"{target['type']!r} and {family['type']!r}"
                )
            series_by_labels = order[name]
            for entry in family["series"]:
                labels = entry.get("labels") or {}
                key = tuple(sorted(labels.items()))
                existing = series_by_labels.get(key)
                if existing is None:
                    if family["type"] == "histogram":
                        series_by_labels[key] = {
                            "labels": dict(labels),
                            "buckets": dict(entry["buckets"]),
                            "sum": entry["sum"],
                            "count": entry["count"],
                        }
                    else:
                        series_by_labels[key] = {
                            "labels": dict(labels), "value": entry["value"]
                        }
                elif family["type"] == "histogram":
                    buckets = existing["buckets"]
                    for edge, count in entry["buckets"].items():
                        buckets[edge] = buckets.get(edge, 0) + count
                    existing["sum"] = round(existing["sum"] + entry["sum"], 6)
                    existing["count"] += entry["count"]
                else:
                    existing["value"] += entry["value"]
    for name, family in merged.items():
        family["series"] = [order[name][key] for key in sorted(order[name])]
    return merged


def render_prometheus_snapshot(snapshot: dict, registry: Optional["MetricsRegistry"] = None) -> str:
    """Prometheus text exposition rendered from a snapshot dict.

    Every Prometheus text in the package comes from here: the snapshot is a
    registry's own (:meth:`MetricsRegistry.render_prometheus`) or one merged
    across processes (the server's ``/metrics``).  ``registry`` — typically
    the scraping process's own — supplies ``# HELP`` text for families it
    also has locally; snapshots themselves carry no help strings.
    """
    lines = []
    for name in sorted(snapshot):
        family = snapshot[name]
        local = registry.get(name) if registry is not None else None
        if local is not None and local.help:
            lines.append(f"# HELP {name} {local.help}")
        lines.append(f"# TYPE {name} {family['type']}")
        for entry in family["series"]:
            labels = entry.get("labels") or {}
            pairs = [
                f'{key}="{_escape_label(value)}"'
                for key, value in labels.items()
            ]
            label_text = "{" + ",".join(pairs) + "}" if pairs else ""
            if family["type"] == "histogram":
                cumulative = 0
                for edge_label, count in entry["buckets"].items():
                    cumulative += count
                    le = (
                        "+Inf" if edge_label == "+Inf"
                        else _format_value(float(edge_label))
                    )
                    bucket_pairs = pairs + [f'le="{le}"']
                    lines.append(
                        f"{name}_bucket{{{','.join(bucket_pairs)}}} {cumulative}"
                    )
                lines.append(f"{name}_sum{label_text} {_format_value(entry['sum'])}")
                lines.append(f"{name}_count{label_text} {entry['count']}")
            else:
                lines.append(f"{name}{label_text} {_format_value(entry['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value) -> str:
    """Prometheus sample values: integers stay integral, floats use repr."""
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


# ----------------------------------------------------------------------------------
# The process-wide default registry
# ----------------------------------------------------------------------------------

_default_registry: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (disabled when ``REPRO_OBS_DISABLED`` is set)."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            disabled = os.environ.get("REPRO_OBS_DISABLED", "") not in ("", "0")
            _default_registry = MetricsRegistry(enabled=not disabled)
        return _default_registry


def set_registry(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Replace the process-wide registry; returns the previous one.

    ``None`` resets to lazy re-creation (the ``REPRO_OBS_DISABLED`` check
    runs again on the next :func:`get_registry` call).  Benchmarks use this
    to price instrumentation; tests use it for isolation.
    """
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous
