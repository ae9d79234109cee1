"""Unified observability: metrics registry, trace spans, structured sinks.

Three pieces, all optional and all inert by default:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters and
  gauges, plus *sources* that adapt the pre-existing stats objects, and the
  :class:`Histogram` the cluster's latency summary uses;
  one :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` returns the whole
  cluster's metrics as a flat, stable, JSON-serializable dict.
* :mod:`repro.obs.trace` — per-request span trees emitted by the protocol
  machines into a pluggable :class:`TraceSink` (in-memory for tests, JSONL
  for CLI runs), with a pretty-printer.  Disabled tracing is one attribute
  check per handler (:data:`NO_TRACER`), and enabled tracing never touches
  the effect system, so deterministic simulation is unperturbed.
* :mod:`repro.obs.cluster_metrics` — the duck-typed wiring that registers a
  cluster's stats into a registry with an identical schema in both the
  simulator and asyncio backends.
"""

from .cluster_metrics import build_cluster_registry
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    NO_TRACER,
    InMemoryTraceSink,
    JsonlTraceSink,
    Span,
    TraceSink,
    Tracer,
    format_span_tree,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InMemoryTraceSink",
    "JsonlTraceSink",
    "MetricsRegistry",
    "NO_TRACER",
    "Span",
    "TraceSink",
    "Tracer",
    "build_cluster_registry",
    "format_span_tree",
]
