"""Observability: the run snapshot, trace spans, structured sinks.

Two pieces, both inert until asked:

* :mod:`repro.obs.cluster_metrics` — :func:`cluster_snapshot`, which
  ``ClusterCore.metrics_snapshot()`` calls: one flat, sorted,
  JSON-serializable dict of every stat of a cluster, with an identical
  schema on the simulator and asyncio backends.
* :mod:`repro.obs.trace` — per-request span trees emitted by the protocol
  machines into a pluggable :class:`TraceSink` (in-memory for tests, JSONL
  for CLI runs), with a pretty-printer.  Disabled tracing is one attribute
  check per handler (:data:`NO_TRACER`), and enabled tracing never touches
  the effect system, so deterministic simulation is unperturbed.
"""

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
    "InMemoryTraceSink",
    "JsonlTraceSink",
    "NO_TRACER",
    "Span",
    "TraceSink",
    "Tracer",
    "format_span_tree",
]
