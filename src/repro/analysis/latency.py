"""Request-latency analysis for simulated cluster runs (experiment E4).

The latency claim in the paper ("better latency when serving requests") is a
consequence of smaller causality metadata: less data to serialise, ship and
parse per request.  The simulated cluster charges transmission time per byte,
so the per-request latency records it produces already contain the effect;
this module reduces those records to the summaries the benchmark prints
(mean / median / p95 / p99 per operation type, plus throughput).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..kvstore.protocol import RequestRecord
from .stats import Summary, summarize


@dataclass
class LatencyReport:
    """Latency summary of one run under one mechanism."""

    mechanism: str
    overall: Summary
    by_operation: Dict[str, Summary]
    requests: int
    duration_ms: float
    mean_context_bytes: float

    @property
    def throughput_per_s(self) -> float:
        """Completed requests per simulated second."""
        if self.duration_ms <= 0:
            return 0.0
        return self.requests / (self.duration_ms / 1000.0)


def analyze_requests(mechanism: str,
                     records: Sequence[RequestRecord],
                     duration_ms: Optional[float] = None) -> LatencyReport:
    """Reduce raw request records to a :class:`LatencyReport`.

    With no successful request every figure of ``overall`` reads 0,
    ``count`` included.
    """
    completed = [record for record in records if record.ok]
    if not completed:
        return LatencyReport(
            mechanism=mechanism,
            overall=Summary(count=0, mean=0.0, median=0.0, p95=0.0, p99=0.0,
                            minimum=0.0, maximum=0.0, total=0.0),
            by_operation={},
            requests=0,
            duration_ms=duration_ms or 0.0,
            mean_context_bytes=0.0,
        )
    latencies = [record.latency_ms for record in completed]
    by_operation: Dict[str, Summary] = {}
    for operation in sorted({record.operation for record in completed}):
        operation_latencies = [
            record.latency_ms for record in completed if record.operation == operation
        ]
        by_operation[operation] = summarize(operation_latencies)
    if duration_ms is None:
        duration_ms = max(record.finished_at for record in completed)
    context_bytes = [record.context_bytes for record in completed]
    return LatencyReport(
        mechanism=mechanism,
        overall=summarize(latencies),
        by_operation=by_operation,
        requests=len(completed),
        duration_ms=duration_ms,
        mean_context_bytes=(sum(context_bytes) / len(context_bytes)) if context_bytes else 0.0,
    )
