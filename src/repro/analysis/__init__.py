"""Analysis layer: correctness oracle, metadata accounting, latency summaries."""

from .correctness import (CorrectnessReport, KeyCorrectness, check_cluster,
                          check_key, check_store)
from .latency import LatencyReport, analyze_requests
from .metadata import MetadataReport, compare_reports, measure_simulated_cluster, measure_sync_store
from .report import format_cell, render_table
from .stats import Summary, percentile, ratio, summarize

__all__ = [
    "CorrectnessReport",
    "KeyCorrectness",
    "LatencyReport",
    "MetadataReport",
    "Summary",
    "analyze_requests",
    "check_cluster",
    "check_key",
    "check_store",
    "compare_reports",
    "format_cell",
    "measure_simulated_cluster",
    "measure_sync_store",
    "percentile",
    "ratio",
    "render_table",
    "summarize",
]
