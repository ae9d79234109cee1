"""Metadata-size accounting across a store (experiment E2's measurements).

The quantity the paper cares about is the causality metadata a store must
keep *per key* and ship *per request*: version vectors with one entry per
client grow with the number of writers, while dotted version vectors stay
bounded by the replication degree.  This module aggregates the per-mechanism
accounting exposed by the storage nodes into the per-run reports the
benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..kvstore.cluster_core import ClusterCore
from ..kvstore.sync_store import SyncReplicatedStore
from .stats import Summary, summarize


@dataclass
class MetadataReport:
    """Causality-metadata footprint of one run under one mechanism."""

    mechanism: str
    keys: int
    total_entries: int
    total_bytes: int
    per_key_entries: Summary
    per_key_bytes: Summary
    max_entries_per_key: int
    context_bytes: Optional[Summary] = None


def measure_sync_store(store: SyncReplicatedStore) -> MetadataReport:
    """Metadata footprint of a synchronous store, measured per key per replica.

    Per-key numbers are taken at the key's first replica (after convergence
    every replica stores the same thing); totals sum over all replicas, which
    is what a capacity-planning view of the cluster would see.
    """
    per_key_entries: List[int] = []
    per_key_bytes: List[int] = []
    keys = store.write_log.keys()
    for key in keys:
        replicas = store.replicas_for(key)
        if not replicas:
            continue
        node = store.node(replicas[0])
        per_key_entries.append(node.metadata_entries(key))
        per_key_bytes.append(node.metadata_bytes(key))
    if not per_key_entries:
        per_key_entries = [0]
        per_key_bytes = [0]
    return MetadataReport(
        mechanism=store.mechanism.name,
        keys=len(keys),
        total_entries=store.metadata_entries(),
        total_bytes=store.metadata_bytes(),
        per_key_entries=summarize(per_key_entries),
        per_key_bytes=summarize(per_key_bytes),
        max_entries_per_key=max(per_key_entries),
    )


def measure_simulated_cluster(cluster: ClusterCore) -> MetadataReport:
    """Metadata footprint of a simulated cluster run.

    Includes a summary of the context bytes that travelled with completed
    requests, which is the "metadata on the wire" half of the latency story.
    """
    per_key_entries: List[int] = []
    per_key_bytes: List[int] = []
    keys = set()
    for server in cluster.servers.values():
        keys.update(server.node.storage.keys())
    for key in sorted(keys):
        entries = max(
            (server.node.metadata_entries(key) for server in cluster.servers.values()),
            default=0,
        )
        size = max(
            (server.node.metadata_bytes(key) for server in cluster.servers.values()),
            default=0,
        )
        per_key_entries.append(entries)
        per_key_bytes.append(size)
    if not per_key_entries:
        per_key_entries = [0]
        per_key_bytes = [0]
    records = cluster.all_request_records()
    context_sizes = [record.context_bytes for record in records if record.ok]
    return MetadataReport(
        mechanism=cluster.mechanism.name,
        keys=len(keys),
        total_entries=cluster.metadata_entries(),
        total_bytes=cluster.metadata_bytes(),
        per_key_entries=summarize(per_key_entries),
        per_key_bytes=summarize(per_key_bytes),
        max_entries_per_key=max(per_key_entries),
        context_bytes=summarize(context_sizes) if context_sizes else None,
    )


def compare_reports(reports: Dict[str, MetadataReport],
                    baseline: str,
                    challenger: str) -> Dict[str, float]:
    """Size ratios between a baseline mechanism and a challenger.

    Returns ``{"entries_ratio": ..., "bytes_ratio": ...}`` where a ratio above
    1 means the baseline is bigger (the paper's "significant reduction").
    """
    base = reports[baseline]
    other = reports[challenger]
    entries_ratio = (base.total_entries / other.total_entries) if other.total_entries else float("inf")
    bytes_ratio = (base.total_bytes / other.total_bytes) if other.total_bytes else float("inf")
    return {"entries_ratio": entries_ratio, "bytes_ratio": bytes_ratio}
