"""One run snapshot shared by both cluster backends.

:func:`cluster_snapshot` reads every stats object of a cluster — storage
counters, transport byte/deadline accounting, Merkle exchange stats,
read-hedge and read-repair counters, request records — purely through the
attributes of :class:`~repro.kvstore.cluster_core.ClusterCore` that both
backends share, and flattens them into one sorted, JSON-serializable dict of
dotted names (``storage.hints_stored``, ``transport.bytes_delivered``,
``requests.latency_ms.p95``).  The schema is therefore **identical across
backends**: the only structural difference (the simulator has one shared
:class:`Transport`, the asyncio backend one endpoint per node) is absorbed by
summing every object ``cluster.transport_stats()`` lists into the same
``transport.*`` names.

The snapshot reads the live cluster at call time and never mutates it, so
nodes that join or leave are picked up and taking one mid-run is safe.  The
latency block is the ``overall`` summary
:func:`~repro.analysis.latency.analyze_requests` reports for the successful
requests (every figure 0 when there is none).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from ..analysis.latency import analyze_requests

__all__ = ["cluster_snapshot"]

#: The scalar TransportStats fields every snapshot reports (the per-type
#: dict fields are summarised by ``transport.sync_bytes`` instead of being
#: flattened — their key sets are data-dependent, which would make the
#: schema differ between runs).
_TRANSPORT_FIELDS = (
    "sent", "delivered", "dropped_partition", "dropped_loss",
    "dropped_unknown_destination", "duplicated",
    "bytes_sent", "bytes_delivered", "bytes_dropped",
    "deadlines_set", "deadlines_fired", "deadlines_cancelled",
    "decode_errors", "handler_errors", "record_hits", "record_misses",
    "dropped_backpressure", "socket_reads",
)


def cluster_snapshot(cluster: Any) -> Dict[str, Any]:
    """Every stat of a (sim or asyncio) cluster as one flat, sorted dict."""
    sections = {
        "storage": cluster.stat_totals(),
        "merkle": _merkle_totals(cluster),
        "coordinator": _coordinator_totals(cluster),
        "read_repair": _read_repair_totals(cluster),
        "transport": _transport_totals(cluster),
        "requests": _request_totals(cluster),
        "node": _per_node(cluster),
    }
    items: Dict[str, Any] = {}
    for prefix, section in sections.items():
        _flatten(prefix, section, items)
    return {name: items[name] for name in sorted(items)}


def _flatten(prefix: str, value: Any, into: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key, child in value.items():
            _flatten(f"{prefix}.{key}", child, into)
    else:
        into[prefix] = value


def _dataclass_dict(stats: Any) -> Dict[str, Any]:
    return {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}


def _merkle_totals(cluster: Any) -> Dict[str, Any]:
    totals = _dataclass_dict(cluster.merkle_stats)
    # Index-drift audits are per-node counters, not part of the exchange
    # stats dataclass; surface the cluster-wide sums alongside it.
    totals["audit_keys_checked"] = sum(
        server.node.stats.get("audit_keys_checked", 0)
        for server in cluster.servers.values())
    totals["audit_mismatches"] = sum(
        server.node.stats.get("audit_mismatches", 0)
        for server in cluster.servers.values())
    return totals


def _read_repair_totals(cluster: Any) -> Dict[str, int]:
    totals = {"reads_checked": 0, "repairs_triggered": 0,
              "replicas_repaired": 0, "batches_sent": 0}
    for server in cluster.servers.values():
        stats = server.protocol.coordinator.read_repair_stats
        for name in totals:
            totals[name] += getattr(stats, name)
    return totals


def _coordinator_totals(cluster: Any) -> Dict[str, int]:
    """Read hedges fired, reserve primaries asked and bare ("unchanged")
    replica read replies taken, summed over coordinators."""
    coordinators = [server.protocol.coordinator
                    for server in cluster.servers.values()]
    return {"read_hedges": sum(c.read_hedges for c in coordinators),
            "reserve_contacts": sum(c.reserve_contacts for c in coordinators),
            "unchanged_replies": sum(c.unchanged_replies for c in coordinators)}


def _transport_totals(cluster: Any) -> Dict[str, int]:
    totals = {name: 0 for name in _TRANSPORT_FIELDS}
    for stats in cluster.transport_stats():
        for name in _TRANSPORT_FIELDS:
            totals[name] += getattr(stats, name)
    totals["sync_bytes"] = cluster.sync_bytes()
    return totals


def _request_totals(cluster: Any) -> Dict[str, Any]:
    records = cluster.all_request_records()
    summary = analyze_requests(cluster.mechanism.name, records).overall
    latency = {"count": summary.count, "sum": summary.total,
               "min": summary.minimum, "max": summary.maximum,
               "mean": summary.mean, "p50": summary.median,
               "p95": summary.p95, "p99": summary.p99}
    return {
        "completed": len(records),
        "ok": summary.count,
        "failed": len(records) - summary.count,
        "latency_ms": latency,
    }


def _per_node(cluster: Any) -> Dict[str, Dict[str, int]]:
    per_node: Dict[str, Dict[str, int]] = {}
    for node_id, server in cluster.servers.items():
        stats = dict(server.node.stats)
        stats["pending_hints"] = server.node.storage.pending_hints()
        per_node[node_id] = stats
    return per_node
