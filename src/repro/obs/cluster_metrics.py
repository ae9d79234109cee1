"""One registry wiring shared by both cluster backends.

:func:`build_cluster_registry` registers every pre-existing stats object of a
cluster — storage counters, transport byte/deadline accounting, Merkle
exchange stats, read-hedge and read-repair counters, request records — into
one :class:`~repro.obs.metrics.MetricsRegistry`, purely through the
attributes of :class:`~repro.kvstore.cluster_core.ClusterCore` that both
backends share.  The snapshot schema is therefore **identical across
backends**: the only structural difference (the simulator has one shared
:class:`Transport`, the asyncio backend one endpoint per node) is absorbed by
summing every object ``cluster.transport_stats()`` lists into the same
``transport.*`` names.

Sources read the live cluster at snapshot time, so nodes that join or leave
after wiring are picked up automatically, and a registry never goes stale.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from .metrics import Histogram, MetricsRegistry

__all__ = ["build_cluster_registry"]

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


def build_cluster_registry(cluster: Any) -> MetricsRegistry:
    """Wire every stats object of a (sim or asyncio) cluster into a registry."""
    registry = MetricsRegistry()
    registry.register_source("storage", cluster.stat_totals)
    registry.register_source("merkle", lambda: _merkle_totals(cluster))
    registry.register_source("coordinator", lambda: _coordinator_totals(cluster))
    registry.register_source("read_repair", lambda: _read_repair_totals(cluster))
    registry.register_source("transport", lambda: _transport_totals(cluster))
    registry.register_source("requests", lambda: _request_totals(cluster))
    registry.register_source("node", lambda: _per_node(cluster))
    return registry


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
    ok = sum(1 for record in records if record.ok)
    latency = Histogram("latency_ms")
    latency.observe_many(record.latency_ms for record in records if record.ok)
    return {
        "completed": len(records),
        "ok": ok,
        "failed": len(records) - ok,
        "latency_ms": latency.snapshot(),
    }


def _per_node(cluster: Any) -> Dict[str, Dict[str, int]]:
    per_node: Dict[str, Dict[str, int]] = {}
    for node_id, server in cluster.servers.items():
        stats = dict(server.node.stats)
        stats["pending_hints"] = server.node.pending_hints()
        per_node[node_id] = stats
    return per_node
