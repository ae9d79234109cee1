"""Cluster membership and node liveness.

The membership view answers two questions the request path needs: which
physical nodes exist (so the ring can be built) and which of them are
currently reachable (so coordinators can skip down nodes and, with sloppy
quorums, pick fallback replicas).  The view is dynamic: nodes can be added
and removed at runtime (elastic clusters) and marked down and up as they
crash and recover.  The cluster that makes a change acts on it itself; the
view only records it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..core.exceptions import ConfigurationError
from .topology import DEFAULT_DC, Topology

class NodeStatus(enum.Enum):
    """Liveness state of a node as seen by the membership view."""

    UP = "up"
    DOWN = "down"


@dataclass
class NodeInfo:
    """Static and dynamic information about a cluster node."""

    node_id: str
    status: NodeStatus = NodeStatus.UP
    #: Datacenter the node lives in (:data:`DEFAULT_DC` when the cluster has
    #: no topology).
    dc: str = DEFAULT_DC

    @property
    def is_up(self) -> bool:
        return self.status is NodeStatus.UP


class Membership:
    """The set of storage nodes and their liveness.

    When a :class:`~repro.cluster.topology.Topology` is supplied, each node's
    datacenter is recorded on join (explicit ``dc`` argument first, then the
    topology's assignment) so liveness queries can be scoped per-DC — the
    view a DC-local failure detector would have.
    """

    def __init__(self, nodes: Iterable[str] = (),
                 topology: "Topology | None" = None) -> None:
        self._nodes: Dict[str, NodeInfo] = {}
        self.topology = topology
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, node_id: str, dc: "str | None" = None) -> None:
        """Register a node (initially up), optionally placing it in a DC."""
        if not node_id:
            raise ConfigurationError("node id must be a non-empty string")
        if node_id in self._nodes:
            raise ConfigurationError(f"node {node_id!r} already in membership")
        if dc is None:
            dc = self.topology.dc_of(node_id) if self.topology else DEFAULT_DC
        elif self.topology is not None:
            self.topology.assign(node_id, dc)
        self._nodes[node_id] = NodeInfo(node_id, dc=dc)

    def remove(self, node_id: str) -> None:
        """Remove a node from the membership entirely."""
        self._nodes.pop(node_id, None)

    def mark_down(self, node_id: str) -> None:
        """Mark a node as unreachable (crash / partition from everyone)."""
        self._require(node_id).status = NodeStatus.DOWN

    def mark_up(self, node_id: str) -> None:
        """Mark a node as reachable again."""
        self._require(node_id).status = NodeStatus.UP

    def _require(self, node_id: str) -> NodeInfo:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigurationError(f"unknown node {node_id!r}") from None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def nodes(self) -> List[str]:
        """All known node ids, sorted."""
        return sorted(self._nodes)

    def up_nodes(self) -> List[str]:
        """Node ids currently marked up, sorted."""
        return sorted(node_id for node_id, info in self._nodes.items() if info.is_up)

    def is_up(self, node_id: str) -> bool:
        """True iff the node exists and is marked up."""
        info = self._nodes.get(node_id)
        return info is not None and info.is_up

    def dc_of(self, node_id: str) -> str:
        """The datacenter a member lives in."""
        return self._require(node_id).dc

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        up = len(self.up_nodes())
        return f"Membership({up}/{len(self._nodes)} up)"
