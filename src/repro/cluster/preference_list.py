"""Replica placement: preference lists, quorum parameters and sloppy quorums.

Combines the consistent-hashing ring (where a key *should* live) with the
membership view (who is actually up) to produce the list of nodes a
coordinator talks to for a given request, following Dynamo's rules:

* the **primary preference list** is the first N distinct nodes clockwise
  from the key's ring position;
* with **strict quorums**, down nodes simply shrink the usable list (requests
  may then fail to reach quorum);
* with **sloppy quorums**, down nodes are replaced by the next nodes on the
  ring, which accept writes on their behalf (hand-off) — this is one of the
  ways causally concurrent versions of a key end up on different nodes and
  must later be reconciled by the causality mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.exceptions import ConfigurationError
from .membership import Membership
from .ring import ConsistentHashRing, PartitionMap
from .topology import Topology


@dataclass(frozen=True)
class QuorumConfig:
    """Replication and quorum parameters (Dynamo's N / R / W)."""

    n: int = 3
    r: int = 2
    w: int = 2
    sloppy: bool = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"replication factor n must be >= 1, got {self.n}")
        if not 1 <= self.r <= self.n:
            raise ConfigurationError(f"read quorum r must be in [1, {self.n}], got {self.r}")
        if not 1 <= self.w <= self.n:
            raise ConfigurationError(f"write quorum w must be in [1, {self.n}], got {self.w}")

    @property
    def overlapping(self) -> bool:
        """True when R + W > N (read-your-writes through quorum intersection)."""
        return self.r + self.w > self.n


class PlacementService:
    """Resolves keys to the replica nodes a coordinator should contact."""

    def __init__(self,
                 ring: ConsistentHashRing,
                 membership: Membership,
                 config: Optional[QuorumConfig] = None,
                 partition_map: PartitionMap = PartitionMap(1),
                 topology: Optional[Topology] = None) -> None:
        self.ring = ring
        self.membership = membership
        self.config = config or QuorumConfig()
        #: Range ↔ vnode mapping shared by every node's storage layout (one
        #: partition when the caller does not supply the cluster-wide one).
        self.partition_map = partition_map
        #: Datacenter assignment.  DC-aware placement only activates when the
        #: topology actually spans multiple DCs, so single-DC clusters (and
        #: every pre-topology caller) keep the plain ring-walk order
        #: bit-for-bit.
        self.topology = topology

    @property
    def _multi_dc(self) -> bool:
        return self.topology is not None and self.topology.spans_multiple_dcs

    # ------------------------------------------------------------------ #
    # Placement queries
    # ------------------------------------------------------------------ #
    def primary_replicas(self, key: str) -> List[str]:
        """The key's N primary replica homes, regardless of liveness.

        With a multi-DC topology the first pass of the ring walk picks one
        node per datacenter, so every DC holds at least one primary (when
        N >= DC count) and a whole-DC outage cannot take out every home.
        """
        if self._multi_dc:
            return self.ring.preference_list_spread(
                key, self.config.n, self.topology.dc_of)
        return self.ring.preference_list(key, self.config.n)

    def active_replicas(self, key: str) -> List[str]:
        """The replicas a coordinator should contact right now.

        Strict quorums return the up subset of the primary list; sloppy
        quorums top the list back up to N with fallback nodes further along
        the ring.
        """
        primaries = self.primary_replicas(key)
        up_primaries = [node for node in primaries if self.membership.is_up(node)]
        if not self.config.sloppy:
            return up_primaries
        if len(up_primaries) == self.config.n:
            return up_primaries
        fallback_pool = self.extended_preference_list(key)
        result = list(up_primaries)
        for node in fallback_pool:
            if len(result) >= self.config.n:
                break
            if node in result or not self.membership.is_up(node):
                continue
            result.append(node)
        return result

    def extended_preference_list(self, key: str, count: Optional[int] = None) -> List[str]:
        """Every ring node in clockwise order from the key: primaries first.

        This is the candidate order coordination walks: the first N entries
        are the primary replicas, the rest are the sloppy-quorum fallback
        nodes that stand in for timed-out primaries.  Liveness is
        deliberately ignored — failures are discovered by deadline, not by
        consulting the membership view.

        With a multi-DC topology the DC-spread primaries lead the list (so
        the first N entries are still exactly the primary replicas) and the
        remaining nodes follow in ring order.
        """
        limit = count if count is not None else len(self.ring)
        if not self._multi_dc:
            return self.ring.preference_list(key, limit)
        primaries = self.primary_replicas(key)
        result = list(primaries)
        for node in self.ring.preference_list(key, len(self.ring)):
            if len(result) >= limit:
                break
            if node not in result:
                result.append(node)
        return result[:limit]

    def fallbacks_for(self, key: str, exclude: Sequence[str] = (),
                      near: Optional[str] = None) -> List[str]:
        """Sloppy-quorum fallback candidates for ``key``, in ring order.

        ``exclude`` lists nodes already contacted (primaries and previously
        tried fallbacks); the result is the remaining ring walk.  With a
        multi-DC topology, ``near`` (typically the coordinator) pulls
        same-datacenter candidates to the front — the per-DC sloppy quorum:
        during a cross-DC partition the coordinator promotes local stand-ins
        it can actually reach instead of timing out on WAN peers.  The sort
        is stable, so ring order is preserved within each half.
        """
        excluded = set(exclude)
        candidates = [node for node in self.extended_preference_list(key)
                      if node not in excluded]
        if near is not None and self._multi_dc:
            near_dc = self.topology.dc_of(near)
            candidates.sort(key=lambda node: self.topology.dc_of(node) != near_dc)
        return candidates

    def coordinator_for(self, key: str) -> str:
        """The node a client should send its request to (first active replica)."""
        replicas = self.active_replicas(key)
        if not replicas:
            raise ConfigurationError(f"no active replicas available for key {key!r}")
        return replicas[0]
