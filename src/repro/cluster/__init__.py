"""Cluster substrate: consistent hashing, membership and replica placement."""

from .membership import Membership, NodeInfo, NodeStatus
from .preference_list import PlacementService, QuorumConfig
from .ring import (
    PARTITION_COUNT,
    ConsistentHashRing,
    PartitionMap,
    RebalanceMove,
    rebalance_plan,
)
from .topology import DEFAULT_DC, Topology

__all__ = [
    "DEFAULT_DC",
    "PARTITION_COUNT",
    "ConsistentHashRing",
    "Membership",
    "NodeInfo",
    "NodeStatus",
    "PartitionMap",
    "PlacementService",
    "QuorumConfig",
    "RebalanceMove",
    "Topology",
    "rebalance_plan",
]
