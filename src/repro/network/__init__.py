"""Simulated network substrate: event loop, transport, latency and partitions.

This subpackage replaces the physical cluster of the paper's Riak evaluation
with a deterministic discrete-event simulation.  Transmission time is charged
per byte (:class:`SizeDependentLatency`), so the paper's "smaller metadata,
lower latency" effect survives the substitution.
"""

from .latency import (
    FixedLatency,
    LatencyModel,
    LogNormalLatency,
    PerLinkLatency,
    SizeDependentLatency,
    UniformLatency,
    WanLatency,
)
from .message import Message, MessageType
from .partition import PartitionManager
from .simulator import EventHandle, PeriodicTask, Simulation
from .transport import Transport, TransportStats

__all__ = [
    "EventHandle",
    "FixedLatency",
    "LatencyModel",
    "LogNormalLatency",
    "Message",
    "MessageType",
    "PartitionManager",
    "PerLinkLatency",
    "PeriodicTask",
    "Simulation",
    "SizeDependentLatency",
    "Transport",
    "TransportStats",
    "UniformLatency",
    "WanLatency",
]
