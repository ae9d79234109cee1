"""Simulated message transport: delays, drops, duplicates, partitions.

The transport is the only way nodes in the simulated store talk to each other.
It is intentionally unreliable-by-configuration: messages can be delayed
according to a :class:`~repro.network.latency.LatencyModel`, dropped with a
configurable probability, duplicated, and blocked entirely by a
:class:`~repro.network.partition.PartitionManager`.  The storage layer above
it must therefore tolerate exactly the failure modes a real Dynamo-style
deployment tolerates, which keeps the substitution for the paper's Riak
cluster honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.exceptions import ConfigurationError, SimulationError
from .latency import FixedLatency, LatencyModel, PerLinkLatency
from .message import Message
from .partition import PartitionManager
from .simulator import Simulation

MessageHandler = Callable[[Message], None]


@dataclass
class TransportStats:
    """Counters the transport maintains for analysis and debugging.

    Byte accounting distinguishes *attempted* traffic (``bytes_sent``, every
    message handed to the transport) from *delivered* and *dropped* traffic.
    Messages eaten by a partition, a lossy link or a crashed/unregistered
    receiver count toward ``bytes_dropped``, never ``bytes_delivered``, so
    byte-series built from :meth:`bytes_for` no longer over-report traffic
    that never reached a handler.  A duplicated message that arrives twice is
    counted as delivered twice — it really did cross the wire twice.

    ``decode_errors`` (an inbound frame that did not decode; the connection
    it arrived on was closed) and ``handler_errors`` (a node's handler raised
    on a delivered message; the connection stayed up) are counted by the
    real-socket backend.  The simulator passes objects, not bytes, and lets
    handler exceptions fail the run, so both stay 0 there — as do
    ``record_hits`` / ``record_misses``, the clock and sibling records an
    endpoint's decoder found in its record table / had to parse,
    ``dropped_backpressure``, the frames an endpoint shed because too much
    was already queued toward their peer, and ``socket_reads``, its
    ``data_received`` callbacks (``delivered / socket_reads`` is frames per
    wake-up).
    """

    sent: int = 0
    delivered: int = 0
    dropped_partition: int = 0
    dropped_loss: int = 0
    dropped_unknown_destination: int = 0
    duplicated: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    bytes_dropped: int = 0
    deadlines_set: int = 0
    deadlines_fired: int = 0
    deadlines_cancelled: int = 0
    decode_errors: int = 0
    handler_errors: int = 0
    record_hits: int = 0
    record_misses: int = 0
    dropped_backpressure: int = 0
    socket_reads: int = 0
    per_type: Dict[str, int] = field(default_factory=dict)
    bytes_per_type: Dict[str, int] = field(default_factory=dict)
    delivered_bytes_per_type: Dict[str, int] = field(default_factory=dict)
    dropped_bytes_per_type: Dict[str, int] = field(default_factory=dict)

    def record_type(self, msg_type: str, size_bytes: int = 0) -> None:
        self.per_type[msg_type] = self.per_type.get(msg_type, 0) + 1
        self.bytes_per_type[msg_type] = self.bytes_per_type.get(msg_type, 0) + size_bytes

    def record_delivered(self, msg_type: str, size_bytes: int = 0) -> None:
        self.delivered += 1
        self.bytes_delivered += size_bytes
        self.delivered_bytes_per_type[msg_type] = (
            self.delivered_bytes_per_type.get(msg_type, 0) + size_bytes
        )

    def record_dropped(self, msg_type: str, size_bytes: int = 0) -> None:
        self.bytes_dropped += size_bytes
        self.dropped_bytes_per_type[msg_type] = (
            self.dropped_bytes_per_type.get(msg_type, 0) + size_bytes
        )

    def bytes_for(self, *msg_types: str) -> int:
        """Total bytes *delivered* across the given message types."""
        return sum(self.delivered_bytes_per_type.get(msg_type, 0) for msg_type in msg_types)

    def attempted_bytes_for(self, *msg_types: str) -> int:
        """Total bytes handed to the transport for the given message types."""
        return sum(self.bytes_per_type.get(msg_type, 0) for msg_type in msg_types)


class Transport:
    """Delivers messages between registered nodes through the simulation.

    Parameters
    ----------
    simulation:
        The event loop that owns virtual time and randomness.
    latency:
        One-way delay model.  A :class:`PerLinkLatency` wrapper is honoured
        per (sender, receiver) pair.
    loss_probability:
        Probability that any given message is silently dropped.
    duplicate_probability:
        Probability that a delivered message is delivered a second time
        (slightly later), exercising idempotence of the store's handlers.
    partitions:
        Optional partition manager; when absent the cluster is fully connected.
    """

    def __init__(self,
                 simulation: Simulation,
                 latency: Optional[LatencyModel] = None,
                 loss_probability: float = 0.0,
                 duplicate_probability: float = 0.0,
                 partitions: Optional[PartitionManager] = None) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError(f"loss_probability must be in [0, 1), got {loss_probability}")
        if not 0.0 <= duplicate_probability < 1.0:
            raise ConfigurationError(
                f"duplicate_probability must be in [0, 1), got {duplicate_probability}"
            )
        self.simulation = simulation
        self.latency = latency or FixedLatency(1.0)
        self.loss_probability = loss_probability
        self.duplicate_probability = duplicate_probability
        self.partitions = partitions or PartitionManager()
        self.stats = TransportStats()
        self._handlers: Dict[str, MessageHandler] = {}
        self._trace: List[Message] = []
        self.trace_enabled = False

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, node_id: str, handler: MessageHandler) -> None:
        """Register the message handler of a node (client or server)."""
        if node_id in self._handlers:
            raise ConfigurationError(f"node {node_id!r} is already registered")
        self._handlers[node_id] = handler

    def unregister(self, node_id: str) -> None:
        """Remove a node (messages to it are then counted as undeliverable)."""
        self._handlers.pop(node_id, None)

    def is_registered(self, node_id: str) -> bool:
        """True iff a handler is registered for ``node_id``."""
        return node_id in self._handlers

    def nodes(self) -> List[str]:
        """Identifiers of all registered nodes."""
        return sorted(self._handlers)

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(self, message: Message) -> None:
        """Send ``message``; delivery (if any) happens via the simulation."""
        self.stats.sent += 1
        self.stats.bytes_sent += message.size_bytes
        self.stats.record_type(message.msg_type.value, message.size_bytes)
        if self.trace_enabled:
            self._trace.append(message)

        if not self.partitions.can_communicate(message.sender, message.receiver):
            self.stats.dropped_partition += 1
            self.stats.record_dropped(message.msg_type.value, message.size_bytes)
            return
        if message.receiver not in self._handlers:
            self.stats.dropped_unknown_destination += 1
            self.stats.record_dropped(message.msg_type.value, message.size_bytes)
            return
        rng = self.simulation.rng
        if self.loss_probability and rng.random() < self.loss_probability:
            self.stats.dropped_loss += 1
            self.stats.record_dropped(message.msg_type.value, message.size_bytes)
            return

        delay = self._sample_delay(message)
        self.simulation.schedule(delay, lambda: self._deliver(message),
                                 label=f"deliver:{message.msg_type.value}")
        if self.duplicate_probability and rng.random() < self.duplicate_probability:
            self.stats.duplicated += 1
            extra_delay = delay + self._sample_delay(message)
            self.simulation.schedule(extra_delay, lambda: self._deliver(message),
                                     label=f"deliver-dup:{message.msg_type.value}")

    def _sample_delay(self, message: Message) -> float:
        model = self.latency
        if isinstance(model, PerLinkLatency):
            model = model.for_link(message.sender, message.receiver)
        return model.sample(self.simulation.rng, message.size_bytes)

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.receiver)
        if handler is None:
            # Receiver crashed (deregistered) between send and delivery.
            self.stats.dropped_unknown_destination += 1
            self.stats.record_dropped(message.msg_type.value, message.size_bytes)
            return
        self.stats.record_delivered(message.msg_type.value, message.size_bytes)
        handler(message)

    # ------------------------------------------------------------------ #
    # Deadlines (async request mode)
    # ------------------------------------------------------------------ #
    def schedule_deadline(self, delay_ms: float, callback: Callable[[], None],
                          label: str = "deadline"):
        """Schedule a timeout callback ``delay_ms`` from now.

        This is the timer primitive of the async request mode: coordinators
        and clients arm a deadline per outstanding request (or per replica
        fan-out) and treat its firing as the failure signal, instead of
        consulting the membership view's failure detector.  Returns an event
        handle; pass it to :meth:`cancel_deadline` when the awaited reply
        arrives first.
        """
        self.stats.deadlines_set += 1

        def fire() -> None:
            self.stats.deadlines_fired += 1
            callback()

        return self.simulation.schedule(delay_ms, fire, label=label)

    def cancel_deadline(self, handle) -> None:
        """Disarm a deadline (idempotent; None is tolerated for convenience)."""
        if handle is None or handle.cancelled:
            return
        self.stats.deadlines_cancelled += 1
        handle.cancel()

    # ------------------------------------------------------------------ #
    # Plain scheduled work (not a failure-detection deadline)
    # ------------------------------------------------------------------ #
    def schedule_task(self, delay_ms: float, callback: Callable[[], None],
                      label: str = "task"):
        """Schedule ordinary work ``delay_ms`` from now.

        Unlike :meth:`schedule_deadline` this carries no deadline statistics:
        it is the primitive behind coalescing windows and similar scheduled
        work, where firing is the normal case rather than a failure signal.
        """
        return self.simulation.schedule(delay_ms, callback, label=label)

    def cancel_task(self, handle) -> None:
        """Disarm a scheduled task (idempotent; None is tolerated)."""
        if handle is None or handle.cancelled:
            return
        handle.cancel()

    def now_ms(self) -> float:
        """The transport's clock (virtual milliseconds)."""
        return self.simulation.now

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    @property
    def trace(self) -> List[Message]:
        """Messages sent while :attr:`trace_enabled` was on (testing aid)."""
        return list(self._trace)

    def clear_trace(self) -> None:
        """Discard the recorded trace."""
        self._trace.clear()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Transport(nodes={len(self._handlers)}, sent={self.stats.sent}, "
            f"delivered={self.stats.delivered})"
        )
