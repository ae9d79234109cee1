"""Message envelopes exchanged by the simulated store's nodes.

Every interaction in the simulated cluster — client requests, coordinator to
replica fan-out, replica replies, anti-entropy exchanges — travels as a
:class:`Message` through the :class:`~repro.network.transport.Transport`.
Messages carry an explicit ``size_bytes`` so the latency models can charge
transmission time proportional to payload size; that is how the paper's
"smaller metadata ⇒ better latency" effect is reproduced (experiment E4).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class MessageType(enum.Enum):
    """Kinds of messages understood by the store's nodes."""

    # Client <-> coordinator
    COORDINATE_GET = "coordinate_get"
    COORDINATE_PUT = "coordinate_put"
    GET_REPLY = "get_reply"
    PUT_REPLY = "put_reply"
    ERROR_REPLY = "error_reply"

    # Coordinator <-> replica
    REPLICA_GET = "replica_get"
    REPLICA_GET_REPLY = "replica_get_reply"
    REPLICA_PUT = "replica_put"
    REPLICA_PUT_ACK = "replica_put_ack"
    READ_REPAIR = "read_repair"

    # Replica <-> replica anti-entropy: the Merkle-delta hashtree exchange
    # opens with a partition-root comparison (PARTITION_DIGESTS /
    # PARTITION_DIFF), ships a differing range whole when one side holds
    # nothing in it, and descends each other differing range level by level.
    MERKLE_PARTITION_DIGESTS = "merkle_partition_digests"
    MERKLE_PARTITION_DIFF = "merkle_partition_diff"
    MERKLE_SYNC_REQUEST = "merkle_sync_request"
    MERKLE_SYNC_RESPONSE = "merkle_sync_response"
    MERKLE_KEY_STATES = "merkle_key_states"

    # Hinted handoff (coordinator-held writes for unreachable replicas)
    HINT_REPLAY = "hint_replay"
    HINT_ACK = "hint_ack"

    # Membership changes (join / decommission rebalancing)
    KEY_HANDOFF = "key_handoff"

    # Control plane
    PING = "ping"
    PONG = "pong"


_message_ids = itertools.count(1)


@dataclass
class Message:
    """A single message in flight between two nodes.

    Attributes
    ----------
    sender / receiver:
        Node identifiers registered with the transport.
    msg_type:
        One of :class:`MessageType`.
    payload:
        Free-form dictionary; the store's handlers document the keys they use.
    size_bytes:
        Approximate wire size.  The transport adds per-byte transmission time
        when a size-dependent latency model is configured.
    request_id:
        Correlation id: replies carry the id of the request they answer so the
        pending-request tracker can match them up.
    msg_id:
        Unique id of this message (diagnostics, tracing).
    """

    sender: str
    receiver: str
    msg_type: MessageType
    payload: Dict[str, Any] = field(default_factory=dict)
    size_bytes: int = 0
    request_id: Optional[int] = None
    msg_id: int = field(default_factory=lambda: next(_message_ids))

    def reply(self,
              msg_type: MessageType,
              payload: Optional[Dict[str, Any]] = None,
              size_bytes: int = 0) -> "Message":
        """Build a reply to this message (swapped endpoints, same request id)."""
        return Message(
            sender=self.receiver,
            receiver=self.sender,
            msg_type=msg_type,
            payload=payload or {},
            size_bytes=size_bytes,
            request_id=self.request_id if self.request_id is not None else self.msg_id,
        )

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return (
            f"Message#{self.msg_id} {self.msg_type.value} {self.sender}->{self.receiver}"
            f" ({self.size_bytes}B)"
        )
