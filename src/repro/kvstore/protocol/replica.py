"""Replica-side handlers: serve reads, apply writes, absorb repairs/handoffs.

The stateless half of the protocol — every handler answers one message from
local storage and emits at most one reply.  Shared by both backends through
:class:`~repro.kvstore.protocol.node.ProtocolNode`.
"""

from __future__ import annotations

from ...network.message import Message, MessageType
from .effects import Send
from .env import REQUEST_OVERHEAD_BYTES


class ReplicaHandler:
    """Replica-local message handlers of one node."""

    def __init__(self, node) -> None:
        self._node = node

    def on_replica_get(self, message: Message) -> None:
        node = self._node
        key = message.payload["key"]
        state = node.store.state_of(key)
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=message.sender,
            msg_type=MessageType.REPLICA_GET_REPLY,
            payload={
                "key": key,
                "state": state,
                "coordination_id": message.payload["coordination_id"],
            },
            size_bytes=node.state_size(key, state),
            request_id=message.request_id,
        )))

    def on_replica_put(self, message: Message) -> None:
        node = self._node
        key = message.payload["key"]
        # Sloppy-quorum handoff: a fallback accepting a write on behalf of a
        # timed-out primary also persists a hint naming that primary, so the
        # handoff daemon can return the data once the primary is back.
        hint_for = message.payload.get("hint_for")
        if (hint_for is not None and hint_for != node.node_id
                and node.env.hinted_handoff_enabled):
            hint_ref = None
            tracer = node.tracer
            if tracer.enabled:
                ctx = message.payload.get("trace")
                if ctx:
                    hint_ref = tracer.point(
                        "hint.stored", node.node_id, node.now,
                        trace=ctx[0], parent=ctx[1], target=hint_for, key=key)
            node.store.store_hint(hint_for, key, message.payload["state"],
                                  trace=hint_ref)
        node.store.local_merge(key, message.payload["state"])
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=message.sender,
            msg_type=MessageType.REPLICA_PUT_ACK,
            payload={"key": key, "coordination_id": message.payload["coordination_id"]},
            size_bytes=REQUEST_OVERHEAD_BYTES,
            request_id=message.request_id,
        )))

    def on_read_repair(self, message: Message) -> None:
        for key, state in message.payload["states"].items():
            self._node.store.local_merge(key, state)

    def on_key_handoff(self, message: Message) -> None:
        fingerprints = message.payload.get("fingerprints") or {}
        for key, state in message.payload["states"].items():
            self._node.store.ingest_handoff(key, state, fingerprints.get(key))

    def on_ping(self, message: Message) -> None:
        self._node.emit(Send(message.reply(MessageType.PONG)))
