"""Hinted-handoff replay machine with EWMA-driven backoff.

A node holding hints replays them to their targets in ``HINT_REPLAY`` batches
and clears them on ``HINT_ACK`` — lost replays are simply retried on a later
tick, and merges are idempotent, so re-sent hints are harmless.

Replay targeting consults the node's per-replica latency EWMAs (the same
tracker the coordinator's read hedge uses): a **persistently slow** peer —
one whose EWMA times ``SLOW_PEER_MULTIPLIER`` reaches ``replica_timeout_ms`` —
is replayed to once and then backed off for
``ewma × HINT_BACKOFF_MULTIPLIER`` instead of being hammered on the daemon's
fixed cadence, since batches to it are usually still in flight when the next
tick comes around.  Deferred ticks are counted in the node's
``hint_replays_deferred`` stat.  Peers with healthy round trips are
unaffected, and a peer with no observations is never deferred.
"""

from __future__ import annotations

from typing import Dict

from ...network.message import Message, MessageType
from .effects import Send
from .env import HINT_BACKOFF_MULTIPLIER, REQUEST_OVERHEAD_BYTES, SYNC_BATCH_SIZE
from .util import chunked


class HintReplayer:
    """Per-node replay of locally held hints toward recovered targets."""

    def __init__(self, node) -> None:
        self._node = node
        #: target -> earliest time the next replay to it may run (backoff for
        #: persistently slow peers).  Process memory: cleared on crash.
        self.next_attempt: Dict[str, float] = {}

    def replay_hints(self) -> int:
        """Emit HINT_REPLAY batches for every reachable, non-deferred target.

        Returns the number of batches emitted.  Hints are only cleared when
        the target acknowledges, so lost replays are retried on a later tick.
        """
        node = self._node
        env = node.env
        storage = node.store.storage
        batches = 0
        for target_id in storage.hint_targets():
            if not env.can_reach(node.node_id, target_id):
                continue
            if node.now < self.next_attempt.get(target_id, 0.0):
                node.store.stats["hint_replays_deferred"] += 1
                continue
            if node.latency.is_slow(target_id, env.replica_timeout_ms):
                # Replay once, then leave the slow peer alone long enough for
                # this batch to land (several of its round trips).
                self.next_attempt[target_id] = (
                    node.now
                    + node.latency.ewma[target_id] * HINT_BACKOFF_MULTIPLIER
                )
            hints = storage.hints_for(target_id)
            tracer = node.tracer
            for chunk in chunked(hints, SYNC_BATCH_SIZE):
                if tracer.enabled:
                    # Close the loop of each hint's originating request: the
                    # replay appears in the span tree of the write that
                    # stored the hint, however many ticks later it runs.
                    for hint in chunk:
                        if hint.trace is not None:
                            tracer.point("hint.replay", node.node_id, node.now,
                                         trace=hint.trace[0],
                                         parent=hint.trace[1],
                                         target=target_id, key=hint.key)
                payload_hints = [(hint.hint_id, hint.key, hint.state) for hint in chunk]
                size = (sum(node.payload_state_size(hint.key, hint.state)
                            for hint in chunk)
                        + REQUEST_OVERHEAD_BYTES)
                node.emit(Send(Message(
                    sender=node.node_id,
                    receiver=target_id,
                    msg_type=MessageType.HINT_REPLAY,
                    payload={"hints": payload_hints},
                    size_bytes=size,
                )))
                batches += 1
        return batches

    def on_hint_replay(self, message: Message) -> None:
        node = self._node
        hint_ids = []
        for hint_id, key, state in message.payload["hints"]:
            node.store.local_merge(key, state, reason="hint")
            hint_ids.append(hint_id)
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=message.sender,
            msg_type=MessageType.HINT_ACK,
            payload={"hint_ids": hint_ids},
            size_bytes=REQUEST_OVERHEAD_BYTES,
        )))

    def on_hint_ack(self, message: Message) -> None:
        self._node.store.storage.clear_hints(message.sender, message.payload["hint_ids"])

    def on_recover(self) -> None:
        """Forget backoff state (process memory died with the crash)."""
        self.next_attempt.clear()
