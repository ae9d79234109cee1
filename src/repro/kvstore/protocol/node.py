"""One protocol node: storage plus the composed server-side state machines.

:class:`ProtocolNode` is what a backend hosts per storage server.  It owns the
durable :class:`~repro.kvstore.server.StorageNode` and the four protocol
machines — :class:`~repro.kvstore.protocol.coordinator.Coordinator`,
:class:`~repro.kvstore.protocol.replica.ReplicaHandler`,
:class:`~repro.kvstore.protocol.anti_entropy.AntiEntropyEngine` and
:class:`~repro.kvstore.protocol.hints.HintReplayer` — and routes decoded
messages, fired timers and daemon triggers to them.  Every entry point sets
the node's clock, runs the handler, and returns the effects the handler
emitted, in order.

The backend contract is small: deliver each inbound message via
:meth:`on_message`, feed timer firings back through :meth:`on_timer` (an
:class:`~repro.kvstore.protocol.effects.EffectRunner` does both bookkeeping
halves), call the daemon entry points on its own cadence, and execute every
returned effect list strictly in order.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ...network.message import Message, MessageType
from ..server import StorageNode
from .anti_entropy import AntiEntropyEngine
from .coordinator import Coordinator
from .effects import Effect, EffectList
from .env import REQUEST_OVERHEAD_BYTES
from .hints import HintReplayer
from .latency import PeerLatencyTracker
from .replica import ReplicaHandler
from .util import default_value_size


class ProtocolNode:
    """A storage server's protocol brain, independent of any transport."""

    def __init__(self, node_id: str, mechanism, env,
                 store: Optional[StorageNode] = None) -> None:
        self.node_id = node_id
        self.mechanism = mechanism
        self.env = env
        self.store = store if store is not None else StorageNode(
            node_id, mechanism, partition_map=env.placement.partition_map)
        #: The node's clock, set by the backend on every entry (simulated
        #: milliseconds or wall-clock milliseconds — the machines never ask).
        self.now = 0.0
        # Per-peer ack-latency EWMAs: they time the read hedge and the hint
        # backoff, and mark suspected peers (replica deadlines are fixed).
        self.latency = PeerLatencyTracker()
        self.coordinator = Coordinator(self)
        self.replica = ReplicaHandler(self)
        self.anti_entropy = AntiEntropyEngine(self)
        self.hints = HintReplayer(self)
        self._out: List[Effect] = []
        self._dispatch = {
            MessageType.COORDINATE_GET: self.coordinator.on_coordinate_get,
            MessageType.COORDINATE_PUT: self.coordinator.on_coordinate_put,
            MessageType.REPLICA_GET: self.replica.on_replica_get,
            MessageType.REPLICA_GET_REPLY: self.coordinator.on_replica_get_reply,
            MessageType.REPLICA_PUT: self.replica.on_replica_put,
            MessageType.REPLICA_PUT_ACK: self.coordinator.on_replica_put_ack,
            MessageType.READ_REPAIR: self.replica.on_read_repair,
            MessageType.MERKLE_PARTITION_DIGESTS:
                self.anti_entropy.on_merkle_partition_digests,
            MessageType.MERKLE_PARTITION_DIFF:
                self.anti_entropy.on_merkle_partition_diff,
            MessageType.MERKLE_SYNC_REQUEST:
                self.anti_entropy.on_merkle_sync_request,
            MessageType.MERKLE_SYNC_RESPONSE:
                self.anti_entropy.on_merkle_sync_response,
            MessageType.MERKLE_KEY_STATES: self.anti_entropy.on_merkle_key_states,
            MessageType.HINT_REPLAY: self.hints.on_hint_replay,
            MessageType.HINT_ACK: self.hints.on_hint_ack,
            MessageType.KEY_HANDOFF: self.replica.on_key_handoff,
            MessageType.PING: self.replica.on_ping,
        }

    @property
    def tracer(self):
        """The env's span emitter (the inert :data:`NO_TRACER` by default)."""
        return self.env.tracer

    # ------------------------------------------------------------------ #
    # Effect plumbing (machines call node.emit; entry points drain)
    # ------------------------------------------------------------------ #
    def emit(self, effect: Effect) -> None:
        self._out.append(effect)

    def _drain(self) -> EffectList:
        effects, self._out = self._out, []
        return effects

    # ------------------------------------------------------------------ #
    # Backend entry points
    # ------------------------------------------------------------------ #
    def on_message(self, message: Message, now: float) -> EffectList:
        """Handle one decoded inbound message; returns the emitted effects."""
        self.now = now
        handler = self._dispatch.get(message.msg_type)
        if handler is not None:
            handler(message)
        return self._drain()

    def on_timer(self, timer_id, now: float) -> EffectList:
        """Handle one fired timer (the id a SetTimer effect named)."""
        self.now = now
        kind = timer_id[0]
        if kind == "replica":
            self.coordinator.on_replica_deadline(timer_id[1], timer_id[2])
        elif kind == "request":
            self.coordinator.on_request_deadline(timer_id[1])
        elif kind == "hedge":
            self.coordinator.on_hedge(timer_id[1])
        elif kind == "repair-flush":
            self.coordinator.flush_all_read_repairs()
        return self._drain()

    # ------------------------------------------------------------------ #
    # Daemon triggers (anti-entropy ticks, hint replay, rebalancing)
    # ------------------------------------------------------------------ #
    def start_merkle_sync_with(self, peer_id: str, now: float) -> EffectList:
        self.now = now
        self.anti_entropy.start_merkle_sync_with(peer_id)
        return self._drain()

    def replay_hints(self, now: float) -> Tuple[EffectList, int]:
        """Hint-replay tick; returns (effects, number of batches emitted)."""
        self.now = now
        batches = self.hints.replay_hints()
        return self._drain(), batches

    def send_key_handoff(self, target_id: str, keys: Sequence[str],
                         now: float) -> EffectList:
        self.now = now
        self.anti_entropy.send_key_handoff(target_id, keys)
        return self._drain()

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def on_recover(self, wipe: bool,
                   wipe_partitions: Optional[Sequence[int]] = None) -> None:
        """Recover from a crash: disk handling plus process-memory cleanup.

        The disk either survived (restart: the Merkle index is rebuilt from
        it, per non-empty vnode — or adopted as-is after a clean shutdown),
        did not (``wipe``: storage and index are emptied), or lost only some
        vnodes' slices (``wipe_partitions``: those ranges' states, hints and
        trees are dropped, the rest survive and keep their maintained
        digests).  Process memory died either way: queued read-repair pushes,
        in-flight Merkle exchange sessions, hint-replay backoff, the
        replica-latency EWMAs and the suspected peers are discarded here — any new process state
        added to the machines that should not survive a crash belongs in
        their ``on_recover`` hooks.
        """
        if wipe:
            self.store.wipe()
        else:
            for partition_id in wipe_partitions or ():
                self.store.wipe(partition=partition_id)
            self.store.restart()
        self.coordinator.on_recover()
        self.anti_entropy.on_recover()
        self.hints.on_recover()
        self.latency.clear()

    # ------------------------------------------------------------------ #
    # Sizing helpers (message accounting shared by all machines)
    # ------------------------------------------------------------------ #
    def state_size(self, key: str, state: Any) -> int:
        return self.payload_state_size(key, state) + REQUEST_OVERHEAD_BYTES

    def payload_state_size(self, key: str, state: Any) -> int:
        metadata = self.mechanism.metadata_bytes(state)
        values = sum(default_value_size(s.value)
                     for s in self.mechanism.siblings(state))
        return metadata + values
