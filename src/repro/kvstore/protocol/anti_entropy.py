"""Anti-entropy state machine: the store's one replica-sync exchange.

One :class:`AntiEntropyEngine` per node runs the Merkle-delta protocol over
effects — the per-vnode hashtree exchange Riak uses: one
``MERKLE_PARTITION_DIGESTS`` / ``MERKLE_PARTITION_DIFF`` round trip compares
per-range roots, then each differing range's tree is descended level by
level (``MERKLE_SYNC_REQUEST`` / ``MERKLE_SYNC_RESPONSE``) down to leaf
fingerprints, and finally only the divergent keys' states travel, batched
into ``MERKLE_KEY_STATES`` messages.  The same engine pushes rebalancing
handoffs (``KEY_HANDOFF``).

Every digest and fingerprint is read from the node's write-maintained
:class:`~repro.kvstore.merkle_index.VnodeIndexSet` when the message that
needs it arrives; nothing is copied per exchange, so an exchange costs what
the divergence costs.  Reading a moving tree is safe — the paper's invariant
is carried by ``mechanism.merge`` in ``local_merge``, not by which keys a
descent picks, and states are read at send time — and live: a divergence a
descent misses leaves the range roots different for the next round, and a
key healed while the descent was in flight is simply not shipped.

**Reply rule.**  The receiver of ``MERKLE_KEY_STATES`` sends back only what
the sender lacks: a wanted key whose merged sibling set equals the set it
just received is dropped from the reply.

Differing ranges are descended **concurrently**: `on_merkle_partition_diff`
opens every differing range at once and each descends independently (their
level messages interleave in flight), with an :class:`AntiEntropySession`
tracking the open set until the last range finishes.  The high-water mark of
simultaneously open range descents is recorded in
``MerkleSyncStats.max_concurrent_ranges`` so tests can assert the overlap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...network.message import Message, MessageType
from ..merkle import state_fingerprint
from .effects import Send
from .util import chunked

#: Wire size of one tree digest in the Merkle exchange (sha256).
DIGEST_BYTES = 32

#: Message types that carry anti-entropy traffic; the single source of truth
#: for "sync bytes" measurements in reports and benchmarks.
SYNC_MESSAGE_TYPES = (
    MessageType.MERKLE_PARTITION_DIGESTS.value,
    MessageType.MERKLE_PARTITION_DIFF.value,
    MessageType.MERKLE_SYNC_REQUEST.value,
    MessageType.MERKLE_SYNC_RESPONSE.value,
    MessageType.MERKLE_KEY_STATES.value,
)


@dataclass
class MerkleSyncStats:
    """Cluster-wide counters for the Merkle-delta anti-entropy protocol."""

    exchanges_started: int = 0
    exchanges_clean: int = 0        # root digests matched, nothing to do
    levels_sent: int = 0
    keys_transferred: int = 0
    #: States received whose merge left the receiver's sibling set as it was
    #: — wasted transfers; ``keys_unchanged / keys_transferred`` is the
    #: protocol's waste ratio.
    keys_unchanged: int = 0
    partitions_compared: int = 0    # per-range root comparisons performed
    partitions_differing: int = 0   # ranges whose roots differed (descended)
    #: High-water mark of simultaneously open range descents on any source
    #: node — evidence that differing ranges sync as parallel sessions.
    max_concurrent_ranges: int = 0


@dataclass
class AntiEntropySession:
    """Source-side state of one in-flight Merkle exchange.

    Differing ranges descend independently; the session tracks which are
    still open and completes when the last one finishes its descent.
    """

    peer_id: str
    open_partitions: set = field(default_factory=set)


class AntiEntropyEngine:
    """Per-node sync machine: the Merkle exchanges this node started."""

    def __init__(self, node) -> None:
        self._node = node
        self.sessions: Dict[int, AntiEntropySession] = {}
        self._session_ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Merkle-delta exchange
    # ------------------------------------------------------------------ #
    def _range_index(self, partition: int):
        """One range's live index, flushed so its digests are current."""
        index = self._node.store.merkle_index.index_for(partition)
        index.flush()
        return index

    def open_range_count(self) -> int:
        """Range descents currently open across this node's source sessions."""
        return sum(len(session.open_partitions) for session in self.sessions.values())

    def _note_range_concurrency(self) -> None:
        stats = self._node.env.merkle_stats
        stats.max_concurrent_ranges = max(stats.max_concurrent_ranges,
                                          self.open_range_count())

    def start_merkle_sync_with(self, peer_id: str) -> None:
        """Begin a Merkle-delta exchange with ``peer_id``.

        The exchange opens with one message carrying the root digest of every
        non-empty local range (``MERKLE_PARTITION_DIGESTS``); the peer
        compares range by range and names the differing ones, and only those
        ranges' trees are descended — a mostly-synced pair pays two messages
        total no matter how many ranges they hold.
        """
        node = self._node
        env = node.env
        # A lost message leaves a session dangling; starting a new exchange
        # with the same peer supersedes any older one.
        self.sessions = {
            session_id: session
            for session_id, session in self.sessions.items()
            if session.peer_id != peer_id
        }
        session_id = next(self._session_ids)
        self.sessions[session_id] = AntiEntropySession(peer_id)
        env.merkle_stats.exchanges_started += 1

        # Advertise non-empty ranges only (absent ranges hash to the
        # well-known empty root on both sides).
        index = node.store.merkle_index
        roots: Dict[int, bytes] = {
            partition_id: index.partition_root(partition_id)
            for partition_id in index.partition_ids()
            if index.index_for(partition_id).key_count
        }
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=peer_id,
            msg_type=MessageType.MERKLE_PARTITION_DIGESTS,
            payload={"session": session_id, "roots": roots},
            size_bytes=(len(roots) * (DIGEST_BYTES + 1)
                        + env.request_overhead_bytes),
        )))

    def on_merkle_partition_digests(self, message: Message) -> None:
        """Target side: compare per-range roots, name the differing ranges."""
        node = self._node
        session_id = message.payload["session"]
        roots = message.payload["roots"]
        index = node.store.merkle_index
        stats = node.env.merkle_stats

        local_live = {partition_id for partition_id in index.partition_ids()
                      if index.index_for(partition_id).key_count > 0}
        compared = sorted(local_live | set(roots))
        empty_root = index.empty_root_digest
        differing = [partition_id for partition_id in compared
                     if index.partition_root(partition_id)
                     != roots.get(partition_id, empty_root)]
        stats.partitions_compared += len(compared)
        stats.partitions_differing += len(differing)

        node.emit(Send(Message(
            sender=node.node_id,
            receiver=message.sender,
            msg_type=MessageType.MERKLE_PARTITION_DIFF,
            payload={"session": session_id, "differing": differing},
            size_bytes=len(differing) + node.env.request_overhead_bytes,
        )))

    def on_merkle_partition_diff(self, message: Message) -> None:
        """Source side: descend each differing range; finish if none differ.

        Every differing range is opened *at once* — their level-by-level
        descents proceed as parallel sessions whose messages interleave on
        the wire, rather than one range waiting for the previous to finish.
        """
        session_id = message.payload["session"]
        session = self.sessions.get(session_id)
        if session is None or session.peer_id != message.sender:
            return  # stale session (lost messages, duplicate delivery)
        differing = message.payload["differing"]
        if not differing:
            self.sessions.pop(session_id, None)
            self._node.env.merkle_stats.exchanges_clean += 1
            return
        session.open_partitions.update(differing)
        self._note_range_concurrency()
        # The roots already differ (that is what the peer told us), so the
        # descent of each range starts at its children.  A range the peer
        # holds keys in and we do not reads as the empty tree here.
        for partition_id in differing:
            self._send_merkle_level(
                session_id, session.peer_id, 1,
                self._range_index(partition_id).child_digests(()),
                partition_id)

    def _send_merkle_level(self,
                           session_id: int,
                           peer_id: str,
                           level: int,
                           entries: List[Tuple[Tuple[int, ...], bytes]],
                           partition: int) -> None:
        node = self._node
        node.env.merkle_stats.levels_sent += 1
        size = (len(entries) * (DIGEST_BYTES + level)
                + node.env.request_overhead_bytes)
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=peer_id,
            msg_type=MessageType.MERKLE_SYNC_REQUEST,
            payload={"session": session_id, "level": level, "entries": entries,
                     "partition": partition},
            size_bytes=size,
        )))

    def on_merkle_sync_request(self, message: Message) -> None:
        """Target side: compare received digests against the local range."""
        node = self._node
        level = message.payload["level"]
        partition = message.payload["partition"]
        index = self._range_index(partition)

        differing = [path for path, digest in message.payload["entries"]
                     if index.digest_at(path) != digest]
        buckets: Optional[Dict[Tuple[int, ...], Dict[str, bytes]]] = None
        size = len(differing) * (level + 1) + node.env.request_overhead_bytes
        if level >= index.depth and differing:
            buckets = {path: index.bucket_fingerprints(path) for path in differing}
            size += sum(len(key.encode("utf-8")) + DIGEST_BYTES
                        for bucket in buckets.values() for key in bucket)

        node.emit(Send(Message(
            sender=node.node_id,
            receiver=message.sender,
            msg_type=MessageType.MERKLE_SYNC_RESPONSE,
            payload={"session": message.payload["session"], "level": level,
                     "differing": differing, "buckets": buckets,
                     "partition": partition},
            size_bytes=size,
        )))

    def _finish_merkle_partition(self,
                                 session_id: int,
                                 session: AntiEntropySession,
                                 partition: int) -> None:
        """One range's descent is done; the session ends with its last range."""
        session.open_partitions.discard(partition)
        if not session.open_partitions:
            self.sessions.pop(session_id, None)

    def on_merkle_sync_response(self, message: Message) -> None:
        """Source side: descend into differing paths or ship divergent keys."""
        session_id = message.payload["session"]
        session = self.sessions.get(session_id)
        if session is None or session.peer_id != message.sender:
            return  # stale session (lost messages, duplicate delivery)
        differing = message.payload["differing"]
        partition = message.payload["partition"]
        if partition not in session.open_partitions:
            return  # this range's descent already finished (duplicate delivery)

        if not differing:
            self._finish_merkle_partition(session_id, session, partition)
            return

        index = self._range_index(partition)
        buckets = message.payload.get("buckets")
        if buckets is None:
            # Descend one level: ship child digests of every differing path.
            entries: List[Tuple[Tuple[int, ...], bytes]] = []
            for path in differing:
                entries.extend(index.child_digests(path))
            self._send_merkle_level(session_id, session.peer_id,
                                    message.payload["level"] + 1, entries,
                                    partition)
            return

        # Leaf level: fingerprints localise the exact divergent keys.
        divergent = set()
        for path, peer_fingerprints in buckets.items():
            own_fingerprints = index.bucket_fingerprints(path)
            for key in own_fingerprints.keys() | peer_fingerprints.keys():
                if own_fingerprints.get(key) != peer_fingerprints.get(key):
                    divergent.add(key)
        peer_id = session.peer_id
        self._finish_merkle_partition(session_id, session, partition)
        self._send_merkle_key_states(peer_id, sorted(divergent))

    def _send_merkle_key_states(self, peer_id: str, keys: Sequence[str],
                                want_reply: bool = True) -> None:
        """Ship states for the divergent keys, batched to amortise latency."""
        node = self._node
        env = node.env
        for chunk in chunked(list(keys), env.sync_batch_size):
            states = {key: node.store.state_of(key) for key in chunk
                      if node.store.storage.has_key(key)}
            want = list(chunk) if want_reply else []
            size = (sum(node.payload_state_size(key, state)
                        for key, state in states.items())
                    + sum(len(key.encode("utf-8")) for key in want)
                    + env.request_overhead_bytes)
            env.merkle_stats.keys_transferred += len(states)
            node.emit(Send(Message(
                sender=node.node_id,
                receiver=peer_id,
                msg_type=MessageType.MERKLE_KEY_STATES,
                payload={"states": states, "want": want},
                size_bytes=size,
            )))

    def on_merkle_key_states(self, message: Message) -> None:
        """Merge the received states; reply only with what the sender lacks.

        A wanted key goes back unless the merged sibling set equals the set
        just received — then the sender already holds everything this node
        does.  That one rule covers a receiver that had nothing (a rebuild)
        and one that was merely behind; a key the sender lacks, or one whose
        merge kept a sibling the sender has not seen, still returns.
        """
        node = self._node
        store = node.store
        mechanism = node.mechanism
        index = store.merkle_index
        settled = set()
        unchanged = 0
        for key, state in message.payload["states"].items():
            before = index.fingerprint(key)
            merged = store.local_merge(key, state, reason="merkle")
            after = state_fingerprint(mechanism, merged)
            if after == before:
                unchanged += 1
            if after == state_fingerprint(mechanism, state):
                settled.add(key)
        node.env.merkle_stats.keys_unchanged += unchanged
        reply = [key for key in message.payload.get("want") or ()
                 if key not in settled]
        if reply:
            self._send_merkle_key_states(message.sender, reply, want_reply=False)

    # ------------------------------------------------------------------ #
    # Rebalancing handoff (join / decommission)
    # ------------------------------------------------------------------ #
    def send_key_handoff(self, target_id: str, keys: Sequence[str]) -> None:
        """Push the states of ``keys`` to a node that became a replica home.

        Each shipped key rides with the fingerprint this node's range tree
        already holds, so the receiver
        can adopt the digest instead of re-hashing the state
        (:meth:`StorageNode.ingest_handoff`): moving a vnode's worth of keys
        costs O(1) fresh fingerprints on both sides, not O(keys moved).
        """
        node = self._node
        env = node.env
        held = [key for key in keys if node.store.storage.has_key(key)]
        index = node.store.merkle_index
        for chunk in chunked(held, env.sync_batch_size):
            states = {key: node.store.state_of(key) for key in chunk}
            fingerprints: Dict[str, bytes] = {}
            for key in chunk:
                fingerprint = index.fingerprint(key)
                if fingerprint is not None:
                    fingerprints[key] = fingerprint
            size = (sum(node.payload_state_size(key, state)
                        for key, state in states.items())
                    + len(fingerprints) * DIGEST_BYTES
                    + env.request_overhead_bytes)
            node.emit(Send(Message(
                sender=node.node_id,
                receiver=target_id,
                msg_type=MessageType.KEY_HANDOFF,
                payload={"states": states, "fingerprints": fingerprints},
                size_bytes=size,
            )))

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def on_recover(self) -> None:
        """Drop in-flight exchange sessions (process memory)."""
        self.sessions.clear()
