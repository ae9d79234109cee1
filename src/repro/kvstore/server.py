"""Storage node: the replica-local half of the store.

A :class:`StorageNode` owns a :class:`~repro.kvstore.storage.NodeStorage` and
the :class:`~repro.kvstore.merkle_index.VnodeIndexSet` the disk tells of
every mutation — one write-maintained hash tree per vnode range — and
executes the replica-local steps of the protocol: read a key's state, apply
a coordinated write through the causality mechanism, merge a remote
replica's state.  It knows nothing about quorums, placement or the network;
the synchronous store (:mod:`repro.kvstore.sync_store`) calls it directly,
and there the index only records written states, because nothing reads its
digests; the protocol node (:mod:`repro.kvstore.protocol.node`) wraps it in
message handlers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..clocks.interface import CausalityMechanism, ReadResult, Sibling
from ..cluster.ring import PartitionMap
from ..core.exceptions import StaleContextError
from .context import CausalContext
from .merkle_index import VnodeIndexSet
from .storage import Hint, NodeStorage

#: Merge provenance → stats counter.  Hint replays and Merkle-delta key
#: transfers are accounted separately from ordinary merges so tests and
#: reports can tell the convergence paths apart.
MERGE_COUNTERS = {
    "merge": "merges",
    "hint": "hint_replays",
    "merkle": "merkle_syncs",
    "handoff": "handoffs",
}


class StorageNode:
    """One replica server."""

    def __init__(self,
                 node_id: str,
                 mechanism: CausalityMechanism,
                 partition_map: PartitionMap = PartitionMap(1)) -> None:
        self.node_id = node_id
        self.mechanism = mechanism
        #: Operation counters for diagnostics and reports.  ``merges`` counts
        #: ordinary replication/read-repair merges only; hint replays, Merkle
        #: anti-entropy transfers and rebalancing handoffs have their own
        #: counters (see :data:`MERGE_COUNTERS`); hash-tree maintenance has
        #: the :data:`~repro.kvstore.merkle_index.INDEX_COUNTERS` its index
        #: adds.  ``merges_unchanged`` counts merges of any provenance that
        #: left the stored state as it was.
        self.stats = {
            "reads": 0,
            "writes": 0,
            "merges": 0,
            "merges_unchanged": 0,
            "hint_replays": 0,
            "merkle_syncs": 0,
            "handoffs": 0,
            "hints_stored": 0,
            "hint_replays_deferred": 0,
        }
        #: The write-maintained hash trees, one per vnode range, that the
        #: Merkle exchange reads: every storage mutation updates the mutated
        #: key's range tree.
        self.merkle_index = VnodeIndexSet(mechanism, partition_map=partition_map,
                                          counters=self.stats)
        self.storage = NodeStorage(mechanism, self.merkle_index, partition_map)
        # Set by a clean shutdown, consumed (or voided) by the next restart,
        # wipe or mutation: "the flushed index still matches the disk".
        self._index_clean = False
        # key → the state object local_merge last stored or kept for it: a
        # merge result, so the next merge into it may use ``absorb``.  A
        # state replaced any other way fails the ``is`` check.
        self._merged: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Replica-local operations
    # ------------------------------------------------------------------ #
    def local_read(self, key: str) -> ReadResult:
        """Read the key's live siblings and the mechanism context describing them."""
        self.stats["reads"] += 1
        return self.mechanism.read(self.storage.get_state(key))

    def local_write(self,
                    key: str,
                    context: Optional[CausalContext],
                    sibling: Sibling) -> Any:
        """Apply a client write coordinated by this node.

        ``context`` may be None for a blind write (never-read client).  The
        returned value is the new mechanism state (also stored); the
        coordinator ships its ``write_delta`` to the other replicas.
        """
        self.stats["writes"] += 1
        self._index_clean = False
        if context is not None and context.key != key:
            raise StaleContextError(
                f"context for key {context.key!r} used to write key {key!r}"
            )
        mechanism_context = (
            context.mechanism_context if context is not None else self.mechanism.empty_context()
        )
        state = self.storage.get_state(key)
        new_state = self.mechanism.write(state, mechanism_context, sibling, self.node_id)
        self.storage.put_state(key, new_state)
        self._merged.pop(key, None)
        return new_state

    def local_merge(self, key: str, remote_state: Any, reason: str = "merge") -> Any:
        """Merge a remote replica's state for ``key`` into the local one.

        ``reason`` selects the stats counter: ``"merge"`` (replication, read
        repair, synchronous-store sync), ``"hint"`` (hinted-handoff replay),
        ``"merkle"`` (Merkle-delta anti-entropy transfer) or ``"handoff"``
        (rebalancing after a membership change).

        A merge that changes nothing stores nothing: when ``remote_state`` is
        the stored state, or the merge result equals it, the stored state is
        returned as it is (counted in ``merges_unchanged``) and the disk is
        not written, so the Merkle index has nothing to re-hash.

        When the stored state is the one this method last stored or kept,
        it is a merge result, and the mechanism's ``absorb`` folds the remote
        state into it.
        """
        self.stats[MERGE_COUNTERS[reason]] += 1
        self._index_clean = False
        stored = self.storage.get_state(key)
        if remote_state is not stored:
            if self._merged.get(key) is stored:
                merged = self.mechanism.absorb(stored, remote_state)
            else:
                merged = self.mechanism.merge(stored, remote_state)
            if merged is not stored and merged != stored:
                self.storage.put_state(key, merged)
                self._merged[key] = merged
                return merged
            self._merged[key] = stored
        self.stats["merges_unchanged"] += 1
        return stored

    def state_of(self, key: str) -> Any:
        """The raw mechanism state stored for ``key`` (for replication/sync)."""
        return self.storage.get_state(key)

    # ------------------------------------------------------------------ #
    # Incremental Merkle index lifecycle
    # ------------------------------------------------------------------ #
    def wipe(self, partition: Optional[int] = None) -> None:
        """Lose disk contents — the whole disk, or one vnode's slice of it.

        With ``partition`` given, only that vnode's key states (and the hints
        for keys in its range) are dropped; the other vnodes survive intact.
        The disk tells the wiped range's tree of each drop, so only that
        tree empties.

        With no partition, the whole disk is cleared in place (hints and key
        states lost).  The Merkle index summarises the disk, so it is emptied
        with it — a wiped node's tree must advertise "I hold nothing" or
        anti-entropy would skip the repopulation it needs.
        """
        self._index_clean = False
        self._merged.clear()
        if partition is not None:
            self.storage.wipe_vnode(partition)
        else:
            self.storage.wipe()

    def shutdown(self) -> None:
        """Clean shutdown: flush the Merkle index and mark it durable.

        Models stopping the process only after storage finished its
        bookkeeping: dirty leaf buckets are flushed so the on-disk trees
        match the on-disk key states, and the node remembers the index is
        clean.  The next :meth:`restart` then adopts the maintained digests
        instead of rebuilding — Riak's "hashtree marked clean on graceful
        stop" optimisation.  Any wipe, and any mutation applied after the
        flush, voids the cleanliness again.
        """
        self.merkle_index.flush()
        self._index_clean = True

    def restart(self) -> None:
        """Process restart: disk contents survive; the index only if clean.

        After a crash the in-memory trees are as good as gone, so the Merkle
        index is rebuilt from storage (counted in ``full_rebuilds`` per
        non-empty vnode) the way Riak reconstructs a missing hashtree at
        startup.  After a clean :meth:`shutdown` the flushed trees still
        match the disk, so they are adopted as-is and each occupied vnode's
        avoided rebuild is counted in ``rebuilds_skipped`` instead.
        """
        if self._index_clean:
            self._index_clean = False
            self.stats["rebuilds_skipped"] += sum(
                1 for index in self.merkle_index.indexes.values() if index.key_count)
            return
        self.merkle_index.rebuild(self.storage)

    def audit_merkle_index(self, sample_size: int = 64, rng=None) -> dict:
        """Cold-verify a sample of stored keys against the node's index.

        See :meth:`repro.kvstore.merkle_index.VnodeIndexSet.audit`.
        """
        return self.merkle_index.audit(self.storage, sample_size=sample_size,
                                       rng=rng)

    def ingest_handoff(self, key: str, state: Any, fingerprint: Optional[bytes] = None) -> Any:
        """Absorb one key of a vnode handoff, reusing the sender's digest.

        When the sender ships the fingerprint its maintained index already
        holds for the key, the receiver can adopt the state *and* the digest
        without re-hashing anything: a key the receiver does not hold is
        stored with the imported fingerprint, and a key whose local
        fingerprint equals the incoming one is provably the identical sibling
        set (the fingerprint covers the sorted sibling origin dots), so the
        merge would be a no-op and is skipped.  Only a genuine fingerprint
        mismatch — the receiver holds a *different* state for the key — falls
        back to a real merge, which re-fingerprints just that key.
        """
        if fingerprint is None:
            return self.local_merge(key, state, reason="handoff")
        self.stats[MERGE_COUNTERS["handoff"]] += 1
        self._index_clean = False
        if not self.storage.has_key(key):
            self.storage.put_state(key, state, fingerprint=fingerprint)
            return state
        if self.merkle_index.fingerprint(key) == fingerprint:
            return self.storage.get_state(key)
        merged = self.mechanism.merge(self.storage.get_state(key), state)
        self.storage.put_state(key, merged)
        return merged

    def siblings_of(self, key: str) -> List[Sibling]:
        """The live sibling versions stored for ``key``."""
        return self.mechanism.siblings(self.storage.get_state(key))

    def values_of(self, key: str) -> List[Any]:
        """Just the application values of the live siblings."""
        return [sibling.value for sibling in self.siblings_of(key)]

    # ------------------------------------------------------------------ #
    # Hinted handoff
    # ------------------------------------------------------------------ #
    def store_hint(self, target_id: str, key: str, state: Any,
                   trace: Any = None) -> Hint:
        """Hold a write for an unreachable replica until it recovers.

        Hints are persisted in the node's storage layer, so they share the
        disk's fate: a process restart keeps them (replay resumes), a wiped
        disk loses them together with the key states.
        """
        self.stats["hints_stored"] += 1
        return self.storage.store_hint(target_id, key, state, trace=trace)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def metadata_entries(self, key: Optional[str] = None) -> int:
        """Causality-metadata entries held by this node (for one key or all)."""
        return self.storage.metadata_entries(key)

    def metadata_bytes(self, key: Optional[str] = None) -> int:
        """Causality-metadata bytes held by this node (for one key or all)."""
        return self.storage.metadata_bytes(key)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"StorageNode(id={self.node_id!r}, mechanism={self.mechanism.name!r})"
