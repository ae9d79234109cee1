"""Incremental Merkle index: write-maintained hash trees (Riak-style).

The Merkle-delta anti-entropy protocol
(:mod:`repro.kvstore.protocol.anti_entropy`) needs each replica's hash tree
during every exchange.  Rebuilding that tree from scratch — one fingerprint
per key plus a full bucket/interior re-hash — makes the *tree* cost of an
exchange
proportional to the key-space size, defeating the point of the protocol,
whose *wire* cost is already proportional to the divergence.  Production
systems do not rebuild: the Riak deployment the paper's evaluation modified
keeps **persistent, incrementally maintained hashtrees** (one per vnode) that
are updated as objects are written and only re-hash the paths a write dirtied.

:class:`MerkleIndex` is that design element for this substrate, and
:class:`VnodeIndexSet` arranges one of them **per vnode range** — the actual
Riak layout, where each partition carries its own hashtree:

* every :class:`~repro.kvstore.server.StorageNode` builds one
  :class:`VnodeIndexSet`, whose member :class:`MerkleIndex` per range
  subscribes to that vnode's
  :class:`~repro.kvstore.storage.NodeStorage` mutation stream, so **every**
  path that changes a key's sibling set — client writes, replica merges,
  read repair, Merkle-delta transfers, hint replay, rebalancing handoff —
  reaches it;
* a mutation only **records** the key's new state; the key is fingerprinted
  (one sha256) when something reads it — a flush,
  :meth:`~MerkleIndex.fingerprint` or a bucket's fingerprints — so a hot key
  written a hundred times between two exchanges is hashed once, and a key
  written then dropped not at all.  A key whose fingerprint changed marks
  its leaf bucket dirty;
* a mutation that arrives with a **maintained fingerprint** (vnode handoff
  ships the sender's digests alongside the states) is *imported* rather than
  hashed — moving a whole range between nodes costs zero re-fingerprinting
  on either side;
* re-hashing is **lazy**: dirty buckets accumulate and are flushed the next
  time a digest is needed, so a burst of writes into one bucket costs a single
  leaf re-hash plus one root-path recomputation, not one per write and never
  a tree rebuild;
* the exchange reads the index **in place**: :meth:`MerkleIndex.digest_at`,
  :meth:`~MerkleIndex.child_digests` and
  :meth:`~MerkleIndex.bucket_fingerprints` answer every question a descent
  asks from the maintained digests (after a :meth:`~MerkleIndex.flush`),
  bit for bit what a from-scratch
  :class:`~repro.kvstore.merkle.MerkleTree` over the same keys would say —
  nothing is copied per exchange, and per-range anti-entropy touches only
  the one partition's index it was asked about;
* the index shares its owner's durability: a crash-restart rebuilds it from
  the surviving :class:`NodeStorage` contents
  (:meth:`VnodeIndexSet.rebuild` — per vnode, so only ranges that actually
  hold keys pay), a disk wipe empties it (:meth:`VnodeIndexSet.reset`, or
  :meth:`VnodeIndexSet.reset_vnode` when a single partition's slice is
  lost).

Maintenance cost is observable through the counters the index increments in
the owning node's stats dict — ``keys_hashed`` (fingerprints computed, at
most once per key per flush or fingerprint read),
``fingerprints_imported`` (maintained digests adopted from a handoff
instead of hashing), ``buckets_rehashed`` (leaf buckets re-hashed on
flush) and ``full_rebuilds`` (rebuilds from storage) — which is what lets
the anti-entropy benchmark show exchange tree work dropping from O(keys) to
O(divergent buckets), and handoff tree work dropping to O(1).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..clocks.interface import CausalityMechanism
from ..cluster.ring import PartitionMap
from ..core.exceptions import ConfigurationError
from .merkle import (
    MerkleTree,
    _hash_bytes,
    bucket_path,
    state_fingerprint,
    state_fingerprint_cold,
)
from .storage import NodeStorage

#: Hash-tree maintenance counters an index seeds (to zero) and increments in
#: its owner's stats dict.  ``keys_hashed`` counts key fingerprints computed:
#: a write only records the key, which is hashed when a flush or a
#: fingerprint read needs it — at most once per key per flush (or per
#: fingerprint read), however often it was written in between.
INDEX_COUNTERS = ("keys_hashed", "buckets_rehashed", "full_rebuilds",
                  "fingerprints_imported", "rebuilds_skipped",
                  "audit_keys_checked", "audit_mismatches")


def _empty_digests(fanout: int, depth: int) -> List[bytes]:
    """Digest of an all-empty subtree rooted at each level (root is level 0).

    An unmaterialised bucket hashes exactly like an empty one in a full
    rebuild (``sha256(b"")``, aggregated upward), so the index only has to
    store digests for paths that actually hold keys.
    """
    digests: List[bytes] = [b""] * (depth + 1)
    digests[depth] = _hash_bytes(b"")
    for level in range(depth - 1, -1, -1):
        digests[level] = _hash_bytes(digests[level + 1] * fanout)
    return digests


class MerkleIndex:
    """One vnode range's hash tree, kept current with its storage mutations.

    Parameters
    ----------
    mechanism:
        The causality mechanism whose states are fingerprinted.
    fanout / depth:
        Tree shape; must match the peer's for digests to be comparable.
    counters:
        Mutable mapping the index increments its maintenance counters in
        (typically the owning :class:`StorageNode`'s ``stats`` dict so the
        numbers surface in cluster stat totals).  A private dict is used when
        omitted.
    """

    def __init__(self,
                 mechanism: CausalityMechanism,
                 fanout: int = 16,
                 depth: int = 2,
                 counters: Optional[Dict[str, int]] = None) -> None:
        if fanout < 2:
            raise ConfigurationError(f"fanout must be >= 2, got {fanout}")
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        self.mechanism = mechanism
        self.fanout = fanout
        self.depth = depth
        self.counters: Dict[str, int] = counters if counters is not None else {}
        for name in INDEX_COUNTERS:
            self.counters.setdefault(name, 0)
        self._empty = _empty_digests(fanout, depth)
        self._fingerprints: Dict[str, bytes] = {}
        #: Keys written since they were last fingerprinted → their newest
        #: state (states are immutable, so holding the reference is safe).
        self._pending: Dict[str, Any] = {}
        self._buckets: Dict[Tuple[int, ...], Set[str]] = {}
        self._digests: Dict[Tuple[int, ...], bytes] = {}
        self._dirty: Set[Tuple[int, ...]] = set()

    # ------------------------------------------------------------------ #
    # Mutation tracking (per-vnode NodeStorage listener)
    # ------------------------------------------------------------------ #
    def on_state_changed(self, key: str, state: Any,
                         fingerprint: Optional[bytes] = None) -> None:
        """Storage listener: note one key's new state; hash it when read.

        ``state`` is the key's new mechanism state, or ``None``/empty when the
        key was dropped.  A live state is only recorded: the key is
        fingerprinted once, by the next :meth:`flush` or :meth:`fingerprint`
        that needs it, however often it was written in between.  A caller
        that already holds the state's maintained fingerprint (vnode handoff
        ships the sender's digests with the states) passes it as
        ``fingerprint`` and the index *imports* it — counted in
        ``fingerprints_imported`` — replacing any recorded state.  A drop
        forgets the recorded state and dirties the bucket at once.  Cost: dict
        bookkeeping — never a hash.
        """
        if state is None or self.mechanism.is_empty(state):
            self._pending.pop(key, None)
            if self._fingerprints.pop(key, None) is None:
                return  # key was not indexed; nothing changed
            path = bucket_path(key, self.fanout, self.depth)
            bucket = self._buckets.get(path)
            if bucket is not None:
                bucket.discard(key)
            self._dirty.add(path)
            return
        if fingerprint is None:
            self._pending[key] = state
            return
        self._pending.pop(key, None)
        self.counters["fingerprints_imported"] += 1
        self._adopt(key, fingerprint)

    def _adopt(self, key: str, fingerprint: bytes) -> None:
        """Store ``key``'s fingerprint; dirty its bucket if it changed."""
        if self._fingerprints.get(key) == fingerprint:
            return  # idempotent merge / duplicate delivery: tree unchanged
        self._fingerprints[key] = fingerprint
        path = bucket_path(key, self.fanout, self.depth)
        self._buckets.setdefault(path, set()).add(key)
        self._dirty.add(path)

    def _hash_pending(self) -> None:
        """Fingerprint every key written since it was last hashed."""
        pending = self._pending
        if not pending:
            return
        mechanism = self.mechanism
        for key, state in pending.items():
            self._adopt(key, state_fingerprint(mechanism, state))
        self.counters["keys_hashed"] += len(pending)
        pending.clear()

    # ------------------------------------------------------------------ #
    # Lazy re-hash
    # ------------------------------------------------------------------ #
    def flush(self) -> int:
        """Hash pending keys, then every dirty bucket and the paths above.

        Returns the number of leaf buckets re-hashed.  Each key written since
        it was last hashed is fingerprinted once, and dirties its bucket only
        if the fingerprint changed.  A burst of writes that landed in the
        same bucket since the last flush costs one leaf re-hash here, and
        interior paths shared by several dirty buckets are re-hashed once,
        not once per bucket.  A dirty bucket that emptied (its last key was
        dropped) is popped without hashing anything and is not counted.
        """
        self._hash_pending()
        if not self._dirty:
            return 0
        rehashed = 0
        parents: Set[Tuple[int, ...]] = set()
        for path in self._dirty:
            keys = self._buckets.get(path)
            if keys:
                material = b"".join(self._fingerprints[key] for key in sorted(keys))
                self._digests[path] = _hash_bytes(material)
                rehashed += 1
            else:
                self._buckets.pop(path, None)
                self._digests.pop(path, None)
            parents.add(path[:-1])
        self._dirty.clear()
        self.counters["buckets_rehashed"] += rehashed
        for level in range(self.depth - 1, -1, -1):
            grandparents: Set[Tuple[int, ...]] = set()
            for path in parents:
                material = b"".join(self.digest_at(path + (branch,))
                                    for branch in range(self.fanout))
                digest = _hash_bytes(material)
                if digest == self._empty[level]:
                    self._digests.pop(path, None)
                else:
                    self._digests[path] = digest
                if level > 0:
                    grandparents.add(path[:-1])
            parents = grandparents
        return rehashed

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def root_digest(self) -> bytes:
        """Digest summarising the whole replica state (flushes lazily)."""
        self.flush()
        return self.digest_at(())

    def digest_at(self, path: Tuple[int, ...]) -> bytes:
        """The maintained digest at a tree path (empty-subtree default).

        Like :meth:`child_digests` and :meth:`bucket_fingerprints` this reads
        the digests as of the last :meth:`flush`; callers flush first.
        """
        return self._digests.get(path, self._empty[len(path)])

    def child_digests(self, path: Tuple[int, ...]
                      ) -> List[Tuple[Tuple[int, ...], bytes]]:
        """``(child_path, digest)`` for every child of ``path`` — one level of
        the hashtree exchange, read from the maintained digests."""
        return [(child, self.digest_at(child))
                for child in (path + (branch,) for branch in range(self.fanout))]

    def bucket_fingerprints(self, path: Tuple[int, ...]) -> Dict[str, bytes]:
        """``{key: fingerprint}`` of the leaf bucket at ``path``, in key order.

        Current, not as of the last flush: pending keys are hashed first.
        """
        self._hash_pending()
        fingerprints = self._fingerprints
        return {key: fingerprints[key]
                for key in sorted(self._buckets.get(path, ()))}

    def dirty_buckets(self) -> int:
        """Leaf buckets awaiting a re-hash (0 right after any digest query).

        Pending keys are hashed first, so a write that left its key's
        fingerprint as it was does not count.
        """
        self._hash_pending()
        return len(self._dirty)

    def keys(self) -> List[str]:
        """Every indexed key, sorted (pending keys included, not hashed)."""
        return sorted(self._fingerprints.keys() | self._pending.keys())

    @property
    def key_count(self) -> int:
        """Number of indexed keys (cheap non-sorting alternative to keys())."""
        fingerprints = self._fingerprints
        return len(fingerprints) + sum(1 for key in self._pending
                                       if key not in fingerprints)

    def fingerprint(self, key: str) -> Optional[bytes]:
        """The maintained fingerprint for ``key`` (None when absent).

        A pending key is hashed here — only that key.
        """
        state = self._pending.pop(key, None)
        if state is not None:
            self._adopt(key, state_fingerprint(self.mechanism, state))
            self.counters["keys_hashed"] += 1
        return self._fingerprints.get(key)

    def snapshot(self) -> MerkleTree:
        """Freeze the current fingerprints into a :class:`MerkleTree`."""
        self.flush()
        return MerkleTree(self._fingerprints, fanout=self.fanout, depth=self.depth)

    # ------------------------------------------------------------------ #
    # Durability: the index shares its storage's fate
    # ------------------------------------------------------------------ #
    def rebuild_from(self, items: Iterable[Tuple[str, Any]]) -> None:
        """Reindex from an iterable of ``(key, state)`` pairs.

        This is the one deliberately O(keys) operation: the in-memory tree
        died with the process, but the key states survived on disk, so the
        index is reconstructed from them — exactly what Riak does when a
        hashtree is missing or marked stale at startup.
        """
        self.counters["full_rebuilds"] += 1
        self.reset()
        for key, state in items:
            self.on_state_changed(key, state)
        self.flush()

    def reset(self) -> None:
        """Empty the index (disk wipe: there is nothing left to summarise)."""
        self._fingerprints.clear()
        self._pending.clear()
        self._buckets.clear()
        self._digests.clear()
        self._dirty.clear()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MerkleIndex(keys={self.key_count}, "
            f"fanout={self.fanout}, depth={self.depth}, "
            f"dirty={len(self._dirty)})"
        )


class VnodeIndexSet:
    """One :class:`MerkleIndex` per vnode range — Riak's per-partition trees.

    The set subscribes each member index to its partition's mutation stream
    (:meth:`attach`), so a write only ever touches the tree of the range it
    lands in, and exposes a whole-node query surface (``root_digest`` /
    ``keys()`` / ``fingerprint`` / ``snapshot`` / ``rebuild`` / ``reset`` /
    ``audit``) so callers that don't care about ranges — the churn property
    tests, the restart/wipe paths — see one logical index.
    Per-range anti-entropy uses the partition-addressed surface instead:
    :meth:`partition_root` and :meth:`index_for` compare and descend a
    single range without touching the others.

    The whole-node ``root_digest`` is computed by pooling every range's
    maintained fingerprints into one combined tree: bucket digests are
    re-derived (cheap, bounded by the tree shape) but **no key is ever
    re-fingerprinted**, and the result is bit-identical to a from-scratch
    :class:`~repro.kvstore.merkle.MerkleTree` over the node's keys — pinned
    by the union-digest property tests.

    All member indexes share one ``counters`` mapping, so maintenance cost
    surfaces in the owning node's stats.  ``fanout`` / ``depth`` default to
    the one tree shape every node uses; tests pass smaller ones.
    """

    def __init__(self,
                 mechanism: CausalityMechanism,
                 partition_map: Optional[PartitionMap] = None,
                 fanout: int = 16,
                 depth: int = 2,
                 counters: Optional[Dict[str, int]] = None) -> None:
        self.mechanism = mechanism
        self.partition_map = partition_map
        self.fanout = fanout
        self.depth = depth
        self.counters: Dict[str, int] = counters if counters is not None else {}
        for name in INDEX_COUNTERS:
            self.counters.setdefault(name, 0)
        partition_ids = (partition_map.partition_ids()
                         if partition_map is not None else range(1))
        self.indexes: Dict[int, MerkleIndex] = {
            partition_id: MerkleIndex(mechanism, fanout=fanout, depth=depth,
                                      counters=self.counters)
            for partition_id in partition_ids
        }
        self._empty_root = _empty_digests(fanout, depth)[0]

    # ------------------------------------------------------------------ #
    # Partition-addressed surface (per-range anti-entropy, vnode recovery)
    # ------------------------------------------------------------------ #
    def partition_ids(self) -> List[int]:
        """Every partition id the set maintains a tree for, sorted."""
        return sorted(self.indexes)

    def partition_of(self, key: str) -> int:
        """The partition a key's tree lives in."""
        return (self.partition_map.partition_of(key)
                if self.partition_map is not None else 0)

    def index_for(self, partition_id: int) -> MerkleIndex:
        """The member index of one partition."""
        return self.indexes[partition_id]

    def partition_root(self, partition_id: int) -> bytes:
        """One range's root digest (flushes that range only)."""
        return self.indexes[partition_id].root_digest

    @property
    def empty_root_digest(self) -> bytes:
        """Root digest of an empty range (what an absent peer range hashes to)."""
        return self._empty_root

    def reset_vnode(self, partition_id: int) -> None:
        """Empty one range's tree (its slice of the disk was wiped)."""
        self.indexes[partition_id].reset()

    def rebuild_vnode(self, partition_id: int, storage: NodeStorage) -> None:
        """Reconstruct one range's tree from its vnode's surviving states."""
        items = storage.vnode_items(partition_id)
        if items:
            self.indexes[partition_id].rebuild_from(items)
        else:
            self.indexes[partition_id].reset()

    # ------------------------------------------------------------------ #
    # Storage attachment (listener plumbing)
    # ------------------------------------------------------------------ #
    def attach(self, storage: NodeStorage) -> None:
        """Subscribe each member index to its partition's mutation stream."""
        for partition_id, index in self.indexes.items():
            storage.subscribe_vnode(partition_id, index.on_state_changed)

    # ------------------------------------------------------------------ #
    # Whole-node surface
    # ------------------------------------------------------------------ #
    def flush(self) -> int:
        """Flush every range's dirty buckets; returns leaf buckets re-hashed."""
        return sum(index.flush() for index in self.indexes.values())

    def dirty_buckets(self) -> int:
        """Leaf buckets awaiting a re-hash across every range."""
        return sum(index.dirty_buckets() for index in self.indexes.values())

    def _combined_fingerprints(self) -> Dict[str, bytes]:
        # callers flush first, so no member index has pending keys
        combined: Dict[str, bytes] = {}
        for index in self.indexes.values():
            combined.update(index._fingerprints)
        return combined

    @property
    def root_digest(self) -> bytes:
        """Whole-node digest: the union of every range's maintained keys.

        Equals a from-scratch rebuild bit for bit: the combined tree
        re-derives bucket digests from the maintained fingerprints but hashes
        no key states.
        """
        self.flush()
        return MerkleTree(self._combined_fingerprints(),
                          fanout=self.fanout, depth=self.depth).root_digest

    def keys(self) -> List[str]:
        """Every indexed key across every range, sorted."""
        return sorted(key for index in self.indexes.values()
                      for key in index.keys())

    @property
    def key_count(self) -> int:
        """Number of indexed keys across every range."""
        return sum(index.key_count for index in self.indexes.values())

    def fingerprint(self, key: str) -> Optional[bytes]:
        """The maintained fingerprint for ``key`` (None when absent)."""
        return self.indexes[self.partition_of(key)].fingerprint(key)

    def snapshot(self) -> MerkleTree:
        """Freeze the whole node's digests into one combined tree."""
        self.flush()
        return MerkleTree(self._combined_fingerprints(),
                          fanout=self.fanout, depth=self.depth)

    def rebuild(self, storage: NodeStorage) -> None:
        """Reconstruct every range's tree from the surviving storage.

        Only vnodes that actually hold keys pay a rebuild (counted per such
        vnode in ``full_rebuilds``); empty ranges are just reset.
        """
        for partition_id in self.indexes:
            self.rebuild_vnode(partition_id, storage)

    def reset(self) -> None:
        """Empty every range's tree (the whole disk was wiped)."""
        for index in self.indexes.values():
            index.reset()

    def audit(self, storage: NodeStorage, sample_size: int = 64,
              rng: Optional[random.Random] = None) -> Dict[str, int]:
        """Cold-verify a random sample of stored keys against the index.

        Samples up to ``sample_size`` live keys from ``storage``, recomputes
        each key's fingerprint cold (bypassing every cache), and compares it
        to the fingerprint its own partition's tree maintains, so drift
        localised to one vnode's tree is still caught.  Returns
        ``{"keys_checked", "mismatches"}`` and accumulates both into the
        ``audit_keys_checked`` / ``audit_mismatches`` counters.  A nonzero
        mismatch count means the maintained tree no longer reflects storage
        (a missed mutation event, or bit-rot in a cached digest) and the
        range should be rebuilt.
        """
        rng = rng if rng is not None else random.Random()
        self.flush()
        keys = storage.keys()
        if sample_size < len(keys):
            keys = rng.sample(keys, sample_size)
        mismatches = sum(
            1 for key in keys
            if self.fingerprint(key)
            != state_fingerprint_cold(self.mechanism, storage.get_state(key)))
        self.counters["audit_keys_checked"] += len(keys)
        self.counters["audit_mismatches"] += mismatches
        return {"keys_checked": len(keys), "mismatches": mismatches}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        live = sum(1 for index in self.indexes.values() if index.key_count)
        return (f"VnodeIndexSet(partitions={len(self.indexes)}, "
                f"live={live}, keys={self.key_count})")
