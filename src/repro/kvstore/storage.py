"""Per-node versioned storage, laid out per partition (vnode).

Storage layout
--------------
A node's disk is divided per partition of the cluster's
:class:`~repro.cluster.ring.PartitionMap` — the Riak layout the paper's
evaluation ran on, where each partition owns its keys and its own hashtree
(see :mod:`repro.kvstore.merkle_index`).  :class:`NodeStorage` is that disk:
one plain ``dict`` of key → mechanism state per partition, behind the flat
key → state API callers that don't care about ranges use.  Given a
one-partition map (the synchronous store, unit tests) it is a single vnode
holding everything.  Anything kept here survives a process restart, and is
lost only when it is wiped (:meth:`NodeStorage.wipe_vnode` for one
partition, :meth:`NodeStorage.wipe` for the whole disk).  Besides get/put
of states it can report how many metadata entries and encoded bytes the
causality mechanism is holding (experiment E2's storage-footprint series).

The disk is built with its node's
:class:`~repro.kvstore.merkle_index.VnodeIndexSet` and tells it of every
mutation: a put or drop calls the key's range tree's
:meth:`~repro.kvstore.merkle_index.MerkleIndex.on_state_changed` with
``(key, state, fingerprint)``, and a whole-disk wipe empties every tree.
The ``fingerprint`` is an optional *maintained digest* riding along with
the write (vnode handoff ships them), letting the range tree adopt it
instead of re-hashing the state.

Outstanding hinted-handoff hints also live here, *in the storage layer*,
because a hint is a durable obligation: the held write is the only copy a
crashed primary will ever get back, so a coordinator (or sloppy-quorum
fallback) crashing and restarting must still replay it.  Keeping hints next
to the key states gives them exactly the disk's fate — a restart keeps them,
a full wipe loses them, and wiping one vnode loses the hints whose keys
lived in that partition.  Repeated writes held for the same ``(target,
key)`` coalesce into one hint by merging states, so replay delivers a single
up-to-date state instead of a chain of stale ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from ..clocks.interface import CausalityMechanism
from ..cluster.ring import PartitionMap

if TYPE_CHECKING:
    from .merkle_index import VnodeIndexSet


@dataclass
class Hint:
    """A write held for an unreachable replica (hinted handoff).

    ``target_id`` names the intended primary the held state must eventually
    be replayed to.  The holder may be a sloppy-quorum fallback node rather than the write's coordinator.  The
    ``state`` is mutable: later writes held for the same ``(target, key)``
    merge into it rather than queueing behind it.
    """

    hint_id: int
    target_id: str
    key: str
    state: Any
    #: Local-only trace reference of the span/point that recorded the hint
    #: being stored (``None`` unless tracing is enabled); never serialized
    #: or replayed over the wire.
    trace: Any = None


class NodeStorage:
    """A node's disk: one key → state dict per partition, plus hints.

    Its :class:`~repro.cluster.ring.PartitionMap` routes every key to its
    partition's dict; under a one-partition map a single vnode (partition 0)
    holds the whole key space.  Every mutation reaches the key's range tree
    in ``index``.  Durable hints are node-level — they are obligations *to
    other nodes*, keyed by replay target — but share the fate of the vnode
    their key lives in.
    """

    def __init__(self,
                 mechanism: CausalityMechanism,
                 index: VnodeIndexSet,
                 partition_map: PartitionMap) -> None:
        self._mechanism = mechanism
        self._index = index
        #: The range ↔ vnode mapping every key is routed by.
        self.partition_map = partition_map
        self._vnodes: Dict[int, Dict[str, Any]] = {
            partition_id: {} for partition_id in partition_map.partition_ids()}
        self._hints: Dict[str, List[Hint]] = {}
        self._hint_ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Partition routing
    # ------------------------------------------------------------------ #
    def vnode_ids(self) -> range:
        """Every partition id of this node's layout, in range order."""
        return self.partition_map.partition_ids()

    def vnode_keys(self, partition_id: int) -> List[str]:
        """The keys held by one vnode, sorted."""
        return sorted(self._vnodes[partition_id])

    def vnode_items(self, partition_id: int) -> List[Tuple[str, Any]]:
        """``(key, state)`` pairs held by one vnode, in key order."""
        states = self._vnodes[partition_id]
        return [(key, states[key]) for key in sorted(states)]

    def vnode_len(self, partition_id: int) -> int:
        """Number of keys held by one vnode."""
        return len(self._vnodes[partition_id])

    def wipe_vnode(self, partition_id: int) -> int:
        """Lose one partition's slice of the disk; returns keys dropped.

        The vnode's key states are removed (its range tree hears each drop
        and empties), and hints whose key lived in the partition are lost
        with it — they were stored in the same slice.  Other vnodes are
        untouched.
        """
        states = self._vnodes[partition_id]
        dropped = sorted(states)
        states.clear()
        index = self._index.indexes[partition_id]
        for key in dropped:
            index.on_state_changed(key, None)
        for target_id in list(self._hints):
            kept = [hint for hint in self._hints[target_id]
                    if self.partition_map.partition_of(hint.key) != partition_id]
            if kept:
                self._hints[target_id] = kept
            else:
                self._hints.pop(target_id)
        return len(dropped)

    def wipe(self) -> None:
        """Lose the whole disk: every key state, every hint, every tree.

        Hint ids restart at 1, as a fresh disk's do.
        """
        for states in self._vnodes.values():
            states.clear()
        self._hints.clear()
        self._hint_ids = itertools.count(1)
        self._index.reset()

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    def get_state(self, key: str) -> Any:
        """The stored state for ``key`` (the mechanism's empty state when absent)."""
        states = self._vnodes[self.partition_map.partition_of(key)]
        if key in states:
            return states[key]
        return self._mechanism.empty_state()

    def put_state(self, key: str, state: Any,
                  fingerprint: Optional[bytes] = None) -> None:
        """Replace the stored state for ``key`` (dropping it when empty).

        ``fingerprint`` optionally passes the state's maintained Merkle
        fingerprint through to the range tree — vnode handoff uses this so
        the receiving tree adopts the sender's digest instead of re-hashing
        the state.
        """
        partition_id = self.partition_map.partition_of(key)
        index = self._index.indexes[partition_id]
        if self._mechanism.is_empty(state):
            self._vnodes[partition_id].pop(key, None)
            index.on_state_changed(key, None)
        else:
            self._vnodes[partition_id][key] = state
            index.on_state_changed(key, state, fingerprint)

    def delete(self, key: str) -> None:
        """Remove a key entirely."""
        partition_id = self.partition_map.partition_of(key)
        self._vnodes[partition_id].pop(key, None)
        self._index.indexes[partition_id].on_state_changed(key, None)

    def has_key(self, key: str) -> bool:
        """True iff the node holds live versions for ``key``."""
        return key in self._vnodes[self.partition_map.partition_of(key)]

    def keys(self) -> List[str]:
        """All keys with live versions across every vnode, sorted."""
        return sorted(key for states in self._vnodes.values() for key in states)

    def items(self) -> Iterator[Tuple[str, Any]]:
        """Iterate ``(key, state)`` pairs across every vnode, in key order."""
        merged: Dict[str, Any] = {}
        for states in self._vnodes.values():
            merged.update(states)
        for key in sorted(merged):
            yield key, merged[key]

    def __len__(self) -> int:
        return sum(len(states) for states in self._vnodes.values())

    # ------------------------------------------------------------------ #
    # Durable hints (hinted handoff)
    # ------------------------------------------------------------------ #
    def store_hint(self, target_id: str, key: str, state: Any,
                   trace: Any = None) -> Hint:
        """Persist a held write destined for ``target_id``.

        A write to a ``(target, key)`` that already has an outstanding hint
        merges into it instead of appending: the mechanism's merge keeps the
        union of causal information, so one replay delivers everything the
        chain of individual hints would have — without shipping each stale
        intermediate state.
        """
        hints = self._hints.setdefault(target_id, [])
        for hint in hints:
            if hint.key == key:
                hint.state = self._mechanism.merge(hint.state, state)
                if hint.trace is None:
                    hint.trace = trace
                return hint
        hint = Hint(next(self._hint_ids), target_id, key, state, trace=trace)
        hints.append(hint)
        return hint

    def hints_for(self, target_id: str) -> List[Hint]:
        """The outstanding hints destined for ``target_id`` (oldest first)."""
        return list(self._hints.get(target_id, []))

    def hint_targets(self) -> List[str]:
        """Node ids with at least one outstanding hint, sorted."""
        return sorted(target for target, hints in self._hints.items() if hints)

    def pending_hints(self) -> int:
        """Total outstanding hints across all targets."""
        return sum(len(hints) for hints in self._hints.values())

    def clear_hints(self, target_id: str, hint_ids: Optional[List[int]] = None) -> None:
        """Drop acknowledged hints (all of a target's when ``hint_ids`` is None)."""
        if hint_ids is None:
            self._hints.pop(target_id, None)
            return
        acknowledged = set(hint_ids)
        remaining = [hint for hint in self._hints.get(target_id, ())
                     if hint.hint_id not in acknowledged]
        if remaining:
            self._hints[target_id] = remaining
        else:
            self._hints.pop(target_id, None)

    # ------------------------------------------------------------------ #
    # Metadata accounting
    # ------------------------------------------------------------------ #
    def metadata_entries(self, key: Optional[str] = None) -> int:
        """Causality-metadata entries stored for one key or for the whole node."""
        if key is not None:
            return self._mechanism.metadata_entries(self.get_state(key))
        return sum(self._mechanism.metadata_entries(state)
                   for states in self._vnodes.values()
                   for state in states.values())

    def metadata_bytes(self, key: Optional[str] = None) -> int:
        """Encoded causality-metadata bytes stored for one key or for the whole node."""
        if key is not None:
            return self._mechanism.metadata_bytes(self.get_state(key))
        return sum(self._mechanism.metadata_bytes(state)
                   for states in self._vnodes.values()
                   for state in states.values())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"NodeStorage(mechanism={self._mechanism.name!r}, keys={len(self)})"
