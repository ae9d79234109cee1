"""Per-node versioned storage, laid out per partition (vnode).

Storage layout
--------------
A node's disk is divided into **vnode stores**, one per partition of the
cluster's :class:`~repro.cluster.ring.PartitionMap` — the Riak layout the
paper's evaluation ran on, where each partition owns its keys (and its own
hashtree, see :mod:`repro.kvstore.merkle_index`).  :class:`NodeStorage` is
the thin **vnode manager** in front of them: it routes every key to its
partition's :class:`VnodeStore` while preserving the flat key → state API
callers that don't care about ranges have always used.  Constructed without
a partition map (the synchronous store, unit tests) it degenerates to a
single vnode holding everything.

Each :class:`VnodeStore` keeps, per key, the mechanism-specific state
describing the key's live sibling versions.  The backend is a plain
dictionary — a stand-in for one partition's slice of the node's disk:
anything kept here survives a process restart, and is lost only when that
slice is wiped (:meth:`NodeStorage.wipe_vnode` for one partition,
replacing the :class:`NodeStorage` wholesale for the whole disk).  Besides
get/put of states the manager can report, per key and in aggregate, how many
metadata entries and encoded bytes the causality mechanism is holding
(experiment E2's storage-footprint series).

Mutation listeners are per vnode: each receives ``(key, state,
fingerprint)`` for every mutation inside one partition — the node's range
index (:class:`~repro.kvstore.merkle_index.VnodeIndexSet`) subscribes one per
range.  The ``fingerprint`` is an optional *maintained digest* riding along
with the write (vnode handoff ships them), letting the range index adopt it
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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..clocks.interface import CausalityMechanism
from ..cluster.ring import PartitionMap

#: A per-vnode mutation listener: called with ``(key, state, fingerprint)``
#: after every state change inside one partition, where ``state`` is the new
#: mechanism state or ``None`` when the key was dropped, so every write path
#: — client puts, replica merges, read repair, hint replay, handoff
#: ingestion — keeps the range's hash tree current.  ``fingerprint`` is the
#: maintained state fingerprint supplied by the writer (vnode handoff ships
#: digests alongside states) or ``None`` when the receiver must hash the
#: state itself.
VnodeListener = Callable[[str, Any, Optional[bytes]], None]


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


@dataclass
class VnodeStore:
    """One partition's slice of a node's disk: its key → state map."""

    partition_id: int
    states: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.states)


class NodeStorage:
    """The vnode manager: per-partition stores behind the flat key/state API.

    With a :class:`~repro.cluster.ring.PartitionMap` every key is routed to
    its partition's :class:`VnodeStore`; without one, a single vnode
    (partition 0) holds the whole key space and the manager behaves exactly
    like the flat storage it replaced.  Durable hints are node-level — they
    are obligations *to other nodes*, keyed by replay target — but share the
    fate of the vnode their key lives in.
    """

    def __init__(self,
                 mechanism: CausalityMechanism,
                 partition_map: Optional[PartitionMap] = None) -> None:
        self._mechanism = mechanism
        self._partition_map = partition_map
        self._vnodes: Dict[int, VnodeStore] = {}
        self._hints: Dict[str, List[Hint]] = {}
        self._hint_ids = itertools.count(1)
        self._vnode_listeners: Dict[int, List[VnodeListener]] = {}

    # ------------------------------------------------------------------ #
    # Partition routing
    # ------------------------------------------------------------------ #
    @property
    def partition_map(self) -> Optional[PartitionMap]:
        """The range ↔ vnode mapping (None: single-vnode layout)."""
        return self._partition_map

    @property
    def partition_count(self) -> int:
        """How many vnode stores this node's key space is divided into."""
        return self._partition_map.partition_count if self._partition_map else 1

    def partition_of(self, key: str) -> int:
        """The partition (vnode) a key belongs to."""
        return self._partition_map.partition_of(key) if self._partition_map else 0

    def vnode_ids(self) -> range:
        """Every partition id of this node's layout, in range order."""
        return range(self.partition_count)

    def vnode_keys(self, partition_id: int) -> List[str]:
        """The keys held by one vnode, sorted."""
        vnode = self._vnodes.get(partition_id)
        return sorted(vnode.states) if vnode is not None else []

    def vnode_items(self, partition_id: int) -> List[Tuple[str, Any]]:
        """``(key, state)`` pairs held by one vnode, in key order."""
        vnode = self._vnodes.get(partition_id)
        if vnode is None:
            return []
        return [(key, vnode.states[key]) for key in sorted(vnode.states)]

    def vnode_len(self, partition_id: int) -> int:
        """Number of keys held by one vnode."""
        vnode = self._vnodes.get(partition_id)
        return len(vnode) if vnode is not None else 0

    def wipe_vnode(self, partition_id: int) -> int:
        """Lose one partition's slice of the disk; returns keys dropped.

        The vnode's key states are removed (listeners see each drop, so the
        node's index empties that range), and hints whose key lived in the
        partition are lost with it — they were stored in the same slice.
        Other vnodes are untouched.
        """
        vnode = self._vnodes.pop(partition_id, None)
        dropped = sorted(vnode.states) if vnode is not None else []
        if vnode is not None:
            vnode.states.clear()
        for key in dropped:
            self._notify(partition_id, key, None)
        for target_id in list(self._hints):
            kept = [hint for hint in self._hints[target_id]
                    if self.partition_of(hint.key) != partition_id]
            if kept:
                self._hints[target_id] = kept
            else:
                self._hints.pop(target_id)
        return len(dropped)

    # ------------------------------------------------------------------ #
    # Mutation listeners
    # ------------------------------------------------------------------ #
    def subscribe_vnode(self, partition_id: int, listener: VnodeListener) -> None:
        """Register a per-vnode callback for one partition's mutations.

        The listener receives ``(key, state, fingerprint)``; ``fingerprint``
        is the writer-supplied maintained digest or ``None``.  Listeners
        belong to the process, not the disk: a replaced storage starts with
        none.
        """
        listeners = self._vnode_listeners.setdefault(partition_id, [])
        if listener not in listeners:
            listeners.append(listener)

    def _notify(self, partition_id: int, key: str, state: Any,
                fingerprint: Optional[bytes] = None) -> None:
        for listener in self._vnode_listeners.get(partition_id, ()):
            listener(key, state, fingerprint)

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def mechanism(self) -> CausalityMechanism:
        """The causality mechanism whose states this node stores."""
        return self._mechanism

    def get_state(self, key: str) -> Any:
        """The stored state for ``key`` (the mechanism's empty state when absent)."""
        vnode = self._vnodes.get(self.partition_of(key))
        if vnode is not None and key in vnode.states:
            return vnode.states[key]
        return self._mechanism.empty_state()

    def put_state(self, key: str, state: Any,
                  fingerprint: Optional[bytes] = None) -> None:
        """Replace the stored state for ``key`` (dropping it when empty).

        ``fingerprint`` optionally passes the state's maintained Merkle
        fingerprint through to per-vnode listeners — vnode handoff uses this
        so the receiving range index adopts the sender's digest instead of
        re-hashing the state.
        """
        partition_id = self.partition_of(key)
        if self._mechanism.is_empty(state):
            vnode = self._vnodes.get(partition_id)
            if vnode is not None:
                vnode.states.pop(key, None)
                if not vnode.states:
                    self._vnodes.pop(partition_id)
            self._notify(partition_id, key, None)
        else:
            vnode = self._vnodes.get(partition_id)
            if vnode is None:
                vnode = self._vnodes[partition_id] = VnodeStore(partition_id)
            vnode.states[key] = state
            self._notify(partition_id, key, state, fingerprint)

    def delete(self, key: str) -> None:
        """Remove a key entirely."""
        partition_id = self.partition_of(key)
        vnode = self._vnodes.get(partition_id)
        if vnode is not None:
            vnode.states.pop(key, None)
            if not vnode.states:
                self._vnodes.pop(partition_id)
        self._notify(partition_id, key, None)

    def has_key(self, key: str) -> bool:
        """True iff the node holds live versions for ``key``."""
        vnode = self._vnodes.get(self.partition_of(key))
        return vnode is not None and key in vnode.states

    def keys(self) -> List[str]:
        """All keys with live versions across every vnode, sorted."""
        return sorted(key for vnode in self._vnodes.values()
                      for key in vnode.states)

    def items(self) -> Iterator[Tuple[str, Any]]:
        """Iterate ``(key, state)`` pairs across every vnode, in key order."""
        merged: Dict[str, Any] = {}
        for vnode in self._vnodes.values():
            merged.update(vnode.states)
        for key in sorted(merged):
            yield key, merged[key]

    def __len__(self) -> int:
        return sum(len(vnode) for vnode in self._vnodes.values())

    def __contains__(self, key: str) -> bool:
        return self.has_key(key)

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
    def sibling_count(self, key: str) -> int:
        """Number of live sibling versions stored for ``key``."""
        return len(self._mechanism.siblings(self.get_state(key)))

    def metadata_entries(self, key: Optional[str] = None) -> int:
        """Causality-metadata entries stored for one key or for the whole node."""
        if key is not None:
            return self._mechanism.metadata_entries(self.get_state(key))
        return sum(self._mechanism.metadata_entries(state)
                   for vnode in self._vnodes.values()
                   for state in vnode.states.values())

    def metadata_bytes(self, key: Optional[str] = None) -> int:
        """Encoded causality-metadata bytes stored for one key or for the whole node."""
        if key is not None:
            return self._mechanism.metadata_bytes(self.get_state(key))
        return sum(self._mechanism.metadata_bytes(state)
                   for vnode in self._vnodes.values()
                   for state in vnode.states.values())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"NodeStorage(mechanism={self._mechanism.name!r}, "
                f"keys={len(self)}, vnodes={len(self._vnodes)})")


#: The class doubles as the vnode manager the per-partition layout is driven
#: through; both names refer to the same type.
VnodeManager = NodeStorage
