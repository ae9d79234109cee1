"""Consistent-hashing ring with virtual nodes (Dynamo/Riak style key placement).

The replicated store places each key on ``N`` distinct physical nodes chosen
by walking a consistent-hashing ring clockwise from the key's hash.  Virtual
nodes (multiple ring positions per physical node) smooth the load.  This is
the same placement scheme the paper's host system (Riak) uses, so the set of
replica servers that coordinate writes for a key — the actor space of the
dotted version vectors — is realistic: small, stable, and independent of the
number of clients.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.exceptions import ConfigurationError


@functools.lru_cache(maxsize=65536)
def _hash_position(token: str) -> int:
    """Map a token to a position on the 128-bit ring (memoised: a request
    asks for its key's position a dozen times, membership never changes it)."""
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest(), "big")


#: Ring-space width: positions are 128-bit md5 values.
RING_BITS = 128

#: How many fixed partitions every cluster's key space is divided into.
#: Riak fixes its ring-partition count (a power of two) at cluster creation;
#: 16 keeps per-vnode structures small while still giving range-local
#: handoff and anti-entropy something to exploit.
PARTITION_COUNT = 16


class PartitionMap:
    """Fixed division of the hash ring into contiguous key ranges (partitions).

    Each partition is one arc of the 128-bit ring; a key belongs to the
    partition its ring position falls in.  This is the range ↔ vnode mapping
    of the Dynamo/Riak storage layout: every node materialises one vnode
    store (plus one Merkle tree) per partition it holds keys for, so handoff
    can move a whole range and anti-entropy can compare a single range.  The
    partition count is a cluster-wide constant — every node must agree on it
    for per-range digests to be comparable.  A map built without a count
    takes :data:`PARTITION_COUNT`, read at call time so a test can patch it.
    """

    def __init__(self, partition_count: Optional[int] = None) -> None:
        if partition_count is None:
            partition_count = PARTITION_COUNT
        if partition_count < 1:
            raise ConfigurationError(
                f"partition_count must be >= 1, got {partition_count}"
            )
        self.partition_count = partition_count

    def partition_ids(self) -> range:
        """Every partition id, in range order."""
        return range(self.partition_count)

    def partition_of_position(self, position: int) -> int:
        """The partition owning a ring position (equal-width arcs)."""
        return (position * self.partition_count) >> RING_BITS

    def partition_of(self, key: str) -> int:
        """The partition a key's ring position falls in.

        Uses the same ``key:`` token as :meth:`ConsistentHashRing.key_position`
        so a partition really is a contiguous arc of the placement ring.
        """
        return self.partition_of_position(_hash_position(f"key:{key}"))

    def partition_range(self, partition_id: int) -> Tuple[int, int]:
        """Half-open ``[start, end)`` ring-position range of one partition."""
        if not 0 <= partition_id < self.partition_count:
            raise ConfigurationError(f"unknown partition {partition_id!r}")
        span = 1 << RING_BITS
        start = -(-partition_id * span // self.partition_count)
        end = -(-(partition_id + 1) * span // self.partition_count)
        return start, min(end, span)

    def __len__(self) -> int:
        return self.partition_count

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"PartitionMap(partition_count={self.partition_count})"


class ConsistentHashRing:
    """A consistent-hashing ring over a set of physical nodes.

    Parameters
    ----------
    nodes:
        Initial physical node identifiers.
    virtual_nodes:
        Number of ring positions per physical node.  More virtual nodes give a
        smoother key distribution at the cost of a larger ring index.
    """

    def __init__(self, nodes: Iterable[str] = (), virtual_nodes: int = 64) -> None:
        if virtual_nodes < 1:
            raise ConfigurationError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.virtual_nodes = virtual_nodes
        self._positions: List[int] = []
        self._position_to_node: Dict[int, str] = {}
        self._nodes: Dict[str, List[int]] = {}
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------ #
    # Membership of the ring
    # ------------------------------------------------------------------ #
    def add_node(self, node_id: str) -> None:
        """Add a physical node (and all of its virtual positions) to the ring."""
        if not node_id:
            raise ConfigurationError("node id must be a non-empty string")
        if node_id in self._nodes:
            raise ConfigurationError(f"node {node_id!r} is already on the ring")
        positions = []
        for replica_index in range(self.virtual_nodes):
            position = _hash_position(f"{node_id}#{replica_index}")
            # Hash collisions across tokens are astronomically unlikely but
            # would silently shadow a node; fail loudly instead.
            if position in self._position_to_node:
                raise ConfigurationError(f"hash collision for node {node_id!r}")
            bisect.insort(self._positions, position)
            self._position_to_node[position] = node_id
            positions.append(position)
        self._nodes[node_id] = positions

    def remove_node(self, node_id: str) -> None:
        """Remove a physical node and all of its virtual positions."""
        positions = self._nodes.pop(node_id, None)
        if positions is None:
            return
        for position in positions:
            index = bisect.bisect_left(self._positions, position)
            if index < len(self._positions) and self._positions[index] == position:
                self._positions.pop(index)
            self._position_to_node.pop(position, None)

    def nodes(self) -> List[str]:
        """Physical nodes currently on the ring, sorted."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    # ------------------------------------------------------------------ #
    # Key placement
    # ------------------------------------------------------------------ #
    def key_position(self, key: str) -> int:
        """Ring position of a key."""
        return _hash_position(f"key:{key}")

    def primary(self, key: str) -> str:
        """The physical node owning the key's primary replica."""
        owners = self.preference_list(key, 1)
        if not owners:
            raise ConfigurationError("ring has no nodes")
        return owners[0]

    def preference_list(self, key: str, count: int) -> List[str]:
        """The first ``count`` *distinct* physical nodes clockwise from the key.

        This is the Dynamo preference list: the key's N replica homes, in
        priority order.  When the ring has fewer than ``count`` physical nodes
        the whole ring is returned.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if not self._positions:
            return []
        result: List[str] = []
        start = bisect.bisect_right(self._positions, self.key_position(key))
        total_positions = len(self._positions)
        for offset in range(total_positions):
            position = self._positions[(start + offset) % total_positions]
            node = self._position_to_node[position]
            if node not in result:
                result.append(node)
                if len(result) == count or len(result) == len(self._nodes):
                    break
        return result

    def preference_list_spread(self, key: str, count: int,
                               group_of: "Callable[[str], str]") -> List[str]:
        """Like :meth:`preference_list`, but spread across node groups.

        Walks the ring clockwise from the key twice: the first pass picks at
        most one node per *group* (datacenter), the second fills the
        remaining slots in plain ring order.  With ``count`` at least the
        number of groups, every group contributes a replica — the Dynamo
        multi-DC placement rule that lets a whole-DC outage leave local
        copies everywhere else.  When all nodes share one group the result
        degenerates to :meth:`preference_list` exactly.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if not self._positions:
            return []
        walk: List[str] = []
        start = bisect.bisect_right(self._positions, self.key_position(key))
        total_positions = len(self._positions)
        for offset in range(total_positions):
            position = self._positions[(start + offset) % total_positions]
            node = self._position_to_node[position]
            if node not in walk:
                walk.append(node)
                if len(walk) == len(self._nodes):
                    break
        result: List[str] = []
        seen_groups = set()
        for node in walk:
            group = group_of(node)
            if group in seen_groups:
                continue
            seen_groups.add(group)
            result.append(node)
            if len(result) == count:
                return result
        for node in walk:
            if node in result:
                continue
            result.append(node)
            if len(result) == count:
                break
        return result

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ConsistentHashRing(nodes={len(self._nodes)}, vnodes={self.virtual_nodes})"


@dataclass
class RebalanceMove:
    """Replica-set change for one key when the ring membership changes."""

    key: str
    owners_before: List[str] = field(default_factory=list)
    owners_after: List[str] = field(default_factory=list)

    @property
    def gained(self) -> List[str]:
        """Nodes that become replicas of the key and need its state pushed."""
        return [node for node in self.owners_after if node not in self.owners_before]

    @property
    def lost(self) -> List[str]:
        """Nodes that stop being replicas of the key."""
        return [node for node in self.owners_before if node not in self.owners_after]


def rebalance_plan(before: ConsistentHashRing,
                   after: ConsistentHashRing,
                   keys: Iterable[str],
                   replication: int) -> List[RebalanceMove]:
    """The key movements implied by a ring change (join / decommission).

    Compares each key's N-node preference list on the two rings and returns a
    move for every key whose replica *set* changed.  The lists are priority
    orders, so a ring change can permute them without changing membership —
    e.g. a joining node's virtual positions reordering the clockwise walk for
    a key whose replicas all stay put.  Such keys need no data movement
    (``gained`` and ``lost`` would both be empty), and emitting moves for
    them would make the handoff machinery ship states to nodes that already
    hold them; they are skipped here.  The caller pushes each returned key's
    state to the ``gained`` nodes; ``lost`` nodes may drop or retain their
    copy depending on policy.
    """
    if replication < 1:
        raise ConfigurationError(f"replication must be >= 1, got {replication}")
    moves: List[RebalanceMove] = []
    for key in sorted(set(keys)):
        owners_before = before.preference_list(key, replication)
        owners_after = after.preference_list(key, replication)
        if set(owners_before) != set(owners_after):
            moves.append(RebalanceMove(key, owners_before, owners_after))
    return moves
