"""From-scratch Merkle tree: the oracle the write-maintained index is held to.

The store keeps one hash tree per vnode range, maintained write by write
(:mod:`repro.kvstore.merkle_index`).  The tests compare it against the tree
this module builds from nothing but ``(key, fingerprint)`` pairs, at the same
fixed shape and with the same bucket placement and hash:

* :class:`MerkleTree` — the tree over a key space, built in one pass;
  :meth:`MerkleTree.for_node` builds it over one replica's stored states;
* :func:`diff_keys` — the keys whose fingerprints differ between two trees,
  descending only into differing buckets;
* :func:`live_digest` — the whole-node digest of a live index, read through
  its ``snapshot``;
* :func:`crowded_keys` — keys that share leaf buckets, for tests that need
  several keys in one bucket of a 16-way tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster import PartitionMap
from repro.core import ConfigurationError
from repro.kvstore.merkle_index import (
    DEPTH,
    FANOUT,
    _hash_bytes,
    bucket_path,
    key_fingerprint,
)


@dataclass
class MerkleNode:
    """One node of the hash tree (internal or leaf bucket)."""

    digest: bytes
    children: List["MerkleNode"] = field(default_factory=list)
    keys: List[str] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class MerkleTree:
    """A ``FANOUT`` × ``DEPTH`` Merkle tree over a key space.

    Keys are assigned to leaf buckets by hashing, so two trees built over the
    same key universe place every key in the same bucket and their digests are
    directly comparable level by level.
    """

    def __init__(self, fingerprints: Dict[str, bytes]) -> None:
        self._fingerprints = dict(fingerprints)
        self._nodes: Dict[Tuple[int, ...], MerkleNode] = {}
        self.root = self._build()

    @classmethod
    def for_node(cls, node, keys: Optional[Iterable[str]] = None) -> "MerkleTree":
        """Build the tree of one replica's current state."""
        key_list = list(keys) if keys is not None else node.storage.keys()
        return cls({key: key_fingerprint(node, key) for key in key_list})

    def _build(self) -> MerkleNode:
        buckets: Dict[Tuple[int, ...], List[str]] = {}
        for key in self._fingerprints:
            buckets.setdefault(bucket_path(key), []).append(key)

        def build_level(prefix: Tuple[int, ...], level: int) -> MerkleNode:
            if level == DEPTH:
                keys = sorted(buckets.get(prefix, []))
                material = b"".join(self._fingerprints[key] for key in keys)
                node = MerkleNode(digest=_hash_bytes(material), keys=keys)
            else:
                children = [build_level(prefix + (branch,), level + 1)
                            for branch in range(FANOUT)]
                material = b"".join(child.digest for child in children)
                node = MerkleNode(digest=_hash_bytes(material), children=children)
            self._nodes[prefix] = node
            return node

        return build_level((), 0)

    @property
    def root_digest(self) -> bytes:
        """Digest summarising the whole key space."""
        return self.root.digest

    def fingerprint(self, key: str) -> Optional[bytes]:
        """The stored fingerprint for ``key`` (None when absent)."""
        return self._fingerprints.get(key)

    def keys(self) -> List[str]:
        """Every key covered by the tree, sorted."""
        return sorted(self._fingerprints)

    def node_at(self, path: Sequence[int]) -> MerkleNode:
        """The tree node addressed by a branch path (``()`` is the root)."""
        node = self._nodes.get(tuple(path))
        if node is None:
            raise ConfigurationError(f"invalid tree path {tuple(path)!r}")
        return node

    def digest_at(self, path: Sequence[int]) -> bytes:
        """Digest of the node addressed by ``path``."""
        return self.node_at(path).digest

    def child_digests(self, path: Sequence[int]) -> List[Tuple[Tuple[int, ...], bytes]]:
        """``(child_path, digest)`` pairs for the children of ``path``'s node."""
        prefix = tuple(path)
        return [(prefix + (branch,), child.digest)
                for branch, child in enumerate(self.node_at(path).children)]

    def bucket_fingerprints(self, path: Sequence[int]) -> Dict[str, bytes]:
        """``{key: fingerprint}`` of the leaf bucket addressed by ``path``."""
        node = self.node_at(path)
        if not node.is_leaf:
            raise ConfigurationError(f"path {tuple(path)!r} is not a leaf bucket")
        return {key: self._fingerprints[key] for key in node.keys}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MerkleTree):
            return NotImplemented
        return self.root_digest == other.root_digest

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash(self.root_digest)


def diff_keys(left: MerkleTree, right: MerkleTree) -> List[str]:
    """Keys whose fingerprints differ between the two trees.

    Only descends into subtrees whose digests differ, and only compares the
    individual key fingerprints of leaf buckets that differ.
    """
    divergent: List[str] = []

    def walk(a: MerkleNode, b: MerkleNode) -> None:
        if a.digest == b.digest:
            return
        if a.is_leaf and b.is_leaf:
            for key in sorted(set(a.keys) | set(b.keys)):
                if left.fingerprint(key) != right.fingerprint(key):
                    divergent.append(key)
            return
        for child_a, child_b in zip(a.children, b.children):
            walk(child_a, child_b)

    walk(left.root, right.root)
    return divergent


def live_digest(index) -> bytes:
    """Root digest of a tree over a live index's (or index set's) keys."""
    return MerkleTree(index.snapshot()).root_digest


def rebuilt_digest(node) -> bytes:
    """Root digest of a from-scratch tree over a node's stored states."""
    return MerkleTree.for_node(node).root_digest


def crowded_keys(groups: int, per_bucket: int, partitions: int = 1) -> List[str]:
    """``groups × per_bucket`` keys ``k<i>``, grouped by the leaf bucket they
    share in a ``partitions``-range node's trees."""
    partition_map = PartitionMap(partitions)
    buckets: Dict[Tuple[int, Tuple[int, ...]], List[str]] = {}
    for i in itertools.count():
        key = f"k{i}"
        slot = (partition_map.partition_of(key), bucket_path(key))
        buckets.setdefault(slot, []).append(key)
        full = [keys[:per_bucket] for keys in buckets.values()
                if len(keys) >= per_bucket]
        if len(full) == groups:
            return [key for keys in full for key in keys]
