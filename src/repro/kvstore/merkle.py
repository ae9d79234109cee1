"""Merkle trees for anti-entropy (Riak/Dynamo "hashtree exchange").

Exchanging the full state of every key on every anti-entropy round is simple
but wasteful: most keys agree most of the time.  Production systems —
including the Riak deployment the paper's evaluation modified — summarise each
replica's key space in a Merkle tree and exchange only the hashes, descending
into subtrees whose hashes differ and finally transferring only the keys that
actually diverge.

This module holds the shared hashing primitives (key fingerprints and bucket
placement) that the write-maintained index
(:mod:`repro.kvstore.merkle_index`) and the exchange
(:mod:`repro.kvstore.protocol.anti_entropy`) run on, plus two from-scratch
reference implementations that tests compare them against:

* :class:`MerkleTree` — a fixed-fanout hash tree over a key space, built from
  ``(key, fingerprint)`` pairs.  Fingerprints are derived from the ground-truth
  sibling identities (origin dots), so the tree is mechanism-independent and
  two replicas agree on a key's fingerprint exactly when they store the same
  sibling set.
* :func:`diff_keys` — the keys whose fingerprints differ between two trees
  (descending only into differing buckets).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core import codec
from ..core.exceptions import ConfigurationError

if TYPE_CHECKING:
    from .server import StorageNode


def _hash_bytes(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def state_fingerprint(mechanism, state) -> bytes:
    """Fingerprint of one mechanism state's sibling set.

    Built from the sorted ground-truth origin dots of the live siblings, so
    two replicas have equal fingerprints iff they store the same versions —
    regardless of which causality mechanism produced them.  This is the unit
    of work the incremental index (:mod:`repro.kvstore.merkle_index`) pays
    once per mutated key per flush instead of once per key per tree rebuild.

    The digest is memoized per sorted dot tuple (in :mod:`repro.core.codec`),
    so a merge, handoff or replayed hint that reproduces an already-seen
    sibling set hashes nothing.
    """
    dots = tuple(sorted(s.origin_dot for s in mechanism.siblings(state)))
    return codec.sibling_set_fingerprint(dots)


def state_fingerprint_cold(mechanism, state) -> bytes:
    """Uncached recompute of :func:`state_fingerprint` (audits and tests)."""
    dots = tuple(sorted(s.origin_dot for s in mechanism.siblings(state)))
    return _hash_bytes(codec.sibling_set_material(dots))


def key_fingerprint(node: StorageNode, key: str) -> bytes:
    """Fingerprint of a key's sibling set at one replica."""
    return state_fingerprint(node.mechanism, node.storage.get_state(key))


def bucket_path(key: str, fanout: int, depth: int) -> Tuple[int, ...]:
    """The leaf-bucket path a key hashes to in a (fanout, depth) tree.

    Shared by :class:`MerkleTree` and the incremental
    :class:`~repro.kvstore.merkle_index.MerkleIndex` so a write-maintained
    index and a from-scratch rebuild place every key in the same bucket and
    produce byte-identical digests.
    """
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return tuple(digest[level] % fanout for level in range(depth))


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
    """A fixed-depth, fixed-fanout Merkle tree over a key space.

    Keys are assigned to leaf buckets by hashing, so two trees built over the
    same key universe place every key in the same bucket and their digests are
    directly comparable level by level.
    """

    def __init__(self,
                 fingerprints: Dict[str, bytes],
                 fanout: int = 16,
                 depth: int = 2) -> None:
        if fanout < 2:
            raise ConfigurationError(f"fanout must be >= 2, got {fanout}")
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        self.fanout = fanout
        self.depth = depth
        self._fingerprints = dict(fingerprints)
        self.root = self._build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def for_node(cls, node: StorageNode, keys: Optional[Iterable[str]] = None,
                 fanout: int = 16, depth: int = 2) -> "MerkleTree":
        """Build the tree of one replica's current state."""
        key_list = list(keys) if keys is not None else node.storage.keys()
        fingerprints = {key: key_fingerprint(node, key) for key in key_list}
        return cls(fingerprints, fanout=fanout, depth=depth)

    def _bucket_path(self, key: str) -> Tuple[int, ...]:
        return bucket_path(key, self.fanout, self.depth)

    def _build(self) -> MerkleNode:
        buckets: Dict[Tuple[int, ...], List[str]] = {}
        for key in self._fingerprints:
            buckets.setdefault(self._bucket_path(key), []).append(key)

        def build_level(prefix: Tuple[int, ...], level: int) -> MerkleNode:
            if level == self.depth:
                keys = sorted(buckets.get(prefix, []))
                material = b"".join(self._fingerprints[key] for key in keys)
                return MerkleNode(digest=_hash_bytes(material), keys=keys)
            children = [build_level(prefix + (branch,), level + 1)
                        for branch in range(self.fanout)]
            material = b"".join(child.digest for child in children)
            return MerkleNode(digest=_hash_bytes(material), children=children)

        return build_level((), 0)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def root_digest(self) -> bytes:
        """Digest summarising the whole replica state."""
        return self.root.digest

    def fingerprint(self, key: str) -> Optional[bytes]:
        """The stored fingerprint for ``key`` (None when absent)."""
        return self._fingerprints.get(key)

    def keys(self) -> List[str]:
        """Every key covered by the tree, sorted."""
        return sorted(self._fingerprints)

    def node_at(self, path: Sequence[int]) -> MerkleNode:
        """The tree node addressed by a branch path (``()`` is the root)."""
        node = self.root
        for branch in path:
            if node.is_leaf or not 0 <= branch < len(node.children):
                raise ConfigurationError(f"invalid tree path {tuple(path)!r}")
            node = node.children[branch]
        return node

    def digest_at(self, path: Sequence[int]) -> bytes:
        """Digest of the node addressed by ``path``."""
        return self.node_at(path).digest

    def child_digests(self, path: Sequence[int]) -> List[Tuple[Tuple[int, ...], bytes]]:
        """``(child_path, digest)`` pairs for the children of ``path``'s node.

        This is one "level" of the hashtree exchange: a replica ships these
        pairs to its peer, which compares them against its own tree and asks
        for the children of the ones that differ.
        """
        node = self.node_at(path)
        prefix = tuple(path)
        return [(prefix + (branch,), child.digest)
                for branch, child in enumerate(node.children)]

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
    individual key fingerprints of leaf buckets that differ — the property
    that makes hashtree exchange cheap when replicas mostly agree.
    """
    if left.fanout != right.fanout or left.depth != right.depth:
        raise ConfigurationError("cannot diff Merkle trees with different shapes")
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
