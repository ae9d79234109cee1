"""Version-vector pruning: what the paper calls unsafe, quantified.

Per-client version vectors grow with the number of distinct writers, so
production systems bound them by discarding entries — Riak's historical
``small_vclock`` / ``big_vclock`` / ``young_vclock`` / ``old_vclock`` settings
are exactly this.  The paper's point (Section 2) is that such optimistic
pruning is **unsafe**: dropping an entry changes the denoted causal history,
which can make a newer version appear concurrent with (or dominated by) an
older one, yielding *false concurrency* and *lost updates*.  Golding's
safe alternative requires global knowledge of what every replica has seen,
which an open set of clients cannot provide.

This module provides:

* :class:`PruningPolicy` implementations — size-bounded (Riak-style) and
  oldest-entry policies, plus :class:`GoldingSafePruning`, which only drops
  entries provably included everywhere (and therefore needs the global
  knowledge the paper mentions);
* :class:`PrunedClientVVMechanism`, the per-client VV mechanism wrapped with a
  policy, used by experiment E3 to measure lost updates and false concurrency
  as a function of the pruning threshold.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.version_vector import VersionVector
from .client_vv import ClientVVMechanism, ClientVVState
from .interface import ReadResult, Sibling


class PruningPolicy(abc.ABC):
    """Strategy deciding which version-vector entries to discard."""

    #: Human-readable policy name, used in benchmark reports.
    name: str = "abstract"

    @abc.abstractmethod
    def prune(self, vector: VersionVector) -> VersionVector:
        """Return the (possibly smaller) vector that will actually be stored."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__}>"


class NoPruning(PruningPolicy):
    """Identity policy — keeps the exact vector (the safe but unbounded option)."""

    name = "none"

    def prune(self, vector: VersionVector) -> VersionVector:
        return vector


class SizeBoundedPruning(PruningPolicy):
    """Keep at most ``max_entries`` entries, discarding the smallest counters first.

    Discarding the entries with the smallest counters mimics Riak's heuristic
    of dropping the entries least likely to matter (the "oldest" writers); the
    point of experiment E3 is that "least likely" is not "never", and the
    damage is measurable.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.name = f"size<={max_entries}"
        self.pruned_entries = 0

    def prune(self, vector: VersionVector) -> VersionVector:
        if len(vector) <= self.max_entries:
            return vector
        # Keep the entries with the largest counters (ties broken by actor id
        # so the result is deterministic).
        ranked = sorted(vector.entries().items(), key=lambda item: (-item[1], item[0]))
        kept = dict(ranked[: self.max_entries])
        self.pruned_entries += len(vector) - len(kept)
        return VersionVector(kept)


class DropOldestWriters(PruningPolicy):
    """Drop the entries of the ``drop_count`` actors with the smallest counters.

    A more aggressive policy used to stress the failure mode: the number of
    *dropped* entries (rather than the number kept) is fixed per prune.
    """

    def __init__(self, drop_count: int) -> None:
        if drop_count < 1:
            raise ValueError(f"drop_count must be >= 1, got {drop_count}")
        self.drop_count = drop_count
        self.name = f"drop_oldest({drop_count})"

    def prune(self, vector: VersionVector) -> VersionVector:
        if len(vector) <= self.drop_count:
            return vector
        ranked = sorted(vector.entries().items(), key=lambda item: (item[1], item[0]))
        to_drop = {actor for actor, _ in ranked[: self.drop_count]}
        return vector.without(to_drop)


class GoldingSafePruning(PruningPolicy):
    """Safe pruning à la Golding: only drop entries everyone is known to have seen.

    The policy is fed a *global knowledge* vector (the pointwise minimum of
    what every replica has acknowledged).  Entries at or below that floor are
    part of every replica's causal past, so removing them cannot change any
    comparison.  Maintaining the floor requires coordination with *all*
    replicas — exactly the global knowledge the paper says open client sets
    cannot provide, which is why this policy only helps when the actor space
    is the (small, known) set of servers.
    """

    name = "golding_safe"

    def __init__(self, global_floor: Optional[VersionVector] = None) -> None:
        self.global_floor = global_floor or VersionVector.empty()

    def observe_replica_knowledge(self, vectors: Iterable[VersionVector]) -> None:
        """Recompute the floor as the pointwise minimum over all replicas' knowledge."""
        vectors = list(vectors)
        if not vectors:
            self.global_floor = VersionVector.empty()
            return
        actors = set()
        for vector in vectors:
            actors |= vector.actors()
        floor: Dict[str, int] = {}
        for actor in actors:
            floor[actor] = min(vector.get(actor) for vector in vectors)
        self.global_floor = VersionVector(floor)

    def prune(self, vector: VersionVector) -> VersionVector:
        survivors = {
            actor: counter
            for actor, counter in vector.entries().items()
            if counter > self.global_floor.get(actor)
        }
        return VersionVector(survivors)


class PrunedClientVVMechanism(ClientVVMechanism):
    """Per-client version vectors with a pruning policy applied after every write.

    The causal damage (lost updates, false concurrency) is *not* simulated
    here — it emerges naturally from replaying workloads, because pruned
    vectors simply compare differently; the analysis layer observes the
    consequences against the ground truth.
    """

    exact = False

    def __init__(self, policy: PruningPolicy) -> None:
        self.policy = policy
        self.name = f"client_vv[{policy.name}]"

    def write(self,
              state: ClientVVState,
              context: VersionVector,
              sibling: Sibling,
              server_id: str) -> ClientVVState:
        new_state = super().write(state, context, sibling, server_id)
        pruned: List[Tuple[VersionVector, Sibling]] = []
        for clock, stored in new_state:
            pruned.append((self.policy.prune(clock), stored))
        return tuple(pruned)
