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

:class:`PrunedClientVVMechanism` is the per-client VV mechanism with Riak's
size bound applied after every write, used by experiment E3 to measure lost
updates and false concurrency as a function of the bound.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.version_vector import VersionVector
from .client_vv import ClientVVMechanism, ClientVVState
from .interface import CausalityMechanism, Sibling


class PrunedClientVVMechanism(ClientVVMechanism):
    """Per-client version vectors cut to at most ``max_entries`` entries after
    every write, discarding the smallest counters first.

    Discarding the entries with the smallest counters mimics Riak's heuristic
    of dropping the entries least likely to matter (the "oldest" writers); the
    point of experiment E3 is that "least likely" is not "never", and the
    damage is measurable.  The causal damage (lost updates, false
    concurrency) is *not* simulated here — it emerges naturally from replaying
    workloads, because pruned vectors simply compare differently; the
    analysis layer observes the consequences against the ground truth.
    """

    exact = False

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.name = f"client_vv[size<={max_entries}]"
        #: Entries discarded so far, over every vector this instance pruned.
        self.pruned_entries = 0

    def prune(self, vector: VersionVector) -> VersionVector:
        """Return the vector that will actually be stored: ``vector`` itself
        when it fits, else its ``max_entries`` largest counters."""
        if len(vector) <= self.max_entries:
            return vector
        # Keep the entries with the largest counters (ties broken by actor id
        # so the result is deterministic).
        ranked = sorted(vector.entries().items(), key=lambda item: (-item[1], item[0]))
        kept = dict(ranked[: self.max_entries])
        self.pruned_entries += len(vector) - len(kept)
        return VersionVector(kept)

    def write(self,
              state: ClientVVState,
              context: VersionVector,
              sibling: Sibling,
              server_id: str) -> ClientVVState:
        new_state = super().write(state, context, sibling, server_id)
        pruned: List[Tuple[VersionVector, Sibling]] = []
        for clock, stored in new_state:
            pruned.append((self.prune(clock), stored))
        return tuple(pruned)

    #: A pruned write rewrites every stored clock, not only the new one, so
    #: its delta is the whole new state (the interface's default).
    write_delta = CausalityMechanism.write_delta
