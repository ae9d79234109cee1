"""Per-server version vectors — the Figure 1b baseline (and its failure mode).

Distributed file systems (Locus, Coda, Ficus) and early key-value stores tag
each version with a version vector holding **one entry per replica server**.
That is enough to detect divergence between servers, but — as Section 2 of the
paper explains — it cannot identify versions written concurrently by multiple
clients through the same server: any vector the server mints for the second
write *dominates* the vector of the first (``[2,0] < [3,0]`` in the figure),
so when the two versions later meet (e.g. at server B during anti-entropy) the
genuinely concurrent sibling is silently discarded — a lost update.

``ServerVVMechanism`` reproduces that behaviour faithfully:

* at write time the coordinating server detects the conflict (the client's
  context does not descend the stored versions) and keeps both siblings, but
  the new sibling's vector already dominates the old one's;
* at merge time versions are compared by their vectors, so the falsely
  dominated sibling is dropped.

The mechanism is registered as *inexact* — the test-suite asserts that it
diverges from the causal-history oracle on exactly this scenario.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.version_vector import VersionVector, ceiling, undominated
from .client_vv import distinct_versions, version_order
from .interface import ReadResult, Sibling, SiblingList, SiblingListMechanism

ServerVVState = SiblingList[VersionVector]


class ServerVVMechanism(SiblingListMechanism[VersionVector, VersionVector]):
    """One version vector (keyed by server ids) per sibling."""

    name = "server_vv"
    exact = False

    def empty_context(self) -> VersionVector:
        return VersionVector.empty()

    def read(self, state: ServerVVState) -> ReadResult[VersionVector]:
        context = VersionVector(ceiling(clock for clock, _ in state))
        return ReadResult(siblings=self.siblings(state), context=context)

    def write(self,
              state: ServerVVState,
              context: VersionVector,
              sibling: Sibling,
              server_id: str) -> ServerVVState:
        # The server must mint a vector that is new w.r.t. everything it has
        # already stored, so it increments its own entry on top of the join of
        # the stored vectors and the client's context.  This is precisely the
        # step that makes the new vector dominate concurrent siblings.
        stored_join = ceiling([clock for clock, _ in state] + [context])
        stored_join[server_id] = stored_join.get(server_id, 0) + 1
        new_clock = VersionVector(stored_join)
        # Conflict detection at the coordinator uses the client context: any
        # stored version the client had not seen is kept as a sibling.
        survivors = tuple(
            (clock, stored) for clock, stored in state
            if not context.descends(clock)
        )
        return survivors + ((new_clock, sibling),)

    def merge(self, state_a: ServerVVState, state_b: ServerVVState) -> ServerVVState:
        # Anti-entropy has only the vectors to go by; versions whose vector is
        # dominated by another version's vector are discarded.  Because the
        # coordinator's minting step above already made concurrent siblings
        # comparable, this is where the lost update happens.
        survivors = undominated(distinct_versions(state_a + state_b))
        survivors.sort(key=version_order)
        # Two distinct versions can carry the *same* vector (e.g. replicas that
        # coordinated writes independently); keep one deterministically.
        deduped: List[Tuple[VersionVector, Sibling]] = []
        seen_clocks = set()
        for clock, sibling in survivors:
            if clock in seen_clocks:
                continue
            seen_clocks.add(clock)
            deduped.append((clock, sibling))
        return tuple(deduped)
