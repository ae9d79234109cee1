"""Dotted-version-vector causality mechanism (the paper's proposal, Figure 1c).

Each stored sibling is tagged with a :class:`~repro.core.dvv.DottedVersionVector`
whose dot is minted by the *coordinating server* — so the metadata footprint is
bounded by the replication degree — and whose causal past is exactly the
context the writing client supplied.  Two clients racing through the same
server therefore receive clocks with distinct dots over the same causal past
(``(A,2)[1,0]`` and ``(A,3)[1,0]`` in the figure) and are correctly detected
as concurrent everywhere, while a client that read before writing supersedes
precisely the versions it read.
"""

from __future__ import annotations

from ..core.dvv import (
    DottedVersionVector,
    dot_order,
    join as dvv_join,
    merge_versions,
    update as dvv_update,
)
from ..core.version_vector import VersionVector
from .client_vv import place
from .interface import ReadResult, Sibling, SiblingList, SiblingListMechanism

DVVState = SiblingList[DottedVersionVector]


class DVVMechanism(SiblingListMechanism[DottedVersionVector, VersionVector]):
    """One dotted version vector per sibling; context is a plain version vector."""

    name = "dvv"
    exact = True

    def empty_context(self) -> VersionVector:
        return VersionVector.empty()

    def read(self, state: DVVState) -> ReadResult[VersionVector]:
        clocks = [clock for clock, _ in state]
        return ReadResult(siblings=self.siblings(state), context=dvv_join(clocks))

    def write(self,
              state: DVVState,
              context: VersionVector,
              sibling: Sibling,
              server_id: str) -> DVVState:
        """The survivors, then the one new ``(clock, sibling)`` entry last
        (which :meth:`write_delta` relies on).  A survivor is an entry whose
        dot ``context`` does not hold: one lookup per entry."""
        new_clock = dvv_update(context, [entry[0] for entry in state], server_id)
        seen = context._entries.get
        survivors = [entry for entry in state
                     if entry[0]._dot.counter > seen(entry[0]._dot.actor, 0)]
        survivors.append((new_clock, sibling))
        return tuple(survivors)

    def write_delta(self, written: DVVState) -> DVVState:
        """The new entry alone: ``update(S, ctx, r)`` is ``S ⊔ {(dot, ctx, v)}``."""
        return written[-1:]

    def merge(self, state_a: DVVState, state_b: DVVState) -> DVVState:
        return tuple(merge_versions(state_a + state_b))

    def absorb(self, stored: DVVState, incoming: DVVState) -> DVVState:
        """``merge(stored, incoming)`` in one pass when ``incoming`` is one
        entry, as a replicated write's delta is.

        ``stored`` is a merge result: sorted by dot, and no entry's dot lies
        in any entry's past.  A new dot changes it two ways only: it is
        covered if some stored past holds it, and it drops every stored
        entry whose dot its own past holds.  One pass asks both, two lookups
        per entry; the entry goes in at its bisected place unless covered.
        A dot already stored follows the merge's rule: the stored entry
        stays unless the incoming past descends it.  Any other ``incoming``
        runs ``merge``: folding several entries in one at a time is not the
        batch merge.
        """
        if len(incoming) != 1:
            return self.merge(stored, incoming)
        entry = incoming[0]
        clock = entry[0]
        order = dot_order(entry)
        at = place(stored, order, dot_order)
        if at < len(stored) and dot_order(stored[at]) == order:
            held = stored[at]
            if clock is not held[0] and not clock._vv.descends(held[0]._vv):
                return stored
            return stored if entry == held else self.merge(stored, incoming)
        actor, counter = order
        past = clock._vv._entries.get
        covered = False
        kept = []
        below = at      # where the entry goes among the kept ones
        for index, held in enumerate(stored):
            other = held[0]
            if other._vv._entries.get(actor, 0) >= counter:
                covered = True
            dot = other._dot
            if past(dot.actor, 0) >= dot.counter:
                if index < at:
                    below -= 1
            else:
                kept.append(held)
        if covered:
            return stored if len(kept) == len(stored) else tuple(kept)
        kept.insert(below, entry)
        return tuple(kept)
