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

from typing import List, Tuple

from ..core import serialization
from ..core.dvv import (
    DottedVersionVector,
    join as dvv_join,
    merge_versions,
    update as dvv_update,
)
from ..core.version_vector import VersionVector
from .interface import CausalityMechanism, ReadResult, Sibling

DVVState = Tuple[Tuple[DottedVersionVector, Sibling], ...]


class DVVMechanism(CausalityMechanism[DVVState, VersionVector]):
    """One dotted version vector per sibling; context is a plain version vector."""

    name = "dvv"
    exact = True

    # ------------------------------------------------------------------ #
    # State lifecycle
    # ------------------------------------------------------------------ #
    def empty_state(self) -> DVVState:
        return ()

    def is_empty(self, state: DVVState) -> bool:
        return not state

    def siblings(self, state: DVVState) -> List[Sibling]:
        return [sibling for _, sibling in state]

    # ------------------------------------------------------------------ #
    # Client protocol
    # ------------------------------------------------------------------ #
    def empty_context(self) -> VersionVector:
        return VersionVector.empty()

    def read(self, state: DVVState) -> ReadResult[VersionVector]:
        clocks = [clock for clock, _ in state]
        return ReadResult(siblings=self.siblings(state), context=dvv_join(clocks))

    def write(self,
              state: DVVState,
              context: VersionVector,
              sibling: Sibling,
              server_id: str,
              client_id: str) -> DVVState:
        clocks = [clock for clock, _ in state]
        new_clock = dvv_update(context, clocks, server_id)
        survivors = tuple(
            (clock, stored) for clock, stored in state
            if not context.contains_dot(clock.dot)
        )
        return survivors + ((new_clock, sibling),)

    def merge(self, state_a: DVVState, state_b: DVVState) -> DVVState:
        return tuple(merge_versions(state_a + state_b))

    # ------------------------------------------------------------------ #
    # Metadata accounting
    # ------------------------------------------------------------------ #
    def metadata_entries(self, state: DVVState) -> int:
        return sum(serialization.entry_count(clock) for clock, _ in state)

    def metadata_bytes(self, state: DVVState) -> int:
        return sum(serialization.encoded_size(clock) for clock, _ in state)

    def context_entries(self, context: VersionVector) -> int:
        return len(context)

    def context_bytes(self, context: VersionVector) -> int:
        return serialization.encoded_size(context)
