"""Dotted-version-vector-set causality mechanism (the Riak integration's clock).

Instead of one DVV per sibling, the whole sibling set of a key is described by
a single :class:`~repro.core.dvvset.DVVSet`: one ``(counter, recent values)``
entry per coordinating server.  Causal behaviour is identical to the per-
sibling DVV mechanism — writes racing through the same server stay concurrent,
reads-then-writes supersede exactly what was read — but the metadata is even
more compact because the causal past shared by all siblings is stored once.
This is the variant whose evaluation inside Riak the brief announcement cites
("a significant reduction in the size of metadata, and better latency").
"""

from __future__ import annotations

from typing import List

from ..core import codec
from ..core.dvvset import DVVSet
from ..core.version_vector import VersionVector
from .interface import CausalityMechanism, ReadResult, Sibling

DVVSetState = DVVSet  # values are Sibling records

#: The state of every absent key.  A DVVSet is immutable, so one instance
#: serves every read of a key this replica does not hold.
_EMPTY = DVVSet.empty()


class DVVSetMechanism(CausalityMechanism[DVVSet, VersionVector]):
    """A single dotted version vector set per key; context is a version vector."""

    name = "dvvset"
    exact = True

    # ------------------------------------------------------------------ #
    # State lifecycle
    # ------------------------------------------------------------------ #
    def empty_state(self) -> DVVSet:
        return _EMPTY

    def is_empty(self, state: DVVSet) -> bool:
        if state.anonymous:
            return False
        for _, _, values in state.entries:
            if values:
                return False
        return True

    def siblings(self, state: DVVSet) -> List[Sibling]:
        return state.values()  # a fresh list per call

    # ------------------------------------------------------------------ #
    # Client protocol
    # ------------------------------------------------------------------ #
    def empty_context(self) -> VersionVector:
        return VersionVector.empty()

    def read(self, state: DVVSet) -> ReadResult[VersionVector]:
        return ReadResult(siblings=self.siblings(state), context=state.join())

    def write(self,
              state: DVVSet,
              context: VersionVector,
              sibling: Sibling,
              server_id: str) -> DVVSet:
        incoming = DVVSet.new_with_context(context, sibling)
        return incoming.update(state, server_id)

    def merge(self, state_a: DVVSet, state_b: DVVSet) -> DVVSet:
        return state_a.sync(state_b)

    # ------------------------------------------------------------------ #
    # Metadata accounting
    # ------------------------------------------------------------------ #
    def metadata_entries(self, state: DVVSet) -> int:
        return state.entry_count()

    def metadata_bytes(self, state: DVVSet) -> int:
        # Only the causality metadata is measured: per-entry actor + counter +
        # one dot marker per live value, not the application values themselves.
        # That is ``encoded_size(state.join()) + 2 * state.size()``, counted
        # from the entries instead of building and encoding the join.
        entries = state.entries
        live = len(state.anonymous)
        for _, _, values in entries:
            live += len(values)
        return codec.vv_encoded_size(entries) + 2 * live
