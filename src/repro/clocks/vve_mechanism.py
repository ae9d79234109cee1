"""WinFS-style mechanism: dots with version-vector-with-exceptions pasts (E6).

The related-work section of the paper notes that WinFS also keeps version
identifiers separate from the causal past, but records the past as a version
vector *with exceptions* so it can express non-contiguous event sets.  For the
single-object, replace-all-versions-you-read storage model of Dynamo-style
stores this extra power is unnecessary — DVVs with a single dot suffice — and
it costs extra metadata whenever exceptions accumulate.

``DottedVVEMechanism`` implements that design so the related-work check (E6,
``tests/integration/test_workload_matrix.py``) can show: causal behaviour
identical to DVV on the storage workloads, larger metadata footprint under
interleaved concurrent writes.
"""

from __future__ import annotations

from ..core import serialization
from ..core.dot import Dot
from ..core.version_vector import VersionVector
from .interface import ReadResult, Sibling, SiblingList, SiblingListMechanism
from .vve import DottedVVE, VersionVectorWithExceptions

VVEState = SiblingList[DottedVVE]


class DottedVVEMechanism(SiblingListMechanism[DottedVVE, VersionVectorWithExceptions]):
    """One dot + VVE causal past per sibling; context is a VVE."""

    name = "dotted_vve"
    exact = True

    # ------------------------------------------------------------------ #
    # Client protocol
    # ------------------------------------------------------------------ #
    def empty_context(self) -> VersionVectorWithExceptions:
        return VersionVectorWithExceptions.empty()

    def read(self, state: VVEState) -> ReadResult[VersionVectorWithExceptions]:
        context = VersionVectorWithExceptions.empty()
        for clock, _ in state:
            context = context.merge(clock.causal_past).add_dot(clock.dot)
        return ReadResult(siblings=self.siblings(state), context=context)

    def write(self,
              state: VVEState,
              context: VersionVectorWithExceptions,
              sibling: Sibling,
              server_id: str) -> VVEState:
        counter = context.base.get(server_id)
        for clock, _ in state:
            if clock.dot.actor == server_id:
                counter = max(counter, clock.dot.counter)
            counter = max(counter, clock.causal_past.base.get(server_id))
        new_clock = DottedVVE(Dot(server_id, counter + 1), context)
        survivors = tuple(
            (clock, stored) for clock, stored in state
            if not context.contains_dot(clock.dot)
        )
        return survivors + ((new_clock, sibling),)

    def merge(self, state_a: VVEState, state_b: VVEState) -> VVEState:
        by_dot = {}
        for clock, sibling in state_a + state_b:
            existing = by_dot.get(clock.dot)
            if existing is None or clock.causal_past.descends(existing[0].causal_past):
                by_dot[clock.dot] = (clock, sibling)
        entries = list(by_dot.values())
        survivors = [
            (clock, sibling) for clock, sibling in entries
            if not any(clock.happens_before(other) for other, _ in entries)
        ]
        survivors.sort(key=lambda item: item[0].dot)
        return tuple(survivors)

    # ------------------------------------------------------------------ #
    # Metadata accounting
    # ------------------------------------------------------------------ #
    def metadata_entries(self, state: VVEState) -> int:
        return sum(clock.entry_count() for clock, _ in state)

    def metadata_bytes(self, state: VVEState) -> int:
        return sum(self._clock_bytes(clock) for clock, _ in state)

    def context_bytes(self, context: VersionVectorWithExceptions) -> int:
        return self._vve_bytes(context)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _vve_bytes(vve: VersionVectorWithExceptions) -> int:
        base_bytes = serialization.encoded_size(vve.base)
        exception_bytes = sum(
            len(serialization.encode(VersionVector({exc.actor: exc.counter})))
            for exc in vve.exceptions
        )
        return base_bytes + exception_bytes

    @classmethod
    def _clock_bytes(cls, clock: DottedVVE) -> int:
        dot_bytes = len(serialization.encode(VersionVector({clock.dot.actor: clock.dot.counter})))
        return dot_bytes + cls._vve_bytes(clock.causal_past)
