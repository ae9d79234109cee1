"""Explicit causal histories as a storage mechanism — the Figure 1a oracle.

Tagging every stored version with its full causal history is exact by
construction (set inclusion *is* the happens-before relation) but the sets
grow linearly with the total number of writes ever applied to the key, which
is why no practical system ships it.  In this library the mechanism serves
two purposes:

* it is the ground-truth mechanism the analysis layer compares every other
  mechanism against (its decisions can never be wrong);
* it is the "upper bound" curve in the metadata-size experiment (E2), showing
  what exactness costs without the DVV encoding.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.causal_history import CausalHistory
from .interface import ReadResult, Sibling, SiblingList, SiblingListMechanism

HistoryState = SiblingList[CausalHistory]


class CausalHistoryMechanism(SiblingListMechanism[CausalHistory, CausalHistory]):
    """One explicit causal history per sibling; context is a causal history."""

    name = "causal_history"
    exact = True

    def empty_context(self) -> CausalHistory:
        return CausalHistory.empty()

    def read(self, state: HistoryState) -> ReadResult[CausalHistory]:
        context = CausalHistory.empty()
        for clock, _ in state:
            context = context.merge(clock)
        return ReadResult(siblings=self.siblings(state), context=context)

    def write(self,
              state: HistoryState,
              context: CausalHistory,
              sibling: Sibling,
              server_id: str) -> HistoryState:
        new_clock = CausalHistory(sibling.origin_dot, context.events())
        survivors = tuple(
            (clock, stored) for clock, stored in state
            if not clock.events() <= context.events()
        )
        return survivors + ((new_clock, sibling),)

    def merge(self, state_a: HistoryState, state_b: HistoryState) -> HistoryState:
        combined: List[Tuple[CausalHistory, Sibling]] = []
        seen = set()
        for clock, sibling in state_a + state_b:
            key = (clock.event, clock.events())
            if key in seen:
                continue
            seen.add(key)
            combined.append((clock, sibling))
        survivors = [
            (clock, sibling) for clock, sibling in combined
            if not any(clock.happens_before(other) for other, _ in combined)
        ]
        survivors.sort(key=lambda item: item[1].origin_dot)
        return tuple(survivors)
