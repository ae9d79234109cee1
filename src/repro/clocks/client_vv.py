"""Per-client version vectors — the Riak (pre-DVV) baseline.

Cloud storage systems that want to track concurrency between *client* writes
with plain version vectors give every client its own entry: a write by client
``c`` with read context ``ctx`` is tagged ``ctx`` with ``c``'s entry
incremented.  This is causally exact — concurrent client writes get
incomparable vectors — but the vector grows with the number of clients that
ever wrote the key, which is unbounded in an open system.  That growth is what
forces systems like Riak to prune entries "optimistically", which is unsafe;
the pruning wrapper lives in :mod:`repro.clocks.pruning` and the damage it
causes is measured by experiment E3.

``ClientVVMechanism`` is the honest (unpruned) variant: exact causality,
unbounded metadata.  It is the paper's "inefficient" baseline in the
metadata-size experiment (E2).

A merge makes one pass over the union's vectors.  That pass keeps every
sibling that alone holds some actor's largest counter
(:func:`~repro.core.version_vector.undominated`); only the rest are compared
pairwise.  A replica folding a write into a state a merge left behind calls
:meth:`ClientVVMechanism.absorb` instead, which compares only the entries the
write adds.  :func:`distinct_versions` and :func:`version_order` are shared
with the per-server variant, and :func:`place` with the dvv mechanism.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple, TypeVar

from ..core.dot import Actor
from ..core.version_vector import VersionVector, ceiling, undominated
from .interface import ReadResult, Sibling, SiblingList, SiblingListMechanism

ClientVVState = SiblingList[VersionVector]
Version = Tuple[VersionVector, Sibling]
V = TypeVar("V")


def distinct_versions(versions: ClientVVState) -> List[Version]:
    """``versions`` without repeated ``(clock, origin dot)`` pairs; first wins."""
    distinct: List[Version] = []
    seen = set()
    for version in versions:
        dot = version[1].origin_dot
        key = (version[0], dot.actor, dot.counter)   # a Dot hashes in Python
        if key not in seen:
            seen.add(key)
            distinct.append(version)
    return distinct


def version_order(version: Version) -> Tuple[Tuple[Tuple[Actor, int], ...], Actor, int]:
    """Sort key of a merged sibling list: the clock's entries, then the origin dot."""
    dot = version[1].origin_dot
    return version[0].sorted_items(), dot.actor, dot.counter


def place(versions: Sequence[V], order, key: Callable[[V], Any]) -> int:
    """Where an entry sorting as ``order`` goes in ``versions``, sorted by
    ``key`` (``bisect`` takes a ``key`` from Python 3.10 on).  The dvv
    mechanism's ``absorb`` bisects with it too."""
    low, high = 0, len(versions)
    while low < high:
        middle = (low + high) // 2
        if key(versions[middle]) < order:
            low = middle + 1
        else:
            high = middle
    return low


class ClientVVMechanism(SiblingListMechanism[VersionVector, VersionVector]):
    """One version vector (keyed by client ids) per sibling."""

    name = "client_vv"
    exact = True

    # ------------------------------------------------------------------ #
    # Client protocol
    # ------------------------------------------------------------------ #
    def empty_context(self) -> VersionVector:
        return VersionVector.empty()

    def read(self, state: ClientVVState) -> ReadResult[VersionVector]:
        context = VersionVector(ceiling(clock for clock, _ in state))
        return ReadResult(siblings=self.siblings(state), context=context)

    def write(self,
              state: ClientVVState,
              context: VersionVector,
              sibling: Sibling,
              server_id: str) -> ClientVVState:
        """The survivors, then the one new ``(clock, sibling)`` entry last
        (which :meth:`write_delta` relies on)."""
        new_clock = self._mint(context, state, sibling)
        survivors = tuple(
            (clock, stored) for clock, stored in state
            if not new_clock.descends(clock)
        )
        return survivors + ((new_clock, sibling),)

    def write_delta(self, written: ClientVVState) -> ClientVVState:
        """The new entry alone: its clock descends every entry the write dropped."""
        return written[-1:]

    def merge(self, state_a: ClientVVState, state_b: ClientVVState) -> ClientVVState:
        survivors = undominated(distinct_versions(state_a + state_b))
        survivors.sort(key=version_order)
        return tuple(survivors)

    def absorb(self, stored: ClientVVState, incoming: ClientVVState) -> ClientVVState:
        """``merge(stored, incoming)`` at a cost set by what ``incoming`` adds.

        ``stored`` is a merge result: distinct, sorted and an antichain.  An
        incoming entry made of ``stored``'s own objects, or equal to one of
        its ``(clock, origin dot)`` pairs, is not fresh.  Every dominance
        pair in the union has a fresh entry on one side, so only fresh
        entries are compared, each with the union in both directions.  ``x``
        descends a clock only if ``x[w]`` reaches the clock's own entry for
        its writer ``w``; that one lookup runs before each full comparison.
        """
        held = {id(sibling): clock for clock, sibling in stored}
        fresh: List[Version] = []
        orders = set()
        for version in incoming:
            if held.get(id(version[1])) is version[0]:
                continue
            order = version_order(version)
            if order in orders:
                continue
            at = place(stored, order, version_order)
            if at < len(stored) and version_order(stored[at]) == order:
                continue
            orders.add(order)
            fresh.append(version)
        added: List[Version] = []
        beaten = set()      # stored entries some fresh entry dominates
        for version in fresh:
            clock = version[0]
            reach = clock._entries.get     # read directly: this loop is the cost
            writer = version[1].origin_dot.actor
            own = reach(writer, 0)
            for index, (other, sibling) in enumerate(stored):
                entries = other._entries
                if entries.get(writer, 0) >= own and other.dominates(clock):
                    break   # below a stored entry, so above none: an antichain
                actor = sibling.origin_dot.actor
                if reach(actor, 0) >= entries.get(actor, 0) and clock.dominates(other):
                    beaten.add(index)
            else:
                if not any(other.get(writer) >= own and other.dominates(clock)
                           for other, _ in fresh):
                    added.append(version)
        # An entry below a dropped fresh one is below a kept one: the top of
        # a chain above it is undominated and, stored being an antichain,
        # fresh.  So with nothing added, nothing was beaten either.
        if not added:
            return stored
        kept = [version for index, version in enumerate(stored) if index not in beaten]
        for version in added:
            kept.insert(place(kept, version_order(version), version_order), version)
        return tuple(kept)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _mint(self,
              context: VersionVector,
              state: ClientVVState,
              sibling: Sibling) -> VersionVector:
        """Tag for a new write: client context with the writer's entry advanced.

        The writer and its counter come from the sibling's origin dot: the
        *client* supplies both (its id and its own write sequence number),
        which is how client-side vector clocks worked in Riak before
        server-side ids: the client guarantees its own counters are unique
        and increasing even when it switches coordinators, so two of its
        writes can never collide on the same vector.  The counter is additionally floored by whatever the
        context or the stored clocks already record for this client, guarding
        against misuse with foreign dots.
        """
        client_id = sibling.origin_dot.actor
        top = max(context.get(client_id), sibling.origin_dot.counter - 1)
        for clock, _ in state:
            top = max(top, clock.get(client_id))
        return context.with_entry(client_id, top + 1)
