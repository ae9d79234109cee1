"""Dotted version vectors — the paper's core contribution.

A dotted version vector (DVV) is a pair ``((i, n), v)`` where ``(i, n)`` is a
*dot* (the globally unique identifier of the event/version being described) and
``v`` is a plain version vector describing the *causal past* of that event.
Its denotation as a causal history is::

    C[[((i, n), v)]] = {i_n} ∪ ⋃_j {j_m | 1 <= m <= v[j]}

Decoupling the version identifier from the causal past gives the two
properties the paper highlights:

* **O(1) causality verification** — event ``a`` precedes event ``b`` iff
  ``n_a <= v_b[i_a]``, i.e. a single dictionary lookup
  (:meth:`DottedVersionVector.happens_before`).
* **Precise tracking of concurrent client writes with one entry per replica
  server** — the dot is minted by the coordinating *server*, so the actor
  space (and therefore the vector size) is bounded by the replication degree,
  yet writes racing through the same server still get distinct dots and are
  correctly detected as concurrent (Figure 1c:
  ``(A,3)[1,0] ∥ (A,2)[1,0]``).

Besides the clock itself, this module provides the *kernel* operations a
storage server needs (following the companion technical report, reference [4]):

* :func:`update` — mint the clock for a new version written by a client that
  supplied causal context ``ctx`` at server ``r`` currently holding
  ``server_versions``.
* :func:`merge_versions` — the merge kernel: the live versions of a union of
  version sets, discarding every version that is in the causal past of
  another; :func:`sync` applies it to two replicas' clocks and
  :class:`~repro.clocks.dvv_mechanism.DVVMechanism` to ``(clock, sibling)``
  pairs.
* :func:`discard` — drop the versions already covered by a client context.
* :func:`join` — summarise a set of versions into the version-vector context
  handed back to clients on GET.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .causal_history import CausalHistory
from .comparison import Ordering
from .dot import Actor, Dot
from .exceptions import InvalidClockError
from .version_vector import VersionVector

T = TypeVar("T")


class DottedVersionVector:
    """The paper's ``(dot, version-vector)`` logical clock.

    Instances are immutable value objects.  The dot identifies the version,
    the vector records its causal past; the dot is *not* required to be the
    contiguous successor of the vector's entry for the same actor — that gap
    (e.g. ``(A,3)[1,0]``, which skips ``(A,2)``) is exactly what lets DVVs
    represent versions written concurrently through the same server.
    """

    __slots__ = ("_dot", "_vv", "_encoded", "_fingerprint")

    def __init__(self, dot: Dot, causal_past: Optional[VersionVector] = None) -> None:
        if not isinstance(dot, Dot):
            raise InvalidClockError(f"DVV dot must be a Dot, got {dot!r}")
        vv = causal_past if causal_past is not None else VersionVector.empty()
        if not isinstance(vv, VersionVector):
            raise InvalidClockError(f"DVV causal past must be a VersionVector, got {vv!r}")
        if vv.contains_dot(dot):
            raise InvalidClockError(
                f"dot {dot} must not already be contained in its own causal past {vv}"
            )
        object.__setattr__(self, "_dot", dot)
        object.__setattr__(self, "_vv", vv)
        object.__setattr__(self, "_encoded", None)
        object.__setattr__(self, "_fingerprint", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"DottedVersionVector is immutable; cannot set {name!r}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"DottedVersionVector is immutable; cannot delete {name!r}"
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def dot(self) -> Dot:
        """The version identifier ``(i, n)``."""
        return self._dot

    @property
    def causal_past(self) -> VersionVector:
        """The version vector ``v`` encoding the causal past."""
        return self._vv

    def contains_dot(self, dot: Dot) -> bool:
        """O(1) membership test of ``dot`` in the denoted causal history."""
        return dot == self._dot or self._vv.contains_dot(dot)

    def size(self) -> int:
        """Number of vector entries (excluding the dot) — bounded by #replicas."""
        return len(self._vv)

    # ------------------------------------------------------------------ #
    # Causality
    # ------------------------------------------------------------------ #
    def happens_before(self, other: "DottedVersionVector") -> bool:
        """O(1) test: does this version causally precede ``other``?

        Directly implements the paper's rule ``a < b iff n_a <= v_b[i_a]`` —
        a single lookup in ``other``'s causal past, independent of the number
        of entries in either vector.
        """
        return self._dot != other._dot and other._vv.contains_dot(self._dot)

    def concurrent_with(self, other: "DottedVersionVector") -> bool:
        """O(1) test: ``a ∥ b iff n_a > v_b[i_a] ∧ n_b > v_a[i_b]``."""
        if self._dot == other._dot:
            return False
        return not other._vv.contains_dot(self._dot) and not self._vv.contains_dot(other._dot)

    def descends(self, other: "DottedVersionVector") -> bool:
        """True iff ``other`` is in this version's causal past (or is the same version)."""
        return self._dot == other._dot or self.contains_dot(other._dot)

    def compare(self, other: "DottedVersionVector") -> Ordering:
        """Full four-way comparison (still O(1) apart from the EQUAL check)."""
        if self._dot == other._dot:
            return Ordering.EQUAL if self._vv == other._vv else (
                Ordering.BEFORE if other._vv.descends(self._vv) else
                Ordering.AFTER if self._vv.descends(other._vv) else Ordering.CONCURRENT
            )
        mine_in_theirs = other._vv.contains_dot(self._dot)
        theirs_in_mine = self._vv.contains_dot(other._dot)
        if mine_in_theirs and theirs_in_mine:
            # Only possible for hand-built clocks describing overlapping
            # histories; fall back to the precise causal-history comparison.
            return self.to_causal_history().compare(other.to_causal_history())
        if mine_in_theirs:
            return Ordering.BEFORE
        if theirs_in_mine:
            return Ordering.AFTER
        return Ordering.CONCURRENT

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_causal_history(self) -> CausalHistory:
        """Expand to the denoted causal history ``C[[(dot, v)]]`` (O(events))."""
        return CausalHistory(self._dot, self._vv.dots())

    def to_version_vector(self) -> VersionVector:
        """Smallest plain VV that covers this clock (dot folded into the vector).

        This is the per-version "ceiling" used when building the GET context:
        note it may include dots that are *not* in the causal history when the
        dot is non-contiguous (that imprecision is exactly why the dot must be
        kept separate while versions are still live).
        """
        actor = self._dot.actor
        return self._vv.with_entry(actor, max(self._vv.get(actor), self._dot.counter))

    # ------------------------------------------------------------------ #
    # Dunder / formatting
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DottedVersionVector):
            return NotImplemented
        return self._dot == other._dot and self._vv == other._vv

    def __hash__(self) -> int:
        return hash((self._dot, self._vv))

    def __repr__(self) -> str:
        return f"DottedVersionVector(dot={self._dot!r}, causal_past={self._vv!r})"

    def __str__(self) -> str:
        return f"({self._dot.actor},{self._dot.counter}){self._vv}"


# ---------------------------------------------------------------------- #
# Kernel operations (server-side protocol from the technical report)
# ---------------------------------------------------------------------- #
def max_counter_for(actor: Actor, versions: Iterable[DottedVersionVector],
                    context: Optional[VersionVector] = None) -> int:
    """Highest event counter of ``actor`` known among ``versions`` and ``context``.

    Used by :func:`update` to mint a fresh dot that is greater than anything
    the coordinating server has already issued or heard about.
    """
    best = context.get(actor) if context is not None else 0
    for version in versions:
        if version.dot.actor == actor:
            best = max(best, version.dot.counter)
        best = max(best, version.causal_past.get(actor))
    return best


def update(context: VersionVector,
           server_versions: Sequence[DottedVersionVector],
           server_id: Actor) -> DottedVersionVector:
    """Mint the clock of a new version written through ``server_id``.

    ``context`` is the causal context the client obtained from its last GET
    (empty for a blind write); ``server_versions`` are the clocks of the
    versions currently stored at the coordinating replica.  The new clock's
    dot is a fresh event of ``server_id`` (one past everything it has issued)
    and its causal past is exactly the client's context — which is what makes
    two clients racing through the same server produce *concurrent* clocks,
    e.g. ``(A,2)[1,0]`` and ``(A,3)[1,0]`` in Figure 1c.
    """
    counter = max_counter_for(server_id, server_versions, context) + 1
    return DottedVersionVector(Dot(server_id, counter), context)


def obsoleted_by(version: DottedVersionVector,
                 candidates: Iterable[DottedVersionVector]) -> bool:
    """True iff some candidate's causal history contains ``version``'s dot."""
    return any(version.happens_before(candidate) for candidate in candidates)


def covered_by_context(version: DottedVersionVector, context: VersionVector) -> bool:
    """True iff ``version`` is already included in a client context vector."""
    return context.contains_dot(version.dot)


def discard(versions: Sequence[DottedVersionVector],
            context: VersionVector) -> List[DottedVersionVector]:
    """Drop the versions whose dot is covered by ``context``.

    This is the server-side step of a PUT: every sibling the writing client had
    already seen (its dot is in the client's context) is superseded by the new
    write; siblings the client had *not* seen survive as concurrent versions.
    """
    return [v for v in versions if not covered_by_context(v, context)]


def merge_versions(entries: Iterable[Tuple[DottedVersionVector, T]]
                   ) -> List[Tuple[DottedVersionVector, T]]:
    """The one merge kernel: the live ``(clock, item)`` pairs of a union.

    Pairs with the same dot are one version; the one with the larger causal
    past wins (the later pair on a tie).  A version then survives iff no other
    version's causal past contains its dot.  A dot is inside the join of a set
    of version vectors iff it is inside one of them, and a DVV's own past
    never contains its own dot, so "no other past contains it" is one
    membership test against the pointwise maximum of *all* pasts: one pass to
    build that ceiling, one O(1) test per entry — O(entries x replicas), the
    paper's check used once per entry instead of once per pair.  The result is
    sorted by dot so replicas converge to identical sibling lists.
    """
    by_dot: Dict[Dot, Tuple[DottedVersionVector, T]] = {}
    for entry in entries:
        clock = entry[0]
        existing = by_dot.get(clock._dot)
        if (existing is None or clock is existing[0]
                or clock._vv.descends(existing[0]._vv)):
            by_dot[clock._dot] = entry
    covered = _ceiling_of_pasts(clock for clock, _ in by_dot.values()).get
    survivors = [entry for dot, entry in by_dot.items()
                 if dot.counter > covered(dot.actor, 0)]
    survivors.sort(key=_dot_order)
    return survivors


def _dot_order(entry: Tuple[DottedVersionVector, object]) -> Tuple[Actor, int]:
    """Sort key equal to :class:`Dot`'s own order, without comparing Dots."""
    dot = entry[0]._dot
    return dot.actor, dot.counter


def _ceiling_of_pasts(clocks: Iterable[DottedVersionVector]) -> Dict[Actor, int]:
    """Pointwise maximum of the clocks' causal pasts, as a plain dict."""
    ceiling: Dict[Actor, int] = {}
    top = ceiling.get
    for clock in clocks:
        for actor, counter in clock._vv._entries.items():
            if counter > top(actor, 0):
                ceiling[actor] = counter
    return ceiling


def sync(left: Sequence[DottedVersionVector],
         right: Sequence[DottedVersionVector]) -> List[DottedVersionVector]:
    """Merge the version sets of two replicas (anti-entropy / read repair).

    The result is the union of both sets minus every version that is in the
    causal past of another version in the union, with duplicates (same dot)
    collapsed.  Order of the result is deterministic (sorted by dot) so that
    replicas converge to identical sibling lists.
    """
    merged = merge_versions((version, None)
                            for version in itertools.chain(left, right))
    return [version for version, _ in merged]


def join(versions: Iterable[DottedVersionVector]) -> VersionVector:
    """Summarise a sibling set into the causal context returned on GET.

    The join is the pointwise maximum over every version's ceiling vector
    (:meth:`DottedVersionVector.to_version_vector`); a client that later PUTs
    with this context supersedes exactly the versions it read.
    """
    versions = list(versions)
    ceiling = _ceiling_of_pasts(versions)
    for version in versions:
        dot = version._dot
        if dot.counter > ceiling.get(dot.actor, 0):
            ceiling[dot.actor] = dot.counter
    return VersionVector(ceiling)
