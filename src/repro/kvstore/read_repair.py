"""Read repair: opportunistic convergence on the read path.

When a coordinator gathers replies from R replicas and notices they disagree,
it merges their states (through the causality mechanism) and pushes the merged
state back to the replicas that were missing versions.  Read repair is the
second convergence mechanism next to anti-entropy; it matters for the latency
experiment because the repair traffic also carries causality metadata, and for
the correctness experiments because an *inexact* mechanism merging during
repair is another place where it can silently drop concurrent versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from ..clocks.interface import CausalityMechanism


@dataclass
class RepairPlan:
    """Outcome of comparing R replica replies for one key.

    Attributes
    ----------
    merged_state:
        The mechanism-level merge of every reply (the first reply itself
        when every reply equals it).
    stale_replicas:
        Replica ids whose reply differed from the merged state and should be
        sent the merged state.
    agreed:
        True when every reply already described the same sibling set.
    """

    merged_state: Any
    stale_replicas: List[str]
    agreed: bool


def plan_read_repair(mechanism: CausalityMechanism,
                     replies: Sequence[Tuple[str, Any]]) -> RepairPlan:
    """Merge replica replies and decide which replicas need repairing.

    ``replies`` is a list of ``(replica_id, state)`` pairs.  Staleness is
    judged by comparing each replica's sibling fingerprint (the set of
    ground-truth origin dots it holds) against the merged state's fingerprint;
    the fingerprint is mechanism-independent so the plan itself cannot mask a
    mechanism's mistakes.

    Replies that all equal the first agree by construction: that state is
    the plan, with no merge and no fingerprint.
    """
    if not replies:
        raise ValueError("plan_read_repair needs at least one reply")
    merged_state = replies[0][1]
    if all(state == merged_state for _, state in replies[1:]):
        return RepairPlan(merged_state=merged_state, stale_replicas=[], agreed=True)
    for _, state in replies[1:]:
        merged_state = mechanism.merge(merged_state, state)
    merged_fingerprint = _fingerprint(mechanism, merged_state)
    stale = [
        replica_id for replica_id, state in replies
        if _fingerprint(mechanism, state) != merged_fingerprint
    ]
    return RepairPlan(
        merged_state=merged_state,
        stale_replicas=stale,
        agreed=not stale,
    )


def _fingerprint(mechanism: CausalityMechanism, state: Any) -> tuple:
    """Canonical, order-independent fingerprint of a state's sibling set.

    Mechanisms return their sibling lists in whatever internal order merging
    happened to produce, so the list is explicitly canonicalized — duplicates
    collapsed, then sorted by origin dot — before comparison.  The invariant
    this guarantees: a replica holding the same versions in a different
    order must never compare unequal to the merged state, or it would be
    sent the identical repair again on every read.
    """
    dots = {sibling.origin_dot for sibling in mechanism.siblings(state)}
    return tuple(sorted((dot.actor, dot.counter) for dot in dots))


class ReadRepairStats:
    """Counters describing how much repair traffic a run generated."""

    def __init__(self) -> None:
        self.reads_checked = 0
        self.repairs_triggered = 0
        self.replicas_repaired = 0
        #: Batched READ_REPAIR messages actually sent (repairs for one stale
        #: replica are coalesced, so this is <= ``replicas_repaired``).
        self.batches_sent = 0

    def record(self, plan: RepairPlan) -> None:
        """Account for one read's repair plan."""
        self.reads_checked += 1
        if not plan.agreed:
            self.repairs_triggered += 1
            self.replicas_repaired += len(plan.stale_replicas)
