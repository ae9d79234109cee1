"""Correctness oracle: judging mechanisms against ground-truth causality.

The paper's qualitative claims are about *correctness*, not just size:

* per-server version vectors lose concurrently written versions (Figure 1b);
* optimistically pruned per-client version vectors can lose updates and/or
  introduce false concurrency;
* dotted version vectors track causality among concurrent client writes
  exactly.

This module turns those claims into measurable quantities.  Every write the
store accepted is in the :class:`~repro.kvstore.write_log.WriteLog`, which
rebuilds each write's ground-truth causal history from the origin dots its
writer had read (``write_log.history_of``); after replicas converge, the
surviving siblings of each key are compared against the log's causal frontier:

* **lost update** — a frontier write (not causally superseded by any other
  write) that no replica still stores;
* **false concurrency** — two surviving siblings whose ground-truth histories
  are actually ordered (the mechanism should have kept only the later one);
* **sibling surplus / deficit** — how far the surviving sibling count is from
  the ground-truth frontier size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..clocks.interface import Sibling
from ..core.comparison import Ordering
from ..core.dot import Dot
from ..kvstore.sync_store import SyncReplicatedStore
from ..kvstore.write_log import WriteLog, WriteRecord


@dataclass
class KeyCorrectness:
    """Correctness verdict for a single key.

    ``session_superseded`` lists frontier writes that did not survive but were
    replaced by a *later write of the same client*: mechanisms whose identifier
    space is per-client (Riak's client-id version vectors) order a client's own
    writes even when the client never read the earlier one back.  That is a
    documented semantic difference, not data loss — no other client's write
    disappeared — so it is reported separately from ``lost_updates``.
    """

    key: str
    expected_frontier: List[Dot]
    surviving: List[Dot]
    lost_updates: List[Dot]
    false_concurrency_pairs: List[Tuple[Dot, Dot]]
    spurious_siblings: List[Dot]
    session_superseded: List[Dot] = field(default_factory=list)

    @property
    def sibling_surplus(self) -> int:
        """How many more siblings survived than the ground truth warrants."""
        return max(0, len(self.surviving) - len(self.expected_frontier))

    @property
    def sibling_deficit(self) -> int:
        """How many ground-truth concurrent versions are missing."""
        return max(0, len(self.expected_frontier) - len(self.surviving))

    @property
    def is_correct(self) -> bool:
        """True when the mechanism preserved exactly the ground-truth frontier."""
        return not self.lost_updates and not self.false_concurrency_pairs


@dataclass
class CorrectnessReport:
    """Aggregate correctness verdict across all keys of a run."""

    mechanism: str
    keys_checked: int = 0
    keys_correct: int = 0
    total_lost_updates: int = 0
    total_false_concurrency: int = 0
    total_sibling_surplus: int = 0
    total_sibling_deficit: int = 0
    total_session_superseded: int = 0
    per_key: Dict[str, KeyCorrectness] = field(default_factory=dict)

    @property
    def is_correct(self) -> bool:
        """True when no key shows lost updates or false concurrency."""
        return self.total_lost_updates == 0 and self.total_false_concurrency == 0

    def add(self, verdict: KeyCorrectness) -> None:
        """Fold one key's verdict into the totals."""
        self.per_key[verdict.key] = verdict
        self.keys_checked += 1
        if verdict.is_correct:
            self.keys_correct += 1
        self.total_lost_updates += len(verdict.lost_updates)
        self.total_false_concurrency += len(verdict.false_concurrency_pairs)
        self.total_sibling_surplus += verdict.sibling_surplus
        self.total_sibling_deficit += verdict.sibling_deficit
        self.total_session_superseded += len(verdict.session_superseded)


def check_key(key: str,
              surviving_siblings: Sequence[Sibling],
              write_log: WriteLog) -> KeyCorrectness:
    """Judge one key's surviving siblings against the write log's ground truth."""
    frontier: List[WriteRecord] = write_log.latest_frontier(key)
    frontier_dots = [record.origin_dot for record in frontier]
    surviving_dots = [sibling.origin_dot for sibling in surviving_siblings]

    # Ground-truth histories of the survivors, in origin-dot order; each
    # history's ``event`` is the survivor's origin dot.
    surviving_histories = [
        write_log.history_of(dot) for dot in sorted(surviving_dots)
    ]

    # A frontier write is lost when it neither survived itself nor is causally
    # included in some surviving sibling (the latter cannot happen for true
    # frontier writes, but guards against oracle misuse).  A frontier write
    # replaced by a later write of the same client is classified as
    # session-superseded rather than lost — see :class:`KeyCorrectness`.
    all_records = write_log.for_key(key)

    lost: List[Dot] = []
    session_superseded: List[Dot] = []
    for record in frontier:
        if record.origin_dot in surviving_dots:
            continue
        covered = any(
            record.origin_dot in history for history in surviving_histories
        )
        if covered:
            continue
        client, counter = record.origin_dot.actor, record.origin_dot.counter
        superseded_by_own_write = any(
            other.origin_dot.actor == client and other.origin_dot.counter > counter
            for other in all_records
        )
        if superseded_by_own_write:
            session_superseded.append(record.origin_dot)
        else:
            lost.append(record.origin_dot)

    # False concurrency: surviving pairs whose ground-truth histories are ordered.
    false_pairs: List[Tuple[Dot, Dot]] = []
    for index, first in enumerate(surviving_histories):
        for second in surviving_histories[index + 1:]:
            if first.compare(second) in (Ordering.BEFORE, Ordering.AFTER):
                false_pairs.append((first.event, second.event))

    # Spurious siblings: survivors that the ground truth says are dominated by
    # another *survivor* (the visible symptom of false concurrency).
    spurious = [
        history.event for history in surviving_histories
        if any(history.compare(other) is Ordering.BEFORE
               for other in surviving_histories)
    ]

    return KeyCorrectness(
        key=key,
        expected_frontier=sorted(frontier_dots),
        surviving=sorted(surviving_dots),
        lost_updates=sorted(lost),
        false_concurrency_pairs=false_pairs,
        spurious_siblings=spurious,
        session_superseded=sorted(session_superseded),
    )


def check_cluster(cluster, write_log: Optional[WriteLog] = None) -> CorrectnessReport:
    """Judge every key of a (converged) message-passing cluster.

    The cluster analogue of :func:`check_store`: after ``cluster.converge()``
    every live server stores an identical sibling set per key, so any
    server's survivors can stand for the cluster's.  The first live server
    (sorted order) that holds the key is used as the reference; a key held
    by no live server yields an empty survivor set and every frontier write
    is judged lost — which is exactly what a client would observe.

    Works for both ``SimulatedCluster`` and ``AsyncioCluster`` (anything
    with ``servers`` exposing ``node.siblings_of`` and a ``write_log``).
    """
    log = write_log if write_log is not None else cluster.write_log
    report = CorrectnessReport(mechanism=cluster.mechanism.name)
    is_up = getattr(getattr(cluster, "membership", None), "is_up",
                    lambda _node_id: True)
    for key in log.keys():
        surviving: Sequence[Sibling] = []
        for server_id in sorted(cluster.servers):
            if not is_up(server_id):
                continue
            siblings = cluster.servers[server_id].node.siblings_of(key)
            if siblings:
                surviving = siblings
                break
        report.add(check_key(key, surviving, log))
    return report


def check_store(store: SyncReplicatedStore,
                write_log: Optional[WriteLog] = None,
                converge_first: bool = True) -> CorrectnessReport:
    """Judge every key of a synchronous store against its write log.

    ``converge_first`` runs replica synchronisation to a fixpoint before
    checking, which is the setting the paper's discussion assumes (the damage
    done by inexact mechanisms does not heal with more syncing — it is already
    baked into the surviving version sets).
    """
    log = write_log if write_log is not None else store.write_log
    if converge_first and log.keys():
        store.converge()
    report = CorrectnessReport(mechanism=store.mechanism.name)
    for key in log.keys():
        replicas = store.replicas_for(key)
        reference_replica = replicas[0] if replicas else None
        surviving = store.siblings(key, reference_replica) if reference_replica else []
        report.add(check_key(key, surviving, log))
    return report
