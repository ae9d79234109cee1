"""The oracle's write log: every write ever accepted, with its ground truth.

The correctness experiments (E3, E5, the Figure 1 assertions) compare what a
causality mechanism *kept* against what it *should* have kept, computed from
this log.  It is a side channel, fed off the data path from three places:

* the **issuer** of a write (whoever holds both the client's context and a
  write log) reports the origin dots the client had read — the write's causal
  parents (:meth:`WriteLog.report_parents`);
* the **coordinator** that accepts the write appends a record
  (:meth:`WriteLog.append`): the key and the sibling, whose origin dot names
  the write and, by its actor, the client that issued it;
* the same coordinator, when it answers the write, notes the origin dots of
  the state it answers with under the reply's message id
  (:meth:`WriteLog.note_reply`).  The client that absorbs that reply takes
  them back (:meth:`WriteLog.take_reply`) as the dots its next write read,
  so a ``PUT_REPLY`` carries only the mechanism's context.

Ground-truth histories are rebuilt from ``(dot, parents)`` pairs only when a
run is judged (:meth:`WriteLog.history_of`).  Nothing here rides storage,
contexts or the wire, so no mechanism can influence it.  Across processes
(``serve`` / ``connect``) each process has its own log: a reply noted in the
server's is not found in the client's, which then reports no parents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..clocks.interface import Sibling
from ..core.causal_history import CausalHistory
from ..core.dot import Dot


@dataclass(frozen=True)
class WriteRecord:
    """One accepted write, as the oracle saw it."""

    key: str
    sibling: Sibling

    @property
    def origin_dot(self) -> Dot:
        """Ground-truth unique id of the write."""
        return self.sibling.origin_dot


class WriteLog:
    """Append-only record of every write accepted by the store."""

    def __init__(self) -> None:
        self._records: List[WriteRecord] = []
        self._by_key: Dict[str, List[WriteRecord]] = {}
        self._parents: Dict[Dot, Tuple[Dot, ...]] = {}
        self._histories: Dict[Dot, CausalHistory] = {}
        self._replies: Dict[int, Tuple[Dot, ...]] = {}

    def report_parents(self, dot: Dot, parents: Sequence[Dot]) -> None:
        """Note the origin dots the writer of ``dot`` had read (none if blind).

        Called once per write by its issuer, before the write is sent.
        """
        self._parents[dot] = tuple(parents)

    def note_reply(self, msg_id: int, dots: Iterable[Dot]) -> None:
        """Note the origin dots of the state a ``PUT_REPLY`` answers with.

        Called by the coordinator under the reply's ``msg_id``, which names
        exactly the reply a client absorbs: a failover or a duplicated request
        can answer one write twice, from two different states.
        """
        self._replies[msg_id] = tuple(dots)

    def take_reply(self, msg_id: int) -> Tuple[Dot, ...]:
        """The dots noted for reply ``msg_id``, forgotten once taken.

        An unknown id (a reply noted in another process's log, or taken
        already) yields ``()``.
        """
        return self._replies.pop(msg_id, ())

    def record(self, record: WriteRecord) -> None:
        """Append a write record."""
        self._records.append(record)
        self._by_key.setdefault(record.key, []).append(record)

    def append(self, key: str, sibling: Sibling) -> WriteRecord:
        """Convenience wrapper building and recording a :class:`WriteRecord`."""
        record = WriteRecord(key, sibling)
        self.record(record)
        return record

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def for_key(self, key: str) -> List[WriteRecord]:
        """Records for one key, in acceptance order."""
        return list(self._by_key.get(key, []))

    def keys(self) -> List[str]:
        """Keys that have at least one recorded write, sorted."""
        return sorted(self._by_key)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[WriteRecord]:
        return iter(self._records)

    # ------------------------------------------------------------------ #
    # Ground-truth relations
    # ------------------------------------------------------------------ #
    def history_of(self, dot: Dot) -> CausalHistory:
        """Ground-truth causal history of the write ``dot``, memoised:
        ``{dot}`` plus the histories of its reported parents, transitively.

        An explicit stack, not recursion: one client read-modify-writing a
        key makes a parent chain as long as the run.
        """
        histories = self._histories
        stack = [dot]
        while stack:
            current = stack[-1]
            if current in histories:
                stack.pop()
                continue
            parents = self._parents.get(current, ())
            missing = [parent for parent in parents if parent not in histories]
            if missing:
                stack.extend(missing)
                continue
            past = set(parents)
            for parent in parents:
                past |= histories[parent].past
            histories[current] = CausalHistory(current, past)
            stack.pop()
        return histories[dot]

    def latest_frontier(self, key: str) -> List[WriteRecord]:
        """The writes of ``key`` that no other write causally dominates.

        This is the ground-truth set of versions a perfectly precise store
        would expose after all replicas converge: everything not superseded by a
        causally later write.  The analysis layer compares each mechanism's
        surviving siblings against this frontier.
        """
        records = self.for_key(key)
        # Histories are transitively closed, so "strictly precedes" is just
        # membership of the candidate's dot in the other write's past.
        pasts = [self.history_of(record.origin_dot).past for record in records]
        return [
            candidate for candidate in records
            if not any(candidate.origin_dot in past for past in pasts)
        ]
