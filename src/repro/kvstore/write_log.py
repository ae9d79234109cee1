"""The oracle's write log: every write ever accepted, with its ground truth.

The correctness experiments (E3, E5, the Figure 1 assertions) compare what a
causality mechanism *kept* against what it *should* have kept, computed from
this log.  It is a side channel, fed off the data path from two places: the
**issuer** of a write (whoever holds both the client's context and a write
log) reports the origin dots the client had read — the write's causal parents
(:meth:`WriteLog.report_parents`) — and the **coordinator** that accepts the
write appends a record (:meth:`WriteLog.append`).  Ground-truth histories are
rebuilt from those pairs only when a run is judged
(:meth:`WriteLog.history_of`).  Nothing here rides storage, contexts or the
wire, so no mechanism can influence it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..clocks.interface import Sibling
from ..core.causal_history import CausalHistory
from ..core.dot import Dot


@dataclass(frozen=True)
class WriteRecord:
    """One accepted write, as the oracle saw it."""

    key: str
    sibling: Sibling
    server_id: str
    client_id: str
    timestamp: float = 0.0

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

    def report_parents(self, dot: Dot, parents: Sequence[Dot]) -> None:
        """Note the origin dots the writer of ``dot`` had read (none if blind).

        Called once per write by its issuer, before the write is sent.
        """
        self._parents[dot] = tuple(parents)

    def record(self, record: WriteRecord) -> None:
        """Append a write record."""
        self._records.append(record)
        self._by_key.setdefault(record.key, []).append(record)

    def append(self,
               key: str,
               sibling: Sibling,
               server_id: str,
               client_id: str,
               timestamp: float = 0.0) -> WriteRecord:
        """Convenience wrapper building and recording a :class:`WriteRecord`."""
        record = WriteRecord(key, sibling, server_id, client_id, timestamp)
        self.record(record)
        return record

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def all_records(self) -> List[WriteRecord]:
        """Every record, in acceptance order."""
        return list(self._records)

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

    def record_for_dot(self, key: str, dot: Dot) -> Optional[WriteRecord]:
        """The write of ``key`` whose origin dot is ``dot`` (None if unknown)."""
        for record in self._by_key.get(key, []):
            if record.origin_dot == dot:
                return record
        return None
