"""Anti-entropy daemons for the simulated message-passing cluster.

Dynamo-style stores converge replicas in two ways: read repair (on the read
path, see :mod:`repro.kvstore.read_repair`) and a background anti-entropy
process that periodically exchanges state between replica pairs — the dotted
"server sync" arrows in the paper's Figure 1.  The exchange itself is the
Merkle-delta protocol of :mod:`repro.kvstore.protocol.anti_entropy`; this
module only decides *when* it runs, as
:class:`~repro.network.simulator.PeriodicTask`-driven daemons:

* :class:`AntiEntropyDaemon` starts an exchange for one replica pair per tick
  and tracks membership churn (joins, departures, crashes), skipping pairs
  with an unreachable endpoint.
* :class:`HintedHandoffDaemon` periodically replays coordinator-held hints to
  replicas that have recovered.

The synchronous store has no daemon: its ``sync_key`` / ``sync_all`` /
``converge`` merge replica pairs directly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..network.simulator import PeriodicTask, Simulation


class AntiEntropyDaemon:
    """Periodic anti-entropy for the simulated message-passing cluster.

    The daemon does not touch node state directly; it asks the cluster to
    start a Merkle-delta exchange between a replica pair, so the exchanged
    state pays the same latency/size costs as every other message (keeping
    the latency experiment honest).

    The pair rotation is membership-aware: nodes can be added and removed at
    runtime (elastic clusters), and pairs with an endpoint the ``eligible``
    predicate rejects (crashed / decommissioning nodes) are skipped for that
    tick rather than wasting an exchange on a black hole.
    """

    def __init__(self,
                 simulation: Simulation,
                 trigger_sync: Callable[[str, str], None],
                 node_ids: Sequence[str],
                 interval_ms: float = 50.0,
                 eligible: Optional[Callable[[str], bool]] = None) -> None:
        if len(node_ids) < 2:
            raise ConfigurationError("anti-entropy needs at least two nodes")
        self._trigger_sync = trigger_sync
        self._node_ids = sorted(node_ids)
        self._eligible = eligible or (lambda _node_id: True)
        self._pair_index = 0
        self.exchanges_started = 0
        self.exchanges_skipped = 0
        self._task = PeriodicTask(simulation, interval_ms, self._tick, label="anti-entropy")

    # ------------------------------------------------------------------ #
    # Membership churn
    # ------------------------------------------------------------------ #
    def add_node(self, node_id: str) -> None:
        """Include a newly joined node in the pair rotation."""
        if node_id not in self._node_ids:
            self._node_ids.append(node_id)
            self._node_ids.sort()

    def remove_node(self, node_id: str) -> None:
        """Drop a decommissioned node from the pair rotation."""
        if node_id in self._node_ids:
            self._node_ids.remove(node_id)

    def nodes(self) -> List[str]:
        """Nodes currently in the rotation, sorted."""
        return list(self._node_ids)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _pairs(self) -> List[Tuple[str, str]]:
        return [
            (self._node_ids[i], self._node_ids[j])
            for i in range(len(self._node_ids))
            for j in range(i + 1, len(self._node_ids))
        ]

    def _tick(self) -> None:
        pairs = self._pairs()
        if not pairs:
            return
        # Advance through the rotation until a fully reachable pair is found
        # (at most one full cycle, so a mostly-down cluster cannot loop).
        for _ in range(len(pairs)):
            source_id, target_id = pairs[self._pair_index % len(pairs)]
            self._pair_index += 1
            if self._eligible(source_id) and self._eligible(target_id):
                self.exchanges_started += 1
                self._trigger_sync(source_id, target_id)
                return
            self.exchanges_skipped += 1

    def stop(self) -> None:
        """Stop scheduling further exchanges."""
        self._task.stop()


class HintedHandoffDaemon:
    """Background replay of coordinator-held hints (simulated cluster).

    When a coordinator cannot reach one of a key's primary replicas during a
    write it stores a *hint* — the target id plus the post-write state — in
    its local :class:`~repro.kvstore.server.StorageNode`.  This daemon
    periodically scans every server for outstanding hints and asks the
    cluster to replay the ones whose target is reachable again
    (``HINT_REPLAY`` messages, acknowledged with ``HINT_ACK``).  Replay is
    idempotent — states merge through the causality mechanism — so duplicate
    deliveries and re-sends after a lost ack are harmless.
    """

    def __init__(self,
                 simulation: Simulation,
                 sources: Callable[[], Sequence[str]],
                 trigger_replay: Callable[[str], int],
                 interval_ms: float = 50.0) -> None:
        self._sources = sources
        self._trigger_replay = trigger_replay
        self.replay_batches_sent = 0
        self._task = PeriodicTask(simulation, interval_ms, self._tick, label="hinted-handoff")

    def _tick(self) -> None:
        for source_id in self._sources():
            self.replay_batches_sent += self._trigger_replay(source_id)

    def stop(self) -> None:
        """Stop scheduling further replays."""
        self._task.stop()
