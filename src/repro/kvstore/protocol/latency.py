"""Per-peer ack-latency EWMAs shared by coordination and hint replay.

One tracker lives on each :class:`~repro.kvstore.protocol.node.ProtocolNode`.
The coordinator feeds it every observed replica ack round trip; the hint
replayer feeds it HINT_ACK round trips and consults it to back off from
persistently slow peers instead of hammering them on the daemon's fixed
cadence.  Replica deadlines do not read it: every one is the env's fixed
``replica_timeout_ms``.

It also remembers which peers are *suspected*: this node's last deadline
for the peer fired and no ack has come from it since.  A quorum read ranks
suspected primaries last when it picks whom to ask, and times its hedge off
the EWMA of the replica it did ask.
"""

from __future__ import annotations

from typing import Dict, Set

#: EWMA smoothing factor for observed per-replica ack latency: weight given
#: to the newest observation.
DEADLINE_EWMA_ALPHA = 0.3

#: A peer is persistently slow when this many of its usual round trips reach
#: the replica timeout: it takes as long as the worst case we wait for.
SLOW_PEER_MULTIPLIER = 3.0

#: A read's hedge fires after this many of the asked replica's usual round
#: trips (Dean & Barroso's hedged request: redundancy only for the slow case).
HEDGE_EWMA_MULTIPLIER = 2.0


class PeerLatencyTracker:
    """EWMA of each peer's observed ack latency, and the peers suspected dead."""

    def __init__(self) -> None:
        #: peer id -> EWMA of observed ack latency (ms).  Exposed as a plain
        #: dict so tests and diagnostics can inspect or seed it.
        self.ewma: Dict[str, float] = {}
        #: peers whose last deadline fired with no ack from them since.
        self.suspected: Set[str] = set()

    def observe(self, peer_id: str, observed_ms: float) -> None:
        """Fold one observed round trip into the peer's latency EWMA.

        An ack is news that the peer is alive: it is no longer suspected.
        """
        self.suspected.discard(peer_id)
        previous = self.ewma.get(peer_id)
        if previous is None:
            self.ewma[peer_id] = observed_ms
        else:
            self.ewma[peer_id] = (
                DEADLINE_EWMA_ALPHA * observed_ms
                + (1.0 - DEADLINE_EWMA_ALPHA) * previous
            )

    def is_slow(self, peer_id: str, ceiling_ms: float) -> bool:
        """Whether :data:`SLOW_PEER_MULTIPLIER` of this peer's usual round
        trips reach ``ceiling_ms`` (the replica timeout).

        This is the "persistently slow" predicate hint replay backs off on: such
        a peer is consistently taking as long as the worst case we are prepared
        to wait, so replaying to it on every daemon tick mostly re-sends
        batches that are still in flight.
        """
        ewma = self.ewma.get(peer_id)
        return ewma is not None and ewma * SLOW_PEER_MULTIPLIER >= ceiling_ms

    def suspect(self, peer_id: str) -> None:
        """A deadline for this peer fired: suspect it until its next ack."""
        self.suspected.add(peer_id)

    def hedge_ms(self, peer_id: str, floor_ms: float) -> float:
        """When to ask a read's spare replicas if this peer has not answered.

        Twice the peer's usual round trip, never under ``floor_ms``; a peer
        never observed waits the floor.
        """
        ewma = self.ewma.get(peer_id)
        if ewma is None:
            return floor_ms
        return max(floor_ms, HEDGE_EWMA_MULTIPLIER * ewma)

    def clear(self) -> None:
        """Forget every observation (process crash: EWMAs are process memory)."""
        self.ewma.clear()
        self.suspected.clear()
