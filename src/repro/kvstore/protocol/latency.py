"""Per-peer ack-latency EWMAs shared by coordination and hint replay.

One tracker lives on each :class:`~repro.kvstore.protocol.node.ProtocolNode`.
The coordinator feeds it every observed replica ack round trip and (in
``deadline_mode="adaptive"``) derives per-replica deadlines from it; the hint
replayer feeds it HINT_ACK round trips and consults it to back off from
persistently slow peers instead of hammering them on the daemon's fixed
cadence.

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

#: Adaptive deadline = EWMA x this headroom multiplier (then clamped), so a
#: replica is only declared late when it takes several times its usual
#: round trip.
ADAPTIVE_DEADLINE_MULTIPLIER = 3.0

#: A read's hedge fires after this many of the asked replica's usual round
#: trips (Dean & Barroso's hedged request: redundancy only for the slow case).
HEDGE_EWMA_MULTIPLIER = 2.0


class PeerLatencyTracker:
    """EWMA of each peer's observed ack latency, with deadline derivation."""

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

    def deadline_ms(self, peer_id: str,
                    mode: str,
                    fixed_ms: float,
                    floor_ms: float,
                    ceiling_ms: float) -> float:
        """How long to wait for this peer's ack before giving up on it.

        ``mode="fixed"`` uses ``fixed_ms`` for every peer.  ``"adaptive"``
        scales the peer's EWMA by :data:`ADAPTIVE_DEADLINE_MULTIPLIER`,
        clamped to [``floor_ms``, ``ceiling_ms``] — fast replicas are declared
        late sooner (failover happens in a few of their round trips, not a
        worst-case constant), while the floor keeps one latency spike from
        triggering a storm of spurious handoffs.  A peer never observed falls
        back to the fixed timeout.
        """
        if mode != "adaptive":
            return fixed_ms
        ewma = self.ewma.get(peer_id)
        if ewma is None:
            return fixed_ms
        deadline = ewma * ADAPTIVE_DEADLINE_MULTIPLIER
        return max(floor_ms, min(deadline, ceiling_ms))

    def is_slow(self, peer_id: str, ceiling_ms: float) -> bool:
        """Whether this peer's usual round trip pins the deadline at its ceiling.

        This is the "persistently slow" predicate hint replay backs off on: a
        peer whose EWMA-derived deadline would clamp at the configured ceiling
        is consistently taking as long as the worst case we are prepared to
        wait, so replaying to it on every daemon tick mostly re-sends batches
        that are still in flight.
        """
        ewma = self.ewma.get(peer_id)
        return ewma is not None and ewma * ADAPTIVE_DEADLINE_MULTIPLIER >= ceiling_ms

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
