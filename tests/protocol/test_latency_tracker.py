"""Unit tests for the per-peer latency EWMA that the read hedge, suspicion and
hint backoff read.

Replica deadlines never consult the tracker (every one is the env's fixed
``replica_timeout_ms``); these tests pin the three jobs it still has.
"""

from __future__ import annotations

import pytest

from repro.kvstore.protocol import (
    DEADLINE_EWMA_ALPHA,
    SLOW_PEER_MULTIPLIER,
    PeerLatencyTracker,
)
from repro.kvstore.protocol.latency import HEDGE_EWMA_MULTIPLIER


class TestEwma:
    def test_first_observation_seeds_the_ewma(self):
        tracker = PeerLatencyTracker()
        tracker.observe("B", 12.0)
        assert tracker.ewma == {"B": 12.0}

    def test_later_observations_are_smoothed(self):
        tracker = PeerLatencyTracker()
        tracker.observe("B", 10.0)
        tracker.observe("B", 20.0)
        expected = DEADLINE_EWMA_ALPHA * 20.0 + (1.0 - DEADLINE_EWMA_ALPHA) * 10.0
        assert tracker.ewma["B"] == pytest.approx(expected)

    def test_peers_are_tracked_independently(self):
        tracker = PeerLatencyTracker()
        tracker.observe("B", 1.0)
        tracker.observe("C", 50.0)
        tracker.observe("B", 1.0)
        assert tracker.ewma == {"B": 1.0, "C": 50.0}


class TestSuspicion:
    def test_a_fired_deadline_suspects_the_peer(self):
        tracker = PeerLatencyTracker()
        tracker.suspect("C")
        assert tracker.suspected == {"C"}

    def test_an_ack_clears_suspicion_of_that_peer_only(self):
        tracker = PeerLatencyTracker()
        tracker.suspect("B")
        tracker.suspect("C")
        tracker.observe("B", 3.0)
        assert tracker.suspected == {"C"}

    def test_clear_forgets_ewmas_and_suspicion(self):
        tracker = PeerLatencyTracker()
        tracker.observe("B", 3.0)
        tracker.suspect("C")
        tracker.clear()
        assert tracker.ewma == {}
        assert tracker.suspected == set()


class TestSlowPeer:
    def test_the_multiplier_is_three_round_trips(self):
        assert SLOW_PEER_MULTIPLIER == 3.0

    def test_a_never_observed_peer_is_not_slow(self):
        assert not PeerLatencyTracker().is_slow("B", ceiling_ms=10.0)

    @pytest.mark.parametrize("ewma_ms, slow", [
        (1.0, False),
        (10.0 / SLOW_PEER_MULTIPLIER - 0.01, False),
        (10.0 / SLOW_PEER_MULTIPLIER, True),
        (100.0, True),
    ])
    def test_slow_once_the_multiplied_ewma_reaches_the_ceiling(self, ewma_ms, slow):
        tracker = PeerLatencyTracker()
        tracker.ewma["B"] = ewma_ms
        assert tracker.is_slow("B", ceiling_ms=10.0) is slow


class TestHedge:
    def test_a_never_observed_peer_waits_the_floor(self):
        assert PeerLatencyTracker().hedge_ms("B", floor_ms=2.0) == 2.0

    def test_a_fast_peer_is_held_to_the_floor(self):
        tracker = PeerLatencyTracker()
        tracker.ewma["B"] = 0.1
        assert tracker.hedge_ms("B", floor_ms=2.0) == 2.0

    def test_a_slow_peer_waits_a_multiple_of_its_round_trip(self):
        tracker = PeerLatencyTracker()
        tracker.ewma["B"] = 7.0
        assert tracker.hedge_ms("B", floor_ms=2.0) == HEDGE_EWMA_MULTIPLIER * 7.0
