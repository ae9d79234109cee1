"""Unit tests for the simulated transport."""

from __future__ import annotations

import pytest

from repro.core import ConfigurationError
from repro.network import (
    FixedLatency,
    Message,
    MessageType,
    PartitionManager,
    PerLinkLatency,
    Simulation,
    Transport,
)


def make_transport(**kwargs):
    sim = Simulation(seed=kwargs.pop("seed", 0))
    transport = Transport(sim, **kwargs)
    return sim, transport


def ping(sender, receiver, size=0):
    return Message(sender=sender, receiver=receiver, msg_type=MessageType.PING,
                   size_bytes=size)


class TestDelivery:
    def test_message_delivered_after_latency(self):
        sim, transport = make_transport(latency=FixedLatency(3.0))
        received = []
        transport.register("B", received.append)
        transport.register("A", lambda m: None)
        transport.send(ping("A", "B"))
        assert received == []          # not yet delivered
        sim.run_until_idle()
        assert len(received) == 1
        assert sim.now == 3.0
        assert transport.stats.delivered == 1

    def test_per_link_latency_honoured(self):
        sim, _ = make_transport()
        latency = PerLinkLatency(default=FixedLatency(1.0))
        latency.set_link("A", "B", FixedLatency(9.0))
        transport = Transport(sim, latency=latency)
        arrivals = {}
        transport.register("B", lambda m: arrivals.setdefault("B", sim.now))
        transport.register("C", lambda m: arrivals.setdefault("C", sim.now))
        transport.send(ping("A", "B"))
        transport.send(ping("A", "C"))
        sim.run_until_idle()
        assert arrivals["B"] == 9.0
        assert arrivals["C"] == 1.0

    def test_unknown_destination_counted(self):
        sim, transport = make_transport()
        transport.send(ping("A", "missing"))
        sim.run_until_idle()
        assert transport.stats.dropped_unknown_destination == 1
        assert transport.stats.delivered == 0

    def test_duplicate_registration_rejected(self):
        _, transport = make_transport()
        transport.register("A", lambda m: None)
        with pytest.raises(ConfigurationError):
            transport.register("A", lambda m: None)

    def test_unregister(self):
        sim, transport = make_transport()
        transport.register("A", lambda m: None)
        transport.unregister("A")
        assert not transport.is_registered("A")
        transport.send(ping("B", "A"))
        sim.run_until_idle()
        assert transport.stats.dropped_unknown_destination == 1


class TestUnreliability:
    def test_loss_probability(self):
        sim, transport = make_transport(loss_probability=0.5, seed=7)
        received = []
        transport.register("B", received.append)
        for _ in range(200):
            transport.send(ping("A", "B"))
        sim.run_until_idle()
        assert transport.stats.dropped_loss > 30
        assert len(received) > 30
        assert len(received) + transport.stats.dropped_loss == 200

    def test_duplicates(self):
        sim, transport = make_transport(duplicate_probability=0.5, seed=11)
        received = []
        transport.register("B", received.append)
        for _ in range(100):
            transport.send(ping("A", "B"))
        sim.run_until_idle()
        assert len(received) > 100
        assert transport.stats.duplicated == len(received) - 100

    def test_invalid_probabilities(self):
        with pytest.raises(ConfigurationError):
            make_transport(loss_probability=1.5)
        with pytest.raises(ConfigurationError):
            make_transport(duplicate_probability=-0.1)


class TestPartitions:
    def test_partitioned_nodes_cannot_communicate(self):
        partitions = PartitionManager()
        sim, _ = make_transport()
        transport = Transport(sim, partitions=partitions)
        received = []
        transport.register("A", lambda m: None)
        transport.register("B", received.append)
        partitions.partition({"A"}, {"B"})
        transport.send(ping("A", "B"))
        sim.run_until_idle()
        assert received == []
        assert transport.stats.dropped_partition == 1

        partitions.heal()
        transport.send(ping("A", "B"))
        sim.run_until_idle()
        assert len(received) == 1


class TestAccounting:
    def test_bytes_and_type_counters(self):
        sim, transport = make_transport()
        transport.register("B", lambda m: None)
        transport.send(ping("A", "B", size=100))
        transport.send(ping("A", "B", size=200))
        sim.run_until_idle()
        assert transport.stats.bytes_sent == 300
        assert transport.stats.per_type["ping"] == 2
        assert transport.stats.bytes_delivered == 300
        assert transport.stats.bytes_dropped == 0
        assert transport.stats.bytes_for("ping") == 300

    def test_partition_dropped_bytes_not_counted_as_delivered(self):
        partitions = PartitionManager()
        sim, _ = make_transport()
        transport = Transport(sim, partitions=partitions)
        transport.register("A", lambda m: None)
        transport.register("B", lambda m: None)
        partitions.partition({"A"}, {"B"})
        transport.send(ping("A", "B", size=150))
        sim.run_until_idle()
        assert transport.stats.bytes_sent == 150       # attempted
        assert transport.stats.bytes_delivered == 0
        assert transport.stats.bytes_dropped == 150
        assert transport.stats.bytes_for("ping") == 0  # delivered view
        assert transport.stats.attempted_bytes_for("ping") == 150
        assert transport.stats.dropped_bytes_per_type["ping"] == 150

    def test_receiver_crash_mid_flight_counts_as_dropped(self):
        sim, transport = make_transport(latency=FixedLatency(5.0))
        transport.register("B", lambda m: None)
        transport.send(ping("A", "B", size=80))
        transport.unregister("B")                      # crash before delivery
        sim.run_until_idle()
        assert transport.stats.dropped_unknown_destination == 1
        assert transport.stats.bytes_delivered == 0
        assert transport.stats.bytes_dropped == 80

    def test_duplicate_delivery_counts_delivered_bytes_twice(self):
        sim, transport = make_transport(duplicate_probability=0.999, seed=3)
        transport.register("B", lambda m: None)
        transport.send(ping("A", "B", size=50))
        sim.run_until_idle()
        assert transport.stats.duplicated == 1
        assert transport.stats.bytes_sent == 50        # one attempted send
        assert transport.stats.bytes_delivered == 100  # arrived twice

    def test_trace_recording(self):
        sim, transport = make_transport()
        transport.register("B", lambda m: None)
        transport.trace_enabled = True
        transport.send(ping("A", "B"))
        assert len(transport.trace) == 1

    def test_message_reply_correlation(self):
        request = ping("A", "B")
        reply = request.reply(MessageType.PONG, {"ok": True})
        assert reply.sender == "B" and reply.receiver == "A"
        assert reply.request_id == request.msg_id
        assert reply.payload == {"ok": True}


class TestDeadlines:
    def test_deadline_fires_after_delay(self):
        sim, transport = make_transport()
        fired = []
        transport.schedule(7.5, lambda: fired.append(sim.now))
        sim.run_until_idle()
        assert fired == [7.5]

    def test_cancelled_deadline_does_not_fire(self):
        sim, transport = make_transport()
        fired = []
        handle = transport.schedule(5.0, lambda: fired.append(True))
        transport.cancel(handle)
        sim.run_until_idle()
        assert fired == []

    def test_cancel_is_idempotent_and_tolerates_none(self):
        sim, transport = make_transport()
        handle = transport.schedule(1.0, lambda: None)
        transport.cancel(handle)
        transport.cancel(handle)
        transport.cancel(None)
