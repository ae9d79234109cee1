"""Unit tests for the latency models."""

from __future__ import annotations

import random

import pytest

from repro.core import ConfigurationError
from repro.network import (
    FixedLatency,
    PerLinkLatency,
    SizeDependentLatency,
    UniformLatency,
)


class TestFixedLatency:
    def test_constant(self):
        model = FixedLatency(2.5)
        rng = random.Random(0)
        assert model.sample(rng) == 2.5
        assert model.sample(rng, size_bytes=10_000) == 2.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FixedLatency(-1)


class TestUniformLatency:
    def test_within_bounds(self):
        model = UniformLatency(1.0, 3.0)
        rng = random.Random(1)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(1.0 <= s <= 3.0 for s in samples)
        assert max(samples) - min(samples) > 0.5  # actually varies

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(3.0, 1.0)
        with pytest.raises(ConfigurationError):
            UniformLatency(-1.0, 1.0)


class TestSizeDependentLatency:
    def test_larger_messages_take_longer(self):
        model = SizeDependentLatency(base=FixedLatency(1.0), bytes_per_ms=1000.0,
                                     per_message_overhead_ms=0.0)
        rng = random.Random(3)
        small = model.sample(rng, size_bytes=100)
        large = model.sample(rng, size_bytes=10_000)
        assert small == pytest.approx(1.1)
        assert large == pytest.approx(11.0)
        assert large > small

    def test_metadata_size_effect_matches_paper_direction(self):
        """A request carrying a big client-VV context is slower than one
        carrying a replica-bounded DVV context — the E4 effect in miniature."""
        model = SizeDependentLatency(base=FixedLatency(0.5), bytes_per_ms=2000.0)
        rng = random.Random(4)
        dvv_context_bytes = 40          # ~3 server entries
        client_vv_context_bytes = 1200  # ~100 client entries
        assert model.sample(rng, client_vv_context_bytes) > model.sample(rng, dvv_context_bytes)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SizeDependentLatency(bytes_per_ms=0)
        with pytest.raises(ConfigurationError):
            SizeDependentLatency(per_message_overhead_ms=-1)


class TestPerLinkLatency:
    def test_link_override(self):
        model = PerLinkLatency(default=FixedLatency(1.0))
        model.set_link("A", "B", FixedLatency(10.0))
        assert model.for_link("A", "B").sample(random.Random(0)) == 10.0
        assert model.for_link("B", "A").sample(random.Random(0)) == 10.0  # symmetric
        assert model.for_link("A", "C").sample(random.Random(0)) == 1.0

    def test_asymmetric_link(self):
        model = PerLinkLatency(default=FixedLatency(1.0))
        model.set_link("A", "B", FixedLatency(7.0), symmetric=False)
        assert model.for_link("A", "B").sample(random.Random(0)) == 7.0
        assert model.for_link("B", "A").sample(random.Random(0)) == 1.0

    def test_default_sample(self):
        model = PerLinkLatency(default=FixedLatency(2.0))
        assert model.sample(random.Random(0)) == 2.0


class TestWanLatency:
    def _topology(self):
        from repro.cluster import Topology
        return Topology({"n1": "east", "n2": "east", "n3": "west",
                         "client:c0": "west"})

    def test_intra_vs_cross_resolution(self):
        from repro.network import WanLatency
        model = WanLatency(self._topology(),
                           intra=FixedLatency(0.5), cross=FixedLatency(20.0))
        rng = random.Random(0)
        assert model.for_link("n1", "n2").sample(rng) == 0.5
        assert model.for_link("n1", "n3").sample(rng) == 20.0
        assert model.for_link("n3", "n1").sample(rng) == 20.0
        # pinned client addresses resolve through the topology too
        assert model.for_link("client:c0", "n3").sample(rng) == 0.5
        assert model.for_link("client:c0", "n1").sample(rng) == 20.0

    def test_explicit_link_override_wins(self):
        from repro.network import WanLatency
        model = WanLatency(self._topology(),
                           intra=FixedLatency(0.5), cross=FixedLatency(20.0))
        model.set_link("n1", "n2", FixedLatency(99.0))
        assert model.for_link("n1", "n2").sample(random.Random(0)) == 99.0
        assert model.for_link("n1", "n3").sample(random.Random(0)) == 20.0

    def test_default_models_are_wan_shaped(self):
        from repro.network import WanLatency
        model = WanLatency(self._topology())
        rng = random.Random(7)
        intra = [model.for_link("n1", "n2").sample(rng) for _ in range(50)]
        cross = [model.for_link("n1", "n3").sample(rng) for _ in range(50)]
        assert max(intra) < min(cross)  # WAN strictly slower than the fabric

    def test_transport_routes_through_wan_model(self):
        # The transport's PerLinkLatency special case applies to WanLatency.
        from repro.cluster import Topology
        from repro.network import Simulation, Transport, WanLatency
        topology = Topology({"A": "east", "B": "east", "C": "west"})
        sim = Simulation(seed=3)
        transport = Transport(sim, latency=WanLatency(
            topology, intra=FixedLatency(0.5), cross=FixedLatency(25.0)))
        arrivals = {}
        from repro.network import Message, MessageType
        for node in ("A", "B", "C"):
            transport.register(node, lambda m, node=node: arrivals.setdefault(node, sim.now))
        transport.send(Message("A", "B", MessageType.PING, {}))
        transport.send(Message("A", "C", MessageType.PING, {}))
        sim.run_until_idle()
        assert arrivals["B"] == pytest.approx(0.5)
        assert arrivals["C"] == pytest.approx(25.0)
