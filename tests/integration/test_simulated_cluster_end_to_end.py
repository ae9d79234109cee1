"""Integration: full message-passing cluster runs (quorums, repair, partitions,
failures, latency) under the paper's mechanism and its baselines.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_requests, measure_simulated_cluster
from repro.clocks import ClientVVMechanism, DVVMechanism, create
from repro.cluster import QuorumConfig
from repro.kvstore import SimulatedCluster
from repro.network import FixedLatency, SizeDependentLatency
from repro.workloads import ClosedLoopConfig, run_closed_loop_workload


def build_cluster(mechanism, seed=0, latency=None, **kwargs):
    return SimulatedCluster(
        mechanism,
        server_ids=("n1", "n2", "n3"),
        latency=latency or FixedLatency(0.5),
        quorum=kwargs.pop("quorum", QuorumConfig(n=3, r=2, w=2)),
        anti_entropy_interval_ms=kwargs.pop("anti_entropy_interval_ms", 40.0),
        seed=seed,
        **kwargs,
    )


class TestClosedLoopWorkloads:
    @pytest.mark.parametrize("mechanism_name", ["dvv", "dvvset", "client_vv", "server_vv"])
    def test_workload_completes_under_every_mechanism(self, mechanism_name):
        cluster = build_cluster(create(mechanism_name), seed=7)
        config = ClosedLoopConfig(keys=("k1", "k2"), think_time_ms=4.0,
                                  write_fraction=0.5, stop_at_ms=400.0)
        run_closed_loop_workload(cluster, client_count=4, config=config)
        records = cluster.all_request_records()
        assert len(records) > 20
        assert all(record.ok for record in records)
        report = analyze_requests(mechanism_name, records)
        assert report.overall.mean > 0

    def test_replicas_converge_after_drain(self):
        cluster = build_cluster(DVVMechanism(), seed=9)
        config = ClosedLoopConfig(keys=("hot",), think_time_ms=3.0,
                                  write_fraction=0.7, stop_at_ms=300.0)
        run_closed_loop_workload(cluster, client_count=5, config=config)
        fingerprints = {
            server_id: frozenset(s.origin_dot for s in server.node.siblings_of("hot"))
            for server_id, server in cluster.servers.items()
        }
        assert len(set(fingerprints.values())) == 1

    def test_message_loss_does_not_stall_the_store(self):
        cluster = build_cluster(DVVMechanism(), seed=11, loss_probability=0.05,
                                quorum=QuorumConfig(n=3, r=1, w=1))
        config = ClosedLoopConfig(keys=("k",), think_time_ms=5.0,
                                  write_fraction=0.5, stop_at_ms=300.0)
        run_closed_loop_workload(cluster, client_count=3, config=config)
        records = cluster.all_request_records()
        assert len(records) > 5


class TestPartitionsAndFailures:
    def test_writes_during_partition_merge_afterwards(self):
        cluster = build_cluster(DVVMechanism(), seed=13, quorum=QuorumConfig(n=3, r=1, w=1))
        alice = cluster.client("alice")
        bob = cluster.client("bob")

        servers = sorted(cluster.servers)
        # Alice can only reach the first server, Bob only the last two.
        cluster.partitions.partition({servers[0], alice.address},
                                     {servers[1], servers[2], bob.address})
        alice_coordinator = servers[0]
        bob_coordinator = servers[1]

        # Route around the placement service: send directly to reachable nodes.
        from repro.network.message import Message, MessageType
        alice_sibling = alice.session.prepare_write("k", "from-alice")
        cluster.transport.send(Message(
            sender=alice.address, receiver=alice_coordinator,
            msg_type=MessageType.COORDINATE_PUT,
            payload={"key": "k", "sibling": alice_sibling, "context": None},
            size_bytes=32))
        bob_sibling = bob.session.prepare_write("k", "from-bob")
        cluster.transport.send(Message(
            sender=bob.address, receiver=bob_coordinator,
            msg_type=MessageType.COORDINATE_PUT,
            payload={"key": "k", "sibling": bob_sibling, "context": None},
            size_bytes=32))
        cluster.run(until=100)

        cluster.partitions.heal()
        cluster.run(until=600)
        cluster.drain()

        values = {
            server_id: sorted(server.node.values_of("k"))
            for server_id, server in cluster.servers.items()
        }
        # After healing and anti-entropy every replica holds both concurrent writes.
        assert all(vals == ["from-alice", "from-bob"] for vals in values.values()), values

    def test_node_failure_and_recovery(self):
        cluster = build_cluster(DVVMechanism(), seed=17, quorum=QuorumConfig(n=3, r=2, w=2))
        client = cluster.client("alice")
        client.put("k", "v1")
        cluster.run(until=50)

        victim = cluster.placement.primary_replicas("k")[1]
        cluster.fail_node(victim)
        client.get("k", lambda r: client.put("k", "v2"))
        cluster.run(until=150)

        cluster.recover_node(victim)
        cluster.run(until=800)
        cluster.drain()
        assert cluster.servers[victim].node.values_of("k") == ["v2"]


class TestLatencyComparison:
    def test_metadata_size_shows_up_in_latency_and_bytes(self):
        """The E4 effect end-to-end: same workload, DVV requests carry less
        metadata and finish faster than per-client-VV requests."""
        def run(mechanism):
            cluster = build_cluster(
                mechanism, seed=23,
                latency=SizeDependentLatency(base=FixedLatency(0.2), bytes_per_ms=400.0),
                anti_entropy_interval_ms=60.0,
            )
            config = ClosedLoopConfig(keys=("hot",), think_time_ms=3.0,
                                      write_fraction=0.6, stop_at_ms=500.0)
            run_closed_loop_workload(cluster, client_count=8, config=config)
            report = analyze_requests(cluster.mechanism.name, cluster.all_request_records())
            meta = measure_simulated_cluster(cluster)
            return report, meta, cluster.transport.stats.bytes_sent

        dvv_report, dvv_meta, dvv_bytes = run(DVVMechanism())
        cvv_report, cvv_meta, cvv_bytes = run(ClientVVMechanism())

        assert cvv_meta.total_bytes > dvv_meta.total_bytes
        assert cvv_bytes > dvv_bytes
        assert cvv_report.overall.mean > dvv_report.overall.mean
