"""The unified snapshot contract: one schema, both backends, goldens intact.

Three properties pin the metrics layer down:

* **Schema parity** — ``metrics_snapshot()`` returns the *same key set* from
  the simulator and the asyncio backend, so dashboards and ``--stats-json``
  consumers never branch on backend.
* **Shutdown flush** — the asyncio cluster's snapshot stays readable (and
  complete) after ``stop()``, because it is captured once the daemons have
  drained but before the transports close.
* **Zero perturbation** — re-running the golden-fixture scenario with a live
  tracer attached reproduces every golden number bit-for-bit: observability
  reads the run, it never participates in it.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import sys

import pytest

from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.kvstore import SimulatedCluster
from repro.kvstore.asyncio_cluster import AsyncioCluster
from repro.obs import InMemoryTraceSink, Tracer

# The golden scenario lives with the protocol tests; reuse it verbatim so
# "tracing changes nothing" is asserted against the exact pinned run.
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "protocol"))
from test_golden_equivalence import (  # noqa: E402
    GOLDEN,
    POST_GOLDEN_ZERO_STATS,
    run_golden_scenario,
    snapshot,
)

SERVER_IDS = ("A", "B", "C")


def run_simulated_workload():
    cluster = SimulatedCluster(
        create("dvv"), server_ids=SERVER_IDS,
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
        request_mode="async", seed=11,
    )
    client = cluster.client("c1")
    for index in range(6):
        client.put(f"k{index % 2}", f"v{index}")
    client.get("k0")
    cluster.run(until=300.0)
    return cluster


async def run_asyncio_workload():
    cluster = AsyncioCluster(
        create("dvv"), server_ids=SERVER_IDS,
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
    )
    async with cluster:
        client = await cluster.client("c1")
        for index in range(6):
            await client.put(f"k{index % 2}", f"v{index}")
        await client.get("k0")
        live = cluster.metrics_snapshot()
    return cluster, live


class TestSnapshotSchema:
    def test_identical_key_set_across_backends(self):
        sim = run_simulated_workload().metrics_snapshot()
        cluster, _ = asyncio.run(run_asyncio_workload())
        assert sorted(sim) == sorted(cluster.metrics_snapshot())

    def test_snapshot_is_json_serializable_and_sorted(self):
        snap = run_simulated_workload().metrics_snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert list(snap) == sorted(snap)

    def test_every_preexisting_stat_family_is_present(self):
        snap = run_simulated_workload().metrics_snapshot()
        for name in ("storage.hints_stored", "merkle.exchanges_started",
                     "transport.sent", "transport.bytes_delivered",
                     "transport.sync_bytes", "read_repair.reads_checked",
                     "requests.completed", "requests.latency_ms.p95",
                     "node.A.pending_hints"):
            assert name in snap, name

    def test_record_table_counters_are_reported_by_both_backends(self):
        sim = run_simulated_workload().metrics_snapshot()
        assert sim["transport.record_hits"] == sim["transport.record_misses"] == 0
        cluster, _ = asyncio.run(run_asyncio_workload())
        real = cluster.metrics_snapshot()
        # 6 writes to 2 keys: every write is parsed once per receiving
        # endpoint, and replicas see the surviving pairs again on later puts.
        assert real["transport.record_misses"] > 0
        assert real["transport.record_hits"] > 0

    def test_socket_reads_and_shed_frames_are_reported_by_both_backends(self):
        sim = run_simulated_workload().metrics_snapshot()
        assert sim["transport.socket_reads"] == 0
        assert sim["transport.dropped_backpressure"] == 0
        cluster, _ = asyncio.run(run_asyncio_workload())
        real = cluster.metrics_snapshot()
        # At least one frame per wake-up, and nothing shed on a healthy run.
        assert 0 < real["transport.socket_reads"] <= real["transport.delivered"]
        assert real["transport.dropped_backpressure"] == 0

    def test_merkle_waste_counter_is_reported_by_both_backends(self):
        """``keys_unchanged / keys_transferred`` is the exchange's waste ratio."""
        sim = run_simulated_workload().metrics_snapshot()
        cluster, _ = asyncio.run(run_asyncio_workload())
        for snap in (sim, cluster.metrics_snapshot()):
            assert 0 <= snap["merkle.keys_unchanged"] <= snap["merkle.keys_transferred"]

    def test_snapshot_reads_do_not_mutate(self):
        cluster = run_simulated_workload()
        assert cluster.metrics_snapshot() == cluster.metrics_snapshot()


class TestAsyncioShutdownFlush:
    def test_post_stop_snapshot_keeps_final_stats(self):
        cluster, live = asyncio.run(run_asyncio_workload())
        final = cluster.metrics_snapshot()
        # the flush happened: post-stop reads still see the whole run, with
        # at least everything the last live snapshot had already counted
        assert final["requests.completed"] == 7
        assert final["transport.delivered"] >= live["transport.delivered"]
        assert sorted(final) == sorted(live)


@pytest.mark.parametrize("scenario_key",
                         [key for key in sorted(GOLDEN)
                          if key.startswith("dvv:")])
def test_tracing_leaves_golden_scenarios_bit_for_bit_identical(scenario_key):
    mechanism_name, request_mode = scenario_key.split(":")
    sink = InMemoryTraceSink()
    cluster = run_golden_scenario(mechanism_name, request_mode,
                                  tracer=Tracer(sink))
    actual = snapshot(cluster)
    actual_totals = actual["stat_totals"]
    for stat in POST_GOLDEN_ZERO_STATS:
        assert actual_totals.pop(stat, 0) == 0
    expected = GOLDEN[scenario_key]
    for field in expected:
        assert actual[field] == expected[field], (
            f"{scenario_key}: {field} drifted once tracing was enabled")
    # and the tracer really was live — the run produced a full span record
    assert sink.events
    assert sink.find("coordinator.put")
