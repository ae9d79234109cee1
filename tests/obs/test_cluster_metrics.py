"""The unified snapshot contract: one schema, both backends, goldens intact.

Four properties pin the metrics layer down:

* **Schema parity** — ``metrics_snapshot()`` returns the *same key set* from
  the simulator and the asyncio backend, so dashboards and ``--stats-json``
  consumers never branch on backend.
* **Shutdown flush** — the asyncio cluster's snapshot stays readable (and
  complete) after ``stop()``, because it is captured once the daemons have
  drained but before the transports close.
* **One latency summary** — ``requests.latency_ms.*`` is
  :func:`~repro.analysis.stats.summarize` over the successful requests, so
  it equals :func:`~repro.analysis.latency.analyze_requests` and the
  ``cluster`` table.
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

from repro.analysis import analyze_requests, measure_simulated_cluster
from repro.cli import _cluster_table, build_parser
from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.kvstore import SimulatedCluster
from repro.kvstore.asyncio_cluster import AsyncioCluster
from repro.kvstore.protocol import RequestRecord
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
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True), seed=11,
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


LATENCY_KEYS = ("count", "sum", "min", "max", "mean", "p50", "p95", "p99")


def idle_cluster():
    """A simulated cluster that has served nothing, with one client."""
    cluster = SimulatedCluster(
        create("dvv"), server_ids=SERVER_IDS,
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True), seed=11,
        anti_entropy_interval_ms=None, hint_replay_interval_ms=None)
    cluster.client("c1")
    return cluster


def record(latency_ms: float, ok: bool = True) -> RequestRecord:
    return RequestRecord(operation="get", key="k", client_id="c1",
                         started_at=100.0, finished_at=100.0 + latency_ms, ok=ok)


def wipe_all_but_the_coordinator(cluster, key: str) -> None:
    """Every replica a read of ``key`` may ask loses the key."""
    coordinator = cluster.placement.extended_preference_list(key)[0]
    for server_id, server in cluster.servers.items():
        if server_id != coordinator:
            server.node.wipe()


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

    def test_unchanged_merge_counter_is_reported_by_both_backends(self):
        """``merges_unchanged`` counts merges that stored nothing; the GET
        after the writes finds its replies agreeing, so some did."""
        sim = run_simulated_workload().metrics_snapshot()
        cluster, _ = asyncio.run(run_asyncio_workload())
        for snap in (sim, cluster.metrics_snapshot()):
            merges = sum(snap[f"storage.{name}"] for name in
                         ("merges", "hint_replays", "merkle_syncs", "handoffs"))
            assert 0 < snap["storage.merges_unchanged"] <= merges
            for node in SERVER_IDS:
                assert f"node.{node}.merges_unchanged" in snap

    def test_ranges_shipped_whole_is_reported_by_both_backends(self):
        """A wiped replica is rebuilt without a descent on either backend."""
        sim = run_simulated_workload()
        sim.servers["C"].node.wipe()
        before = sim.metrics_snapshot()
        sim.servers["A"].start_merkle_sync_with("C")
        sim.drain()

        async def rebuild():
            cluster = AsyncioCluster(
                create("dvv"), server_ids=SERVER_IDS,
                quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
                anti_entropy_interval_ms=None, hint_replay_interval_ms=None)
            async with cluster:
                client = await cluster.client("c1")
                for index in range(6):
                    await client.put(f"k{index}", f"v{index}")
                cluster.servers["C"].node.wipe()
                start = cluster.metrics_snapshot()
                cluster.servers["A"].start_merkle_sync_with("C")
                await cluster.converge(timeout_s=10.0)
            return start, cluster.metrics_snapshot()

        real_before, real_after = asyncio.run(rebuild())
        for start, end in ((before, sim.metrics_snapshot()),
                           (real_before, real_after)):
            assert end["merkle.ranges_shipped_whole"] > start["merkle.ranges_shipped_whole"]
            assert end["merkle.levels_sent"] == start["merkle.levels_sent"]

    def test_read_hedge_counters_are_reported_by_both_backends(self):
        """Zero on a healthy run; the golden scenario's crash makes reads hedge."""
        sim = run_simulated_workload().metrics_snapshot()
        cluster, _ = asyncio.run(run_asyncio_workload())
        for snap in (sim, cluster.metrics_snapshot()):
            assert snap["coordinator.read_hedges"] == 0
            assert snap["coordinator.reserve_contacts"] == 0
        failing = run_golden_scenario("dvv").metrics_snapshot()
        assert failing["coordinator.read_hedges"] > 0
        assert failing["coordinator.reserve_contacts"] > 0

    def test_unchanged_replies_are_counted_by_both_backends(self):
        """An agreeing replica's bare reply counts; a diverged one's does not."""
        def simulated(diverge: bool) -> int:
            cluster = SimulatedCluster(
                create("dvv"), server_ids=SERVER_IDS,
                quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True), seed=11,
                anti_entropy_interval_ms=None, hint_replay_interval_ms=None)
            client = cluster.client("c1")
            client.put("k", "v")
            cluster.run(until=50.0)
            if diverge:
                wipe_all_but_the_coordinator(cluster, "k")
            client.get("k")
            cluster.run(until=100.0)
            return cluster.metrics_snapshot()["coordinator.unchanged_replies"]

        async def real(diverge: bool) -> int:
            cluster = AsyncioCluster(
                create("dvv"), server_ids=SERVER_IDS,
                quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
                anti_entropy_interval_ms=None, hint_replay_interval_ms=None)
            async with cluster:
                client = await cluster.client("c1")
                await client.put("k", "v")
                await cluster.converge(timeout_s=10.0)
                if diverge:
                    wipe_all_but_the_coordinator(cluster, "k")
                await client.get("k")
            return cluster.metrics_snapshot()["coordinator.unchanged_replies"]

        assert simulated(diverge=False) > 0
        assert simulated(diverge=True) == 0
        assert asyncio.run(real(diverge=False)) > 0
        assert asyncio.run(real(diverge=True)) == 0

    def test_snapshot_reads_do_not_mutate(self):
        cluster = run_simulated_workload()
        assert cluster.metrics_snapshot() == cluster.metrics_snapshot()

    def test_nested_stats_flatten_to_dotted_scalar_keys(self):
        snap = run_simulated_workload().metrics_snapshot()
        assert snap["node.A.pending_hints"] == 0
        assert snap["requests.latency_ms.count"] == snap["requests.ok"]
        assert not any(isinstance(value, (dict, list)) for value in snap.values())
        assert {name.split(".")[0] for name in snap} == {
            "coordinator", "merkle", "node", "read_repair", "requests",
            "storage", "transport"}

    def test_state_is_read_at_call_time(self):
        cluster = run_simulated_workload()
        first = cluster.metrics_snapshot()
        cluster.servers["A"].node.stats["hints_stored"] += 5
        cluster.clients["c1"].records.append(record(2.0, ok=False))
        second = cluster.metrics_snapshot()
        assert second["node.A.hints_stored"] == first["node.A.hints_stored"] + 5
        assert second["storage.hints_stored"] == first["storage.hints_stored"] + 5
        assert second["requests.failed"] == first["requests.failed"] + 1

    def test_a_joined_node_appears_in_the_next_snapshot(self):
        cluster = run_simulated_workload()
        before = cluster.metrics_snapshot()
        assert not any(name.startswith("node.D.") for name in before)
        cluster.join_node("D")
        cluster.drain()
        after = cluster.metrics_snapshot()
        assert after["node.D.pending_hints"] == 0
        assert {name.split(".", 2)[2] for name in after
                if name.startswith("node.D.")} == {
            name.split(".", 2)[2] for name in after if name.startswith("node.A.")}
        assert after["storage.handoffs"] == sum(
            after[f"node.{node}.handoffs"] for node in (*SERVER_IDS, "D"))

    def test_a_decommissioned_node_leaves_the_next_snapshot(self):
        """Its per-node keys go; the storage totals keep its counters."""
        cluster = run_simulated_workload()
        before = cluster.metrics_snapshot()
        assert before["node.C.merges"] > 0
        cluster.decommission_node("C")
        cluster.drain()
        after = cluster.metrics_snapshot()
        assert not any(name.startswith("node.C.") for name in after)
        assert after["storage.merges"] == before["node.C.merges"] + sum(
            after[f"node.{node}.merges"] for node in ("A", "B"))

    def test_stored_metadata_row_is_the_metadata_report_total(self):
        """``repro cluster`` reads ``metadata_bytes()``; the full report's
        ``total_bytes`` is the same number."""
        cluster = run_simulated_workload()
        table = _cluster_table(build_parser().parse_args(["cluster"]),
                               cluster, 300.0, "run")
        row = next(line for line in table.splitlines()
                   if line.startswith("stored metadata bytes"))
        total = measure_simulated_cluster(cluster).total_bytes
        assert total > 0
        assert row.split()[-1] == str(total)


class TestLatencySummary:
    def test_no_successful_request_reports_every_latency_key_as_zero(self):
        cluster = idle_cluster()
        assert cluster.metrics_snapshot()["requests.completed"] == 0
        cluster.clients["c1"].records.append(record(3.0, ok=False))
        snap = cluster.metrics_snapshot()
        assert (snap["requests.completed"], snap["requests.ok"],
                snap["requests.failed"]) == (1, 0, 1)
        for name in LATENCY_KEYS:
            assert snap[f"requests.latency_ms.{name}"] == 0, name

    def test_no_successful_request_counts_no_phantom_request(self):
        cluster = idle_cluster()
        overall = analyze_requests("dvv", []).overall
        assert overall.count == 0
        assert cluster.metrics_snapshot()["requests.latency_ms.count"] == overall.count
        cluster.clients["c1"].records.append(record(3.0, ok=False))
        failed_only = analyze_requests("dvv", cluster.all_request_records()).overall
        assert failed_only.count == 0
        assert cluster.metrics_snapshot()["requests.latency_ms.count"] == failed_only.count

    def test_latency_block_is_the_analysis_summary(self):
        """Latencies 1..4 ms: the interpolated p95 is 3.85, nearest rank 4."""
        cluster = idle_cluster()
        cluster.clients["c1"].records.extend(
            [record(latency) for latency in (4.0, 1.0, 3.0, 2.0)]
            + [record(50.0, ok=False)])
        snap = cluster.metrics_snapshot()
        overall = analyze_requests("dvv", cluster.all_request_records()).overall
        assert snap["requests.latency_ms.p95"] == pytest.approx(3.85)
        assert [snap[f"requests.latency_ms.{name}"] for name in LATENCY_KEYS] == [
            overall.count, overall.total, overall.minimum, overall.maximum,
            overall.mean, overall.median, overall.p95, overall.p99]


    def test_aggregates_are_exact(self):
        cluster = idle_cluster()
        cluster.clients["c1"].records.extend(
            record(latency) for latency in (0.5, 2.0, 1.5, 4.0))
        snap = cluster.metrics_snapshot()
        assert [snap[f"requests.latency_ms.{name}"]
                for name in ("count", "sum", "min", "max", "mean", "p50")] == [
            4, 8.0, 0.5, 4.0, 2.0, 1.75]

    def test_every_successful_request_counts_past_a_hundred_thousand(self):
        """The summary keeps no sample cap: the slow tail recorded after
        100,000 fast requests moves the percentiles."""
        cluster = idle_cluster()
        records = cluster.clients["c1"].records
        records.extend(record(1.0) for _ in range(100_000))
        records.extend(record(9.0) for _ in range(2_000))
        snap = cluster.metrics_snapshot()
        assert snap["requests.latency_ms.count"] == 102_000
        assert snap["requests.latency_ms.max"] == pytest.approx(9.0)
        assert snap["requests.latency_ms.p99"] == pytest.approx(9.0)
        assert snap["requests.latency_ms.p95"] == pytest.approx(1.0)


class TestAsyncioShutdownFlush:
    def test_post_stop_snapshot_keeps_final_stats(self):
        cluster, live = asyncio.run(run_asyncio_workload())
        final = cluster.metrics_snapshot()
        # the flush happened: post-stop reads still see the whole run, with
        # at least everything the last live snapshot had already counted
        assert final["requests.completed"] == 7
        assert final["transport.delivered"] >= live["transport.delivered"]
        assert sorted(final) == sorted(live)

    def test_post_stop_latency_block_is_the_analysis_summary(self):
        cluster, _ = asyncio.run(run_asyncio_workload())
        final = cluster.metrics_snapshot()
        overall = analyze_requests("dvv", cluster.all_request_records()).overall
        assert [final[f"requests.latency_ms.{name}"] for name in LATENCY_KEYS] == [
            overall.count, overall.total, overall.minimum, overall.maximum,
            overall.mean, overall.median, overall.p95, overall.p99]


@pytest.mark.parametrize("scenario_key",
                         [key for key in sorted(GOLDEN)
                          if key.startswith("dvv:")])
def test_tracing_leaves_golden_scenarios_bit_for_bit_identical(scenario_key):
    sink = InMemoryTraceSink()
    cluster = run_golden_scenario(scenario_key.split(":")[0],
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
