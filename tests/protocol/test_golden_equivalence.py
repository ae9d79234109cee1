"""The refactor's bit-for-bit contract: the simulator reproduces golden stats.

``golden_cluster_stats.json`` pins a fixed-seed cluster run.  Re-running the
identical scenario must reproduce every number exactly — message counts,
bytes, deadlines, virtual timestamps, per-stat totals, Merkle exchange
counters.  Any drift means the state machines changed behavior, not just
address.

Both fixtures were first captured before the protocol logic moved out of
``simulated.py`` and were **re-captured by ISSUE 22**, the change that made
the Merkle exchange read the live index (no per-exchange tree copy) and stop
mailing back a state it had just received.  That change exists to send fewer
anti-entropy messages, and with one global RNG a message not sent shifts
every later latency draw — so the fields split in two.  ``OUTCOME_FIELDS``
are what the scenario *achieved*; they were required to be bit-for-bit
identical across the re-capture.  ``TRAFFIC_FIELDS`` are what it *cost* on
the wire and in tree work; those moved (none of ``sync_bytes``,
``merkle.keys_transferred``, ``merkle.levels_sent`` or
``stat_totals.snapshot_digests`` rose in any scenario).  A field added to a
fixture later has to be put in one of the two groups.

The scenario is deliberately eventful: four servers, three clients, a mixed
workload, one node failing mid-run and recovering later — so it exercises
quorum coordination, deadlines and failover, sloppy quorums with hinted
handoff (async mode), read repair, and Merkle anti-entropy.
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.kvstore import SimulatedCluster

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_cluster_stats.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

MULTI_DC_GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_multi_dc_stats.json"
MULTI_DC_GOLDEN = json.loads(MULTI_DC_GOLDEN_PATH.read_text())

#: What a scenario achieved — identical before and after ISSUE 22's
#: re-capture (dotted names reach into the ``merkle`` / ``stat_totals`` maps).
OUTCOME_FIELDS = frozenset({
    "records", "ok", "deadlines_set", "metadata_bytes",
    "merkle.exchanges_started", "merkle.partitions_compared",
    "stat_totals.reads", "stat_totals.writes", "stat_totals.hints_stored",
    "stat_totals.hint_replays", "stat_totals.hint_replays_deferred",
    "stat_totals.pending_hints", "stat_totals.handoffs",
    "stat_totals.full_rebuilds", "stat_totals.rebuilds_skipped",
    "stat_totals.fingerprints_imported", "stat_totals.audit_keys_checked",
    "stat_totals.audit_mismatches",
    # multi-DC only: the scenario-level verdict
    "converged", "convergence_rounds", "requests_completed",
    "requests_failed", "lost_updates", "false_concurrency", "datacenters",
    "partition_windows",
})

#: What it cost — anti-entropy traffic and tree work, plus every total
#: downstream of the message count (one RNG draws all latencies).
TRAFFIC_FIELDS = frozenset({
    "sync_bytes", "merkle.keys_transferred", "merkle.keys_unchanged",
    "merkle.levels_sent", "merkle.exchanges_clean",
    "merkle.partitions_differing", "stat_totals.snapshot_digests",
    "stat_totals.merkle_syncs", "stat_totals.keys_hashed",
    "stat_totals.buckets_rehashed", "stat_totals.merges",
    "transport_sent", "transport_delivered", "bytes_delivered", "events",
    "now", "latency_sum",
})


def flatten(scenario: dict) -> dict:
    """One scenario's fixture entry as ``{dotted field name: value}``."""
    flat = {}
    for field, value in scenario.items():
        if field in ("merkle", "stat_totals"):
            flat.update({f"{field}.{name}": item for name, item in value.items()})
        else:
            flat[field] = value
    return flat


#: Stats added after the golden capture; they observe behavior that did not
#: exist (or was not counted) then, so the golden scenario must keep them at
#: zero — any other value means the run itself changed.
POST_GOLDEN_ZERO_STATS = ("rebuilds_skipped", "hint_replays_deferred",
                          "audit_keys_checked", "audit_mismatches")


def run_golden_scenario(mechanism_name: str, request_mode: str, tracer=None):
    """The exact scenario the golden fixture was captured from.

    ``tracer`` lets the observability tests re-run the identical scenario
    with span recording on and assert the golden numbers still hold.
    """
    cluster = SimulatedCluster(
        create(mechanism_name),
        server_ids=("A", "B", "C", "D"),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=request_mode == "async"),
        seed=1234,
        request_mode=request_mode,
        anti_entropy_interval_ms=40.0,
        hint_replay_interval_ms=25.0,
        tracer=tracer,
    )
    rng = random.Random(1234 + 99)
    clients = [cluster.client(f"c{index}") for index in range(3)]
    keys = ["cart", "user", "inv"]

    def issue(index: int) -> None:
        client = clients[index % 3]
        key = keys[rng.randrange(3)]
        if rng.random() < 0.55:
            client.put(key, f"v{index}")
        else:
            client.get(key)

    at = 0.0
    for index in range(60):
        at += 3.0
        cluster.simulation.schedule_at(at, lambda index=index: issue(index))
    cluster.simulation.schedule_at(60.0, lambda: cluster.fail_node("B"))
    cluster.simulation.schedule_at(130.0, lambda: cluster.recover_node("B"))
    cluster.simulation.run(until=400.0)
    cluster.converge()
    return cluster


def snapshot(cluster: SimulatedCluster) -> dict:
    """The observable footprint of a run, shaped like the golden fixture."""
    records = cluster.all_request_records()
    merkle = cluster.merkle_stats
    return {
        "stat_totals": cluster.stat_totals(),
        "merkle": {
            "exchanges_started": merkle.exchanges_started,
            "exchanges_clean": merkle.exchanges_clean,
            "levels_sent": merkle.levels_sent,
            "keys_transferred": merkle.keys_transferred,
            "keys_unchanged": merkle.keys_unchanged,
            "partitions_compared": merkle.partitions_compared,
            "partitions_differing": merkle.partitions_differing,
        },
        "transport_sent": cluster.transport.stats.sent,
        "transport_delivered": cluster.transport.stats.delivered,
        "bytes_delivered": cluster.transport.stats.bytes_delivered,
        "deadlines_set": cluster.transport.stats.deadlines_set,
        "records": len(records),
        "ok": sum(1 for record in records if record.ok),
        "latency_sum": round(sum(record.latency_ms for record in records), 6),
        "sync_bytes": cluster.sync_bytes(),
        "metadata_bytes": cluster.metadata_bytes(),
        "now": round(cluster.simulation.now, 6),
        "events": cluster.simulation.events_processed,
    }


@pytest.mark.parametrize("scenario_key", sorted(GOLDEN))
def test_simulator_matches_pre_refactor_golden_stats(scenario_key):
    mechanism_name, request_mode = scenario_key.split(":")
    cluster = run_golden_scenario(mechanism_name, request_mode)
    actual = snapshot(cluster)
    expected = GOLDEN[scenario_key]

    # Stats introduced after the capture must not fire in this scenario.
    actual_totals = actual["stat_totals"]
    for stat in POST_GOLDEN_ZERO_STATS:
        assert actual_totals.pop(stat, 0) == 0, (
            f"{stat} fired during the golden scenario — the run changed")

    for field in expected:
        assert actual[field] == expected[field], (
            f"{scenario_key}: {field} diverged from the pre-refactor capture")


def multi_dc_snapshot(report) -> dict:
    """The multi-DC scenario's footprint: cluster stats plus oracle verdict.

    On top of the transport/stat numbers :func:`snapshot` pins, the multi-DC
    fixture also freezes the scenario-level outcome — convergence, the
    write-log oracle's verdict, the request split, and the WAN partition
    window — so a change to DC-aware placement, WAN latency draws, per-DC
    fallback ordering or seed plumbing shows up as a diff, not a flake.
    """
    base = snapshot(report.cluster)
    base.update({
        "converged": report.converged,
        "convergence_rounds": report.convergence_rounds,
        "requests_completed": report.requests_completed,
        "requests_failed": report.requests_failed,
        "lost_updates": report.lost_updates,
        "false_concurrency": report.false_concurrency,
        "datacenters": list(report.datacenters),
        "partition_windows": [list(window) for window in report.partition_windows],
    })
    return base


def run_multi_dc_golden(mechanism_name: str):
    """The exact run the multi-DC fixture was captured from (seed pinned)."""
    from repro.workloads import run_multi_dc_scenario
    return run_multi_dc_scenario(create(mechanism_name), seed=23)


@pytest.mark.parametrize("scenario_key", sorted(MULTI_DC_GOLDEN))
def test_multi_dc_scenario_matches_golden_stats(scenario_key):
    mechanism_name = scenario_key.split(":")[0]
    report = run_multi_dc_golden(mechanism_name)
    actual = multi_dc_snapshot(report)
    expected = MULTI_DC_GOLDEN[scenario_key]
    for field in expected:
        assert actual[field] == expected[field], (
            f"{scenario_key}: {field} diverged from the multi-DC capture")


def test_every_golden_field_is_an_outcome_or_a_traffic_field():
    assert not OUTCOME_FIELDS & TRAFFIC_FIELDS
    for scenario_key, expected in {**GOLDEN, **MULTI_DC_GOLDEN}.items():
        unclassified = set(flatten(expected)) - OUTCOME_FIELDS - TRAFFIC_FIELDS
        assert not unclassified, (
            f"{scenario_key}: put {sorted(unclassified)} in OUTCOME_FIELDS "
            f"or TRAFFIC_FIELDS")


def test_multi_dc_golden_fixture_is_eventful():
    """The fixture must prove the WAN partition actually bit."""
    for scenario_key, expected in MULTI_DC_GOLDEN.items():
        assert expected["converged"], scenario_key
        assert expected["lost_updates"] == 0, scenario_key
        assert expected["datacenters"] == ["east", "west"], scenario_key
        # per-DC sloppy quorums held hints for the unreachable remote primaries
        assert expected["stat_totals"]["hints_stored"] > 0, scenario_key
        assert expected["requests_completed"] > 0, scenario_key


def test_golden_fixture_is_eventful():
    """Guard the fixture itself: the scenario must exercise the whole stack."""
    for scenario_key, expected in GOLDEN.items():
        assert expected["records"] == 60, scenario_key
        assert expected["merkle"]["exchanges_started"] > 0, scenario_key
        # the failed node forces fallback writes and hinted handoff
        assert expected["stat_totals"]["hints_stored"] > 0, scenario_key
        if scenario_key.endswith(":async"):
            # deadline-driven coordination only exists in async mode
            assert expected["deadlines_set"] > 0, scenario_key
