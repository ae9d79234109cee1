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
``merkle.keys_transferred`` or ``merkle.levels_sent`` rose in any scenario).
A field added to a fixture later has to be put in one of the two groups.

The ``:async`` scenarios and the multi-DC fixture were **re-captured again**
by the change that made a quorum read ask only the primaries its quorum
still lacks and hedge the rest.  That change exists to send fewer replica
requests, so ``deadlines_set`` — one per replica contacted — moved from
``OUTCOME_FIELDS`` to ``TRAFFIC_FIELDS``.  The re-capture was refused unless
every scenario stayed converged with no lost update or false concurrency,
no scenario failed more or completed fewer requests, ``latency_sum`` rose by
at most 5 %, and ``transport_sent`` and ``bytes_delivered`` fell.  In the
multi-DC run, ``stat_totals.hints_stored`` fell from 22 to 20: fewer
messages draw the one seeded latency RNG differently.

The change that retired the failure-detector ("membership") request mode
dropped that mode's three scenarios and the never-incremented
``stat_totals.snapshot_digests`` field; no remaining value moved.  Every run
is deadline-driven now, so the ``:async`` suffix of a scenario key is only a
name.

Both fixtures were **re-captured once more** by the change that made the
Merkle index fingerprint a key when a digest is read rather than on every
write.  A key written several times between two exchanges is now hashed
once, and a transferred key is hashed by the index instead of beside it, so
``stat_totals.keys_hashed`` fell: 154 → 46 in each ``:async`` scenario and
212 → 82 in both multi-DC ones.  The re-capture was refused if any other
field moved, or if ``keys_hashed`` rose, with tracing off and on.

Both fixtures were **re-captured again** by the change that made a merge
which changes nothing store nothing (agreeing read replies skip the merge,
and an anti-entropy receiver settles keys by state equality).  An unchanged
key no longer reaches the index, so ``stat_totals.keys_hashed`` fell again:
46 → 42 (``causal_history``) and 46 → 41 (``dvv``, ``dvvset``) in the
``:async`` scenarios, 82 → 63 in both multi-DC ones.  The new
``stat_totals.merges_unchanged`` counts those no-op merges (17 or 24 of 100;
73 of 136).  No other field moved.

All three simulated fixtures (these two and ``golden_churn_reports.json``)
were **re-captured again** by the change that ships a differing range whole
when one side holds nothing in it, and descends only ranges both sides
hold.  That change exists to send fewer exchange messages.  In each
``:async`` scenario only ``TRAFFIC_FIELDS`` moved: ``merkle.levels_sent``
15 → 13, ``transport_sent`` 394 → 390, ``transport_delivered`` 382 → 378,
``sync_bytes`` down 10 % (13623 → 12288 under ``causal_history``),
``bytes_delivered``, ``events`` 483 → 479, ``now``, ``latency_sum`` down
(172.08 → 170.73 under ``causal_history``), and ``stat_totals.keys_hashed``
and ``buckets_rehashed`` down by one each.  In both multi-DC runs
``merkle.levels_sent`` fell 69 → 57, ``transport_sent`` 743 → 721 and
``sync_bytes`` 15 %, with ``deadlines_set``, ``merges``, ``merges_unchanged``,
``events``, ``now`` and ``latency_sum`` (down) moving with them; two
``OUTCOME_FIELDS`` moved too, ``stat_totals.hints_stored`` 20 → 24 and
``stat_totals.writes`` 38 → 39, because fewer messages draw the one seeded
RNG differently (the precedent above).  The scenario's request mix draws
from it too: the run still completes 91 requests, all ok, but one of them
is now a PUT instead of a GET (``coordinate_put`` 42 → 43), and the re-timed
replica puts (96 → 102) reach a fallback four more times.  In the
churn fixture ``sync_bytes`` fell 9–53 % in nine of eleven runs
(``flappy_replica`` and ``flappy_replica:seed=31`` did not move), with
``transport_sent``, ``events_processed``, ``now`` and the ``stats`` totals
moving with it; in the two ``soak`` runs the shifted draws also moved
``requests_completed`` (196 → 200, 69 → 71), ``final_values`` and
``sibling_series``.  The re-capture was refused unless every scenario
stayed converged with no lost update or false concurrency, none failed more
or completed fewer requests, ``latency_sum`` did not rise, and neither
``transport_sent`` nor ``sync_bytes`` rose.

The ``dvv`` entries of both fixtures (and ``golden_churn_reports.json``)
were **re-captured again** by the change that makes a ``REPLICA_PUT`` carry
the write's delta — under ``dvv`` and ``client_vv`` the one new version,
not the key's sibling set — sized as that delta.  Every message weighs what
it carries, so a lighter replica put moves virtual time.  The
``causal_history`` and ``dvvset`` entries did not move: their delta is the
whole new state.  In ``dvv:async`` only ``bytes_delivered`` (35381 →
34803), ``latency_sum`` (170.03 → 169.98) and
``stat_totals.merges_unchanged`` (24 → 23) moved.  In ``dvv:multi_dc``
``bytes_delivered`` fell 83943 → 81239, ``sync_bytes`` 46751 → 44700,
``transport_sent`` 721 → 711, ``merkle.levels_sent`` 57 → 54 and
``partitions_differing`` 45 → 42 (``exchanges_clean`` 0 → 3), with
``deadlines_set``, ``events``, ``now``, ``latency_sum``, ``merges`` and
``merges_unchanged`` moving with them.  Three ``OUTCOME_FIELDS`` moved by
one: its closed-loop clients finished one request fewer before the
deadline (``records``, ``ok`` and ``requests_completed`` 91 → 90; none
failed), because the re-timed replies reach them at other times.  Every
scenario stayed converged with no lost update or false concurrency.

All three simulated fixtures were **re-captured again** by the change that
made a GET a digest read: a replica whose state has the digest the
coordinator's ``REPLICA_GET`` carries answers with a bare reply, modelled as
the envelope alone, and the coordinator reads it as its own snapshot.  A
lighter reply moves virtual time.  In the ``:async`` scenarios
``bytes_delivered`` fell (``causal_history`` 42384 → 40975, ``dvv`` 34803 →
34357, ``dvvset`` 34967 → 34622) and ``latency_sum`` fell (170.73 → 170.45,
169.98 → 169.89, 169.99 → 169.92); under ``causal_history``
``stat_totals.merges_unchanged`` rose 17 → 24 and ``keys_hashed`` fell 41 →
40, because a bare reply is the coordinator's own state, where an equal-set
reply in another sibling order used to be merged and stored again.  In
``dvv:multi_dc`` ``bytes_delivered`` fell 81239 → 80020 and ``latency_sum``
4429.76 → 4427.77, and ``now`` moved 1439.55 → 1440.44.  ``dvvset:multi_dc``
now runs the schedule ``dvv:multi_dc`` does: ``bytes_delivered`` 83437 →
80079, ``sync_bytes`` 46651 → 44636, ``transport_sent`` 721 → 711,
``transport_delivered`` 668 → 658, ``deadlines_set`` 370 → 367, ``events``
813 → 803, ``merkle.levels_sent`` 57 → 54, ``partitions_differing`` 45 → 42
(``exchanges_clean`` 0 → 3), ``stat_totals.merges`` 138 → 137 and
``merges_unchanged`` 75 → 71, ``now`` 1407.39 → 1440.44 and ``latency_sum``
4455.64 → 4427.78; and, as ``dvv:multi_dc`` did at the delta change, its
closed-loop clients finished one request fewer before the deadline
(``records``, ``ok`` and ``requests_completed`` 91 → 90; none failed).  In
the churn fixture only ``multi_dc`` (``now``), ``soak`` and
``soak:600ms,1flap`` moved.  ``soak`` completed 199 → 200 requests, so
``transport_sent`` rose 1588 → 1597 and ``sync_bytes`` 106319 → 107219;
``soak:600ms,1flap`` completed 71 → 69 (``transport_sent`` 579 → 559,
``sync_bytes`` 34397 → 33306); both moved ``events_processed``, ``now``,
``final_values``, ``sibling_series`` and ``stats`` (``soak``:
``buckets_rehashed`` 152 → 148, ``hint_replays`` 27 → 29, ``keys_hashed``
175 → 172, ``merges_unchanged`` 157 → 165, ``merkle_syncs`` 90 → 94;
``soak:600ms,1flap``: ``buckets_rehashed`` 67 → 63, ``keys_hashed`` 75 →
71, ``merges`` 98 → 96, ``merges_unchanged`` 80 → 71, ``merkle_syncs`` 66
→ 55, ``writes`` 26 → 25).  Those three moves do **not** meet the refusal
rule of the earlier re-captures (no scenario completes fewer requests or
fails more, neither ``transport_sent`` nor ``sync_bytes`` rises), and the
pins hold them all the same.  They are the schedule, not the read: with
the bare reply modelled at the full state's size every field stays
bit-for-bit but the merge and hashing counters that the equal-set merges
move (``causal_history:async`` above, ``soak``'s ``stats``); and resizing
every replica read reply of the code before digest reads, with nothing
else changed, moves the same pins as far (50 B lighter: ``soak`` 199 →
197, ``soak:600ms,1flap`` 71 → 69, ``dvvset:multi_dc`` 91 → 90; 20 B
heavier: ``soak`` ``transport_sent`` 1588 → 1639, ``sync_bytes`` 106319
→ 114170).  Over seeds 1–100 of ``soak:600ms,1flap`` and of the churn
``multi_dc`` scenario under dvv and under dvvset, and seeds 1–60 of
``soak``, the change completed 37465 → 37504 requests (more in 77 runs,
fewer in 62) and failed 149 → 147.  Every pinned scenario stayed converged
with no lost update or false concurrency, and none failed more.

The scenario is deliberately eventful: four servers, three clients, a mixed
workload, one node failing mid-run and recovering later — so it exercises
quorum coordination, deadlines and failover, sloppy quorums with hinted
handoff, read repair, and Merkle anti-entropy.
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
    "records", "ok", "metadata_bytes",
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

#: What it cost — anti-entropy traffic and tree work, replica contacts
#: (``deadlines_set``), plus every total downstream of the message count
#: (one RNG draws all latencies).
TRAFFIC_FIELDS = frozenset({
    "deadlines_set",
    "sync_bytes", "merkle.keys_transferred", "merkle.keys_unchanged",
    "merkle.levels_sent", "merkle.exchanges_clean",
    "merkle.partitions_differing", "stat_totals.merkle_syncs", "stat_totals.keys_hashed",
    "stat_totals.buckets_rehashed", "stat_totals.merges",
    "stat_totals.merges_unchanged", "transport_sent", "transport_delivered", "bytes_delivered", "events",
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


def run_golden_scenario(mechanism_name: str, tracer=None):
    """The exact scenario the golden fixture was captured from.

    ``tracer`` lets the observability tests re-run the identical scenario
    with span recording on and assert the golden numbers still hold.
    """
    cluster = SimulatedCluster(
        create(mechanism_name),
        server_ids=("A", "B", "C", "D"),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True),
        seed=1234,
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
    cluster = run_golden_scenario(scenario_key.split(":")[0])
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
    from repro.workloads import run_churn_scenario
    return run_churn_scenario("multi_dc", create(mechanism_name), seed=23)


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
        assert expected["deadlines_set"] > 0, scenario_key
