"""Ablation — what the Merkle-delta anti-entropy exchange buys.

Not a figure in the paper, but part of the substrate its evaluation runs on:
Riak converges replicas with hashtree exchange rather than shipping every key
every round.  The store has one anti-entropy exchange (the Merkle-delta
protocol); this benchmark measures it on the simulated message-passing
cluster against references computed from the same run — the bytes full-state
exchanges would have shipped, and the hash-tree work rebuilding both trees per
exchange would have cost — plus vnode handoff tree work and sloppy-quorum
availability under a partition.

Besides the pytest benchmarks, the module runs standalone as a smoke check
for CI::

    PYTHONPATH=src python benchmarks/bench_anti_entropy.py --smoke

which fails (non-zero exit) if the Merkle-delta protocol stops transferring
strictly fewer bytes than full-state exchanges would on a mostly-synced store.
"""

from __future__ import annotations

import json
import pathlib
import sys

try:  # pragma: no cover - trivial import guard (script mode)
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover - only on uninstalled checkouts
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.analysis import render_table
from repro.clocks import create
from repro.kvstore import SimulatedCluster
from repro.network import FixedLatency
from repro.workloads import run_sloppy_partition_scenario


# --------------------------------------------------------------------------- #
# Message-passing cluster: Merkle-delta sync traffic vs full state (bytes)
# --------------------------------------------------------------------------- #
def build_diverged_cluster(keys: int, seed: int = 9):
    """A mostly-synced simulated cluster, ready for one convergence.

    Builds a 3-server cluster, fully converges it, diverges ~10% of the keys
    behind a partition, then heals — the state every sweep below starts from.
    """
    cluster = SimulatedCluster(
        create("dvv"),
        server_ids=("A", "B", "C"),
        latency=FixedLatency(0.5),
        anti_entropy_interval_ms=None,
        hint_replay_interval_ms=None,
        seed=seed,
    )
    client = cluster.client("writer")
    for index in range(keys):
        client.put(f"key-{index}", f"value-{index}")
        cluster.simulation.run_until_idle()
    cluster.converge()

    # Diverge ~10% of the keys behind a partition so only the majority side
    # sees the late writes.  Keys coordinated by the isolated node C are
    # skipped: a GET through C could not reach its R=2 quorum and would stall
    # without ever issuing the divergence write.
    majority_keys = [key for key in cluster.key_universe()
                     if cluster.placement.coordinator_for(key) != "C"]
    divergent = max(1, keys // 10)
    step = max(1, len(majority_keys) // divergent)
    cluster.partitions.partition({"A", "B"}, {"C"})
    for key in majority_keys[::step][:divergent]:
        client.get(key, lambda result, k=key: client.put(k, f"late-{k}"))
        cluster.simulation.run_until_idle()
    cluster.partitions.heal()
    return cluster


def on_every_exchange(cluster, observe) -> None:
    """Call ``observe(source_id, peer_id)`` as each Merkle exchange starts."""
    for server in cluster.servers.values():
        start = server.start_merkle_sync_with

        def start_observed(peer_id: str, source_id=server.node_id, start=start) -> None:
            observe(source_id, peer_id)
            start(peer_id)

        server.start_merkle_sync_with = start_observed


def store_bytes(cluster, server_id: str) -> int:
    """Bytes of shipping one replica's whole store, one state per key."""
    protocol = cluster.servers[server_id].protocol
    return sum(protocol.state_size(key, protocol.store.state_of(key))
               for key in protocol.store.storage.keys())


def cluster_sync_bytes(keys: int, seed: int = 9):
    """Bytes of sync traffic one convergence costs, Merkle-delta vs full state.

    ``"merkle"`` is what the store sends.  ``"full"`` is the reference it is
    gated against, computed here from the same run: for every exchange the
    run started, the bytes of shipping both replicas' whole stores —
    O(total keys) per exchange, whatever the divergence.
    """
    cluster = build_diverged_cluster(keys, seed=seed)
    sync_bytes = {"full": 0}

    def count_full_state(source_id: str, peer_id: str) -> None:
        sync_bytes["full"] += (store_bytes(cluster, source_id)
                               + store_bytes(cluster, peer_id))

    on_every_exchange(cluster, count_full_state)
    before = cluster.sync_bytes()
    rounds = cluster.converge()
    sync_bytes["merkle"] = cluster.sync_bytes() - before
    return sync_bytes, rounds, cluster


# --------------------------------------------------------------------------- #
# Hash-tree maintenance: incremental index vs per-exchange rebuilds
# --------------------------------------------------------------------------- #
TREE_WORK_STATS = ("keys_hashed", "buckets_rehashed", "full_rebuilds")

MAINTENANCE_MODES = ("rebuild", "incremental")


def tree_work_totals(cluster) -> dict:
    """The cluster-wide hash-tree maintenance counters."""
    totals = cluster.stat_totals()
    return {name: totals.get(name, 0) for name in TREE_WORK_STATS}


def cluster_tree_work(keys: int, seed: int = 9):
    """Hash-tree work (key fingerprints hashed, buckets re-hashed, full
    rebuilds) one convergence costs, per maintenance mode.

    ``"incremental"`` is what the store does: the write-maintained index
    only re-hashes what the convergence merges actually dirtied —
    O(divergent buckets).  ``"rebuild"`` is the reference it is gated
    against, computed here: for every exchange that same run started, the
    keys ``MerkleTree.for_node`` would fingerprint to build both sides' trees
    from scratch — O(total keys) per exchange.
    """
    cluster = build_diverged_cluster(keys, seed=seed)
    rebuild = dict.fromkeys(TREE_WORK_STATS, 0)

    def count_rebuilds(source_id: str, peer_id: str) -> None:
        rebuild["full_rebuilds"] += 2
        rebuild["keys_hashed"] += (len(cluster.servers[source_id].node.storage)
                                   + len(cluster.servers[peer_id].node.storage))

    on_every_exchange(cluster, count_rebuilds)
    before = tree_work_totals(cluster)
    rounds = cluster.converge()
    after = tree_work_totals(cluster)
    incremental = {name: after[name] - before[name] for name in TREE_WORK_STATS}
    return {"rebuild": rebuild, "incremental": incremental}, rounds, cluster


def handoff_tree_work(keys: int, seed: int = 9) -> dict:
    """Hash-tree work a whole-vnode handoff costs (join of an empty node).

    Builds a converged cluster, joins a fresh node ``D`` (the ring rebalances
    and the moved ranges' keys are pushed via KEY_HANDOFF with their
    maintained fingerprints riding along), and returns the deltas of the
    relevant counters.  The vnode-scoped contract: the receiver *imports*
    the sender's digests, so the handoff hashes ~zero new fingerprints no
    matter how many keys move.
    """
    cluster = build_diverged_cluster(keys, seed=seed)
    cluster.converge()
    totals = cluster.stat_totals()
    hashed_before = totals.get("keys_hashed", 0)
    imported_before = totals.get("fingerprints_imported", 0)
    handed_off = cluster.join_node("D")
    cluster.simulation.run_until_idle()
    totals = cluster.stat_totals()
    return {
        "keys_moved": handed_off,
        "keys_hashed": totals.get("keys_hashed", 0) - hashed_before,
        "fingerprints_imported": totals.get("fingerprints_imported", 0) - imported_before,
    }


def per_range_exchange_stats(keys: int, seed: int = 9) -> dict:
    """Range-comparison counters one convergence costs with per-vnode trees."""
    cluster = build_diverged_cluster(keys, seed=seed)
    compared_before = cluster.merkle_stats.partitions_compared
    differing_before = cluster.merkle_stats.partitions_differing
    transferred_before = cluster.merkle_stats.keys_transferred
    rounds = cluster.converge()
    return {
        "rounds": rounds,
        "partitions_compared": cluster.merkle_stats.partitions_compared - compared_before,
        "partitions_differing": cluster.merkle_stats.partitions_differing - differing_before,
        "keys_transferred": cluster.merkle_stats.keys_transferred - transferred_before,
        "partition_count": len(cluster.partition_map),
    }


CLUSTER_KEY_COUNTS = [20, 60, 150]


@pytest.fixture(scope="module")
def cluster_byte_sweep():
    return {keys: cluster_sync_bytes(keys)[0] for keys in CLUSTER_KEY_COUNTS}


def test_report_cluster_sync_bytes(cluster_byte_sweep, publish):
    rows = []
    for keys in CLUSTER_KEY_COUNTS:
        full = cluster_byte_sweep[keys]["full"]
        merkle = cluster_byte_sweep[keys]["merkle"]
        rows.append([keys, full, merkle, round(full / max(merkle, 1), 1)])
    table = render_table(
        ["keys", "full-state bytes (reference)", "merkle-delta sync bytes",
         "savings factor"],
        rows,
        title="Simulated cluster — sync bytes until convergence (10% keys divergent)",
    )
    publish("cluster_sync_bytes", table)
    for keys in CLUSTER_KEY_COUNTS:
        assert cluster_byte_sweep[keys]["merkle"] < cluster_byte_sweep[keys]["full"]


@pytest.fixture(scope="module")
def tree_work_sweep():
    return {keys: cluster_tree_work(keys)[0] for keys in CLUSTER_KEY_COUNTS}


def test_report_tree_maintenance_cost(tree_work_sweep, publish):
    """Build-cost series: hash-tree work per convergence, rebuild vs index."""
    rows = []
    for keys in CLUSTER_KEY_COUNTS:
        rebuild = tree_work_sweep[keys]["rebuild"]
        incremental = tree_work_sweep[keys]["incremental"]
        rows.append([
            keys,
            rebuild["keys_hashed"], rebuild["full_rebuilds"],
            incremental["keys_hashed"], incremental["buckets_rehashed"],
            round(rebuild["keys_hashed"] / max(incremental["keys_hashed"], 1), 1),
        ])
    table = render_table(
        ["keys", "rebuild: keys hashed", "rebuild: tree builds",
         "incremental: keys hashed", "incremental: buckets rehashed",
         "savings factor"],
        rows,
        title="Simulated cluster — hash-tree work until convergence (10% keys divergent)",
    )
    publish("cluster_tree_maintenance", table)
    for keys in CLUSTER_KEY_COUNTS:
        rebuild = tree_work_sweep[keys]["rebuild"]
        incremental = tree_work_sweep[keys]["incremental"]
        # The subsystem's contract: exchange-time tree work scales with the
        # divergence, not the key space, so the incremental index must hash
        # strictly fewer key fingerprints — and never rebuild — while
        # building the trees per exchange pays O(keys) each time.
        assert incremental["keys_hashed"] < rebuild["keys_hashed"]
        assert incremental["full_rebuilds"] == 0
        assert rebuild["full_rebuilds"] >= 2   # both sides of >= 1 exchange
        # Divergence-proportional, not keyspace-proportional: with ~10% of
        # keys diverged, converging must re-fingerprint fewer keys than the
        # store holds, while a single rebuild already hashes all of them.
        assert incremental["keys_hashed"] < keys


def test_report_per_range_exchange(publish):
    """Per-vnode series: range comparisons confine descents to dirty ranges."""
    sweep = {keys: per_range_exchange_stats(keys) for keys in CLUSTER_KEY_COUNTS}
    table = render_table(
        ["keys", "ranges compared", "ranges descended", "keys transferred", "rounds"],
        [[keys, stats["partitions_compared"], stats["partitions_differing"],
          stats["keys_transferred"], stats["rounds"]]
         for keys, stats in sweep.items()],
        title="Simulated cluster — per-range exchange work until convergence "
              "(10% keys divergent)",
    )
    publish("cluster_per_range_exchange", table)
    for keys, stats in sweep.items():
        # only divergent ranges are descended, and there is always at least
        # one (the divergence exists) but never all of them (90% is synced)
        assert 0 < stats["partitions_differing"] < stats["partitions_compared"]


def test_report_handoff_tree_work(publish):
    """Handoff series: moving a vnode's keys imports digests, hashes ~nothing."""
    sweep = {keys: handoff_tree_work(keys) for keys in CLUSTER_KEY_COUNTS}
    table = render_table(
        ["keys", "keys moved", "keys hashed", "fingerprints imported"],
        [[keys, stats["keys_moved"], stats["keys_hashed"],
          stats["fingerprints_imported"]]
         for keys, stats in sweep.items()],
        title="Simulated cluster — hash-tree work per join handoff",
    )
    publish("cluster_handoff_tree_work", table)
    for keys, stats in sweep.items():
        assert stats["keys_moved"] > 0
        assert stats["fingerprints_imported"] >= stats["keys_moved"]
        # O(1), not O(keys moved): the receiver adopts maintained digests
        assert stats["keys_hashed"] == 0


# --------------------------------------------------------------------------- #
# Sloppy vs strict quorums: availability and latency under a partition
# --------------------------------------------------------------------------- #
def availability_under_partition(quorum_mode: str, seed: int = 13):
    """Run the sloppy-partition scenario and reduce it to availability numbers.

    Returns ``(report, mean_put_latency_ms)``: the scenario's ChurnReport
    (requests completed vs failed, convergence) and the mean latency of the
    *successful* writes.  Byte series built on the cluster's transport stats
    count only delivered bytes — traffic eaten by the partition is accounted
    separately — so the two modes are compared on what actually crossed the
    wire.
    """
    report = run_sloppy_partition_scenario(create("dvv"), seed=seed,
                                           quorum_mode=quorum_mode)
    records = [record for record in report.cluster.all_request_records()
               if record.ok and record.operation == "put"]
    mean_put_ms = (sum(record.latency_ms for record in records) / len(records)
                   if records else 0.0)
    return report, mean_put_ms


QUORUM_MODES = ("strict", "sloppy")


@pytest.fixture(scope="module")
def availability_sweep():
    return {mode: availability_under_partition(mode) for mode in QUORUM_MODES}


def test_report_sloppy_availability(availability_sweep, publish):
    rows = []
    for mode in QUORUM_MODES:
        report, mean_put_ms = availability_sweep[mode]
        rows.append([mode, report.requests_completed, report.requests_failed,
                     round(mean_put_ms, 2), report.converged,
                     report.stats.get("hints_stored", 0)])
    table = render_table(
        ["quorum mode", "completed", "failed", "mean put ms", "converged", "hints"],
        rows,
        title="Async request mode — availability under partition (strict vs sloppy)",
    )
    publish("sloppy_availability", table)
    strict_report, _ = availability_sweep["strict"]
    sloppy_report, _ = availability_sweep["sloppy"]
    # The whole point of sloppy quorums: keep accepting writes during the
    # partition that strict quorums reject.
    assert strict_report.requests_failed > 0
    assert sloppy_report.requests_failed < strict_report.requests_failed
    assert sloppy_report.requests_completed > strict_report.requests_completed
    for mode in QUORUM_MODES:
        assert availability_sweep[mode][0].converged


def run_smoke(keys: int = 60,
              results_path: str = "BENCH_anti_entropy.json") -> int:
    """Quick regression gate for CI.

    Four checks: (1) merkle-delta anti-entropy must transfer fewer bytes
    than full-state exchanges would have in the same run; (2) on a large
    keyspace, the incremental Merkle index must do less hash-tree work per
    convergence than building both sides' trees from scratch per exchange
    would; (3) a whole-vnode join handoff must import the
    sender's maintained fingerprints instead of re-hashing the moved states
    (O(1) fresh fingerprints, not O(keys moved)); (4) under a partition, the
    async request mode's sloppy quorums must complete writes that strict
    quorums fail, and still converge after healing.  The measured numbers are
    written to ``results_path`` as JSON for CI artifacts.
    """
    results: dict = {"keys": keys}
    sync_bytes, rounds, merkle_cluster = cluster_sync_bytes(keys)
    full_bytes, merkle_bytes = sync_bytes["full"], sync_bytes["merkle"]
    print(render_table(
        ["exchange", "sync bytes", "rounds"],
        [["full state (reference)", full_bytes, rounds],
         ["merkle", merkle_bytes, rounds]],
        title=f"Anti-entropy smoke ({keys} keys, 10% divergent)",
    ))
    if not merkle_cluster.is_converged():
        print("FAIL: merkle exchange did not converge", file=sys.stderr)
        return 1
    if merkle_bytes >= full_bytes:
        print("FAIL: merkle-delta sync no longer transfers fewer bytes than "
              f"full-state exchanges would ({merkle_bytes} >= {full_bytes})",
              file=sys.stderr)
        return 1
    print(f"OK: merkle-delta saves {full_bytes - merkle_bytes} bytes "
          f"({full_bytes / max(merkle_bytes, 1):.1f}x)")
    results["sync_bytes"] = {"full": full_bytes, "merkle": merkle_bytes,
                             "full_rounds": rounds, "merkle_rounds": rounds}
    results["per_range_exchange"] = per_range_exchange_stats(keys)

    # Incremental hash-tree maintenance: a large keyspace so the O(keys)
    # rebuild cost is unmistakable against the O(divergence) index cost.
    tree_keys = max(keys, 200)
    work, tree_rounds, tree_cluster = cluster_tree_work(tree_keys)
    print(render_table(
        ["maintenance", "keys hashed", "buckets rehashed", "full rebuilds", "rounds"],
        [[mode, work[mode]["keys_hashed"], work[mode]["buckets_rehashed"],
          work[mode]["full_rebuilds"], tree_rounds]
         for mode in MAINTENANCE_MODES],
        title=f"Hash-tree maintenance smoke ({tree_keys} keys, 10% divergent)",
    ))
    if not tree_cluster.is_converged():
        print("FAIL: the tree-work run did not converge", file=sys.stderr)
        return 1
    rebuild_hashed = work["rebuild"]["keys_hashed"]
    incremental_hashed = work["incremental"]["keys_hashed"]
    if incremental_hashed >= rebuild_hashed:
        print("FAIL: incremental Merkle maintenance no longer beats full "
              f"rebuilds on tree work per exchange ({incremental_hashed} >= "
              f"{rebuild_hashed} key fingerprints hashed)", file=sys.stderr)
        return 1
    if work["incremental"]["full_rebuilds"] != 0:
        print("FAIL: incremental maintenance fell back to full tree rebuilds "
              f"({work['incremental']['full_rebuilds']} during convergence)",
              file=sys.stderr)
        return 1
    print(f"OK: incremental index hashed {incremental_hashed} key fingerprints "
          f"vs {rebuild_hashed} for per-exchange rebuilds "
          f"({rebuild_hashed / max(incremental_hashed, 1):.1f}x less tree work)")
    results["tree_work"] = {mode: dict(work[mode], rounds=tree_rounds)
                            for mode in MAINTENANCE_MODES}

    # Whole-vnode handoff: the moved keys' digests must travel with them.
    handoff = handoff_tree_work(keys)
    print(render_table(
        ["keys moved", "keys hashed", "fingerprints imported"],
        [[handoff["keys_moved"], handoff["keys_hashed"],
          handoff["fingerprints_imported"]]],
        title=f"Vnode handoff smoke (join of an empty node, {keys} keys held)",
    ))
    results["handoff"] = handoff
    if handoff["keys_moved"] <= 0:
        print("FAIL: the join handoff moved no keys (the scenario stopped "
              "exercising rebalancing)", file=sys.stderr)
        return 1
    if handoff["keys_hashed"] > max(2, handoff["keys_moved"] // 10):
        print("FAIL: vnode handoff re-hashes the moved states instead of "
              f"importing maintained fingerprints ({handoff['keys_hashed']} "
              f"hashed for {handoff['keys_moved']} keys moved)", file=sys.stderr)
        return 1
    print(f"OK: handoff moved {handoff['keys_moved']} keys, imported "
          f"{handoff['fingerprints_imported']} fingerprints, hashed "
          f"{handoff['keys_hashed']} fresh ones")

    sweeps = {mode: availability_under_partition(mode) for mode in QUORUM_MODES}
    print(render_table(
        ["quorum mode", "completed", "failed", "mean put ms", "converged"],
        [[mode, report.requests_completed, report.requests_failed,
          round(mean_put_ms, 2), report.converged]
         for mode, (report, mean_put_ms) in sweeps.items()],
        title="Sloppy-quorum smoke (availability under partition)",
    ))
    strict_report = sweeps["strict"][0]
    sloppy_report = sweeps["sloppy"][0]
    if not (strict_report.converged and sloppy_report.converged):
        print("FAIL: a quorum mode did not converge after healing", file=sys.stderr)
        return 1
    if strict_report.requests_failed == 0:
        print("FAIL: strict quorums no longer fail writes under the partition "
              "(the scenario stopped exercising the fallback path)", file=sys.stderr)
        return 1
    if sloppy_report.requests_failed >= strict_report.requests_failed:
        print("FAIL: sloppy quorums no longer improve availability "
              f"({sloppy_report.requests_failed} >= {strict_report.requests_failed} "
              "failed writes)", file=sys.stderr)
        return 1
    print(f"OK: sloppy quorums completed {sloppy_report.requests_completed} requests "
          f"({sloppy_report.requests_failed} failed) vs strict "
          f"{strict_report.requests_completed} ({strict_report.requests_failed} failed)")
    results["availability"] = {
        mode: {"completed": report.requests_completed,
               "failed": report.requests_failed,
               "mean_put_ms": round(mean_put_ms, 3),
               "converged": report.converged}
        for mode, (report, mean_put_ms) in sweeps.items()
    }
    pathlib.Path(results_path).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {results_path}")
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the quick full-vs-merkle byte regression check")
    parser.add_argument("--keys", type=int, default=60)
    parser.add_argument("--out", default="BENCH_anti_entropy.json",
                        help="where --smoke writes its measured numbers as JSON")
    args = parser.parse_args()
    if not args.smoke:
        parser.error("run under pytest for the full benchmark, or pass --smoke")
    raise SystemExit(run_smoke(keys=args.keys, results_path=args.out))
