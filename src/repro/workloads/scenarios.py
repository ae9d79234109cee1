"""Hand-written scenarios, including the paper's Figure 1 trace.

Figure 1 of the brief announcement follows a single object replicated on two
servers (A and B) while two clients interact with it:

1. a client reads the (empty) key and writes ``v1`` through server A;
2. a second client reads (seeing ``v1``) — and holds on to that context;
3. the first client reads again and writes ``v2`` through A
   (``v2`` causally follows ``v1``);
4. the second client now writes ``v3`` through A using its stale context —
   ``v3`` is concurrent with ``v2``;
5. server A synchronises with server B (the dotted arrow in the figure);
6. a client reads at B (seeing both ``v2`` and ``v3``), writes ``v4``
   through B, resolving the conflict;
7. the servers synchronise again, converging on ``v4`` everywhere.

Under causal histories (Figure 1a) and dotted version vectors (Figure 1c) the
concurrent pair ``v2 ∥ v3`` is preserved until step 6 resolves it.  Under
per-server version vectors (Figure 1b) the identifier minted for ``v3``
dominates ``v2``'s, so ``v2`` is silently discarded when the servers
synchronise — the lost update the paper illustrates.

Besides Figure 1, this module provides smaller named scenarios used by tests
and benchmarks (concurrent blind writers, read-modify-write chains, session
resets) so the experiments exercise more shapes than the single figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..clocks.interface import CausalityMechanism
from ..clocks.registry import create as create_mechanism
from ..core.comparison import Ordering
from .traces import ReplayResult, Trace, replay_trace


# --------------------------------------------------------------------------- #
# Figure 1
# --------------------------------------------------------------------------- #
def figure1_trace() -> Trace:
    """The exact interaction trace of Figure 1 (both servers, both clients)."""
    trace = Trace(server_ids=("A", "B"), name="figure1")
    # Step 1: client c1 reads the empty key and writes v1 through A.
    trace.get("c1", "obj", server="A")
    trace.put("c1", "obj", "v1", server="A")
    # Step 2: client c2 reads (sees v1) and keeps the context for later.
    trace.get("c2", "obj", server="A")
    # Step 3: client c1 reads again and writes v2 (causally after v1).
    trace.get("c1", "obj", server="A")
    trace.put("c1", "obj", "v2", server="A")
    # Step 4: client c2 writes v3 with its stale context — concurrent with v2.
    trace.put("c2", "obj", "v3", server="A")
    # Step 5: servers synchronise (A -> B).
    trace.sync("A", "B")
    # Step 6: client c3 reads at B (sees the surviving versions) and writes v4.
    trace.get("c3", "obj", server="B")
    trace.put("c3", "obj", "v4", server="B")
    # Step 7: final synchronisation.
    trace.sync("B", "A")
    return trace


@dataclass
class Figure1Step:
    """State snapshot after one step of the Figure 1 replay."""

    label: str
    values_at_a: List[str]
    values_at_b: List[str]


@dataclass
class Figure1Result:
    """Everything the Figure 1 experiment reports for one mechanism."""

    mechanism: str
    steps: List[Figure1Step] = field(default_factory=list)
    values_after_concurrent_writes: List[str] = field(default_factory=list)
    values_at_b_after_sync: List[str] = field(default_factory=list)
    final_values: List[str] = field(default_factory=list)
    concurrency_preserved: bool = False
    lost_update: bool = False
    converged_to_single_value: bool = False


def run_figure1(mechanism: CausalityMechanism) -> Figure1Result:
    """Replay Figure 1 under ``mechanism`` and report what the figure shows.

    The replay is done step by step (rather than via :func:`replay_trace`) so
    the intermediate states — the annotations next to each circle in the
    figure — can be captured.
    """
    from ..kvstore.client import ClientSession
    from ..kvstore.sync_store import SyncReplicatedStore

    store = SyncReplicatedStore(mechanism, server_ids=("A", "B"))
    c1, c2, c3 = ClientSession("c1"), ClientSession("c2"), ClientSession("c3")
    result = Figure1Result(mechanism=mechanism.name)

    def snapshot(label: str) -> None:
        result.steps.append(Figure1Step(
            label=label,
            values_at_a=sorted(store.values("obj", "A")),
            values_at_b=sorted(store.values("obj", "B")),
        ))

    # Step 1: c1 writes v1 through A after reading the empty key.
    c1.get(store, "obj", server_id="A")
    c1.put(store, "obj", "v1", server_id="A")
    snapshot("c1 writes v1 at A")

    # Step 2: c2 reads v1 (context kept for step 4).
    c2.get(store, "obj", server_id="A")
    snapshot("c2 reads v1 at A")

    # Step 3: c1 reads and writes v2 (supersedes v1).
    c1.get(store, "obj", server_id="A")
    c1.put(store, "obj", "v2", server_id="A")
    snapshot("c1 writes v2 at A")

    # Step 4: c2 writes v3 with its stale context — concurrent with v2.
    c2.put(store, "obj", "v3", server_id="A")
    snapshot("c2 writes v3 at A (stale context)")
    result.values_after_concurrent_writes = sorted(store.values("obj", "A"))

    # Step 5: servers synchronise.
    store.sync_key("obj", "A", "B")
    snapshot("A syncs with B")
    result.values_at_b_after_sync = sorted(store.values("obj", "B"))

    # The paper's correctness criterion: after the concurrent writes and the
    # sync, both v2 and v3 must still be visible (at either replica).
    result.concurrency_preserved = (
        set(result.values_after_concurrent_writes) >= {"v2", "v3"}
        and set(result.values_at_b_after_sync) >= {"v2", "v3"}
    )
    result.lost_update = not result.concurrency_preserved

    # Step 6: c3 reads at B and writes v4 resolving the conflict.
    c3.get(store, "obj", server_id="B")
    c3.put(store, "obj", "v4", server_id="B")
    snapshot("c3 writes v4 at B")

    # Step 7: final sync; both replicas converge.
    store.sync_key("obj", "B", "A")
    snapshot("final sync")
    result.final_values = sorted(store.values("obj", "A"))
    result.converged_to_single_value = (
        store.values("obj", "A") == store.values("obj", "B")
        and len(store.values("obj", "A")) == 1
    )
    return result


def run_figure1_by_name(mechanism_name: str) -> Figure1Result:
    """Replay Figure 1 for a registry mechanism name."""
    return run_figure1(create_mechanism(mechanism_name))


# --------------------------------------------------------------------------- #
# Other named scenarios
# --------------------------------------------------------------------------- #
def concurrent_writers_trace(writers: int = 4,
                             rounds: int = 1,
                             server_ids: Sequence[str] = ("A", "B", "C")) -> Trace:
    """``writers`` clients all write the same key from the same (empty) context.

    Ground truth: after one round every write is concurrent with every other,
    so a precise mechanism keeps ``writers`` siblings.  Used by the sibling
    experiment (E5).
    """
    trace = Trace(server_ids=tuple(server_ids), name=f"concurrent_writers({writers})")
    servers = list(server_ids)
    for round_index in range(rounds):
        # Everyone reads first (same context), then everyone writes.
        for writer_index in range(writers):
            client = f"w{writer_index}"
            server = servers[writer_index % len(servers)]
            trace.get(client, "contested", server=server)
        for writer_index in range(writers):
            client = f"w{writer_index}"
            server = servers[writer_index % len(servers)]
            trace.put(client, "contested", f"{client}-r{round_index}", server=server)
        trace.sync_all()
    return trace


def read_modify_write_chain_trace(clients: int = 3,
                                  length: int = 5,
                                  server_ids: Sequence[str] = ("A", "B")) -> Trace:
    """Clients take turns doing read-modify-write — no concurrency at all.

    Ground truth: a single surviving version.  Useful as the negative control:
    every mechanism, even the inexact ones, must get this right.
    """
    trace = Trace(server_ids=tuple(server_ids), name="rmw_chain")
    servers = list(server_ids)
    turn = 0
    for _ in range(length):
        for client_index in range(clients):
            client = f"c{client_index}"
            server = servers[turn % len(servers)]
            trace.get(client, "chain", server=server)
            trace.put(client, "chain", f"{client}-step{turn}", server=server)
            trace.sync_all()
            turn += 1
    return trace


def session_reset_trace(clients: int = 4,
                        resets: int = 3,
                        server_ids: Sequence[str] = ("A", "B", "C")) -> Trace:
    """Clients repeatedly lose their context and blind-write.

    Ground truth: blind writes are concurrent with whatever they did not read,
    so siblings accumulate until someone does a read-modify-write.  Exercises
    the sibling-growth behaviour of every mechanism under careless clients.
    """
    trace = Trace(server_ids=tuple(server_ids), name="session_resets")
    servers = list(server_ids)
    for reset_round in range(resets):
        for client_index in range(clients):
            client = f"c{client_index}"
            server = servers[client_index % len(servers)]
            trace.blind_put(client, "careless", f"{client}-blind{reset_round}", server=server)
        trace.sync_all()
    # A final reader cleans up.
    trace.get("resolver", "careless", server=servers[0])
    trace.put("resolver", "careless", "resolved", server=servers[0])
    trace.sync_all()
    return trace


def interleaved_two_server_trace(pairs: int = 4) -> Trace:
    """Writers alternate between two coordinators without reading in between.

    This interleaving makes per-server version vectors mint identifiers on both
    servers for causally unrelated writes, and gives the WinFS-style VVE
    baseline non-contiguous histories (exceptions) — used by experiment E6.
    """
    trace = Trace(server_ids=("A", "B"), name="interleaved_two_server")
    for pair_index in range(pairs):
        trace.get(f"left-{pair_index}", "shared", server="A")
        trace.get(f"right-{pair_index}", "shared", server="B")
        trace.put(f"left-{pair_index}", "shared", f"left-{pair_index}", server="A")
        trace.put(f"right-{pair_index}", "shared", f"right-{pair_index}", server="B")
        if pair_index % 2 == 1:
            trace.sync_all()
    trace.sync_all()
    return trace


# --------------------------------------------------------------------------- #
# Churn scenarios (simulated message-passing cluster)
# --------------------------------------------------------------------------- #
@dataclass
class ChurnReport:
    """Outcome of a churn scenario on the simulated cluster.

    Captures everything the elasticity/flappy tests and the CLI ``churn``
    subcommand report: whether the surviving replicas converged, which nodes
    joined/left, how much state moved via handoff, and the cluster-wide
    operation counters (including the hint-replay and merkle-sync counters
    kept separately from ordinary merges).
    """

    scenario: str
    mechanism: str
    converged: bool = False
    convergence_rounds: int = 0
    final_servers: List[str] = field(default_factory=list)
    joined: List[str] = field(default_factory=list)
    departed: List[str] = field(default_factory=list)
    handoff_keys: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    quorum_mode: str = ""
    final_values: Dict[str, List[str]] = field(default_factory=dict)
    stats: Dict[str, int] = field(default_factory=dict)
    sync_bytes: int = 0
    #: Generalized lost-update invariant, judged by the write-log oracle
    #: after convergence (None when the oracle did not run, e.g. the cluster
    #: never converged).  Exact mechanisms must show 0 lost updates.
    lost_updates: "int | None" = None
    false_concurrency: "int | None" = None
    session_superseded: "int | None" = None
    #: Skew fields (hot_key / soak): the contended key and its observed
    #: sibling pressure.  ``sibling_series`` rows are
    #: ``(t_ms, hot_key_max_siblings, cluster_metadata_bytes)`` sampled
    #: periodically during the run — the per-mechanism series the hot-key
    #: benchmark plots.
    hot_key: "str | None" = None
    max_sibling_count: int = 0
    sibling_series: List[tuple] = field(default_factory=list)
    #: Multi-DC fields: datacenters in play and the simulated-time windows
    #: during which every WAN link was cut.
    datacenters: List[str] = field(default_factory=list)
    partition_windows: List[tuple] = field(default_factory=list)
    partition_flaps: int = 0
    #: The cluster the scenario ran on (for test inspection; not reported).
    cluster: object = field(default=None, repr=False, compare=False)


def _finish_churn_run(cluster, report: "ChurnReport", max_rounds: int = 40) -> "ChurnReport":
    """Drive a drained cluster to convergence and fill in the report.

    When the cluster converges and accepted at least one write, the write-log
    oracle judges the surviving siblings of every key — the generalized
    lost-update invariant every churn scenario now reports.
    """
    from ..core.exceptions import ConfigurationError

    try:
        report.convergence_rounds = cluster.converge(max_rounds=max_rounds)
    except ConfigurationError:
        report.convergence_rounds = max_rounds
    report.converged = cluster.is_converged()
    report.final_servers = sorted(cluster.servers)
    records = cluster.all_request_records()
    report.requests_completed = sum(1 for record in records if record.ok)
    report.requests_failed = sum(1 for record in records if not record.ok)
    for key in cluster.key_universe():
        any_server = next(iter(cluster.servers.values()))
        report.final_values[key] = sorted(map(repr, any_server.node.values_of(key)))
    report.stats = cluster.stat_totals()
    report.sync_bytes = cluster.sync_bytes()
    if report.converged and cluster.write_log.keys():
        from ..analysis.correctness import check_cluster

        verdict = check_cluster(cluster)
        report.lost_updates = verdict.total_lost_updates
        report.false_concurrency = verdict.total_false_concurrency
        report.session_superseded = verdict.total_session_superseded
    return report


def _sample_sibling_series(cluster, report: "ChurnReport", hot_key: str,
                           duration_ms: float, every_ms: float) -> None:
    """Periodically record the hot key's sibling count and metadata footprint."""

    def sample() -> None:
        counts = cluster.sibling_counts(hot_key)
        peak = max(counts.values()) if counts else 0
        report.max_sibling_count = max(report.max_sibling_count, peak)
        report.sibling_series.append(
            (round(cluster.simulation.now, 3), peak, cluster.metadata_bytes()))

    at = every_ms
    while at < duration_ms:
        cluster.simulation.schedule_at(at, sample, label="sibling-sample")
        at += every_ms


def run_elasticity_scenario(mechanism: CausalityMechanism,
                            seed: int = 7,
                            duration_ms: float = 400.0,
                            keys: int = 6,
                            clients: int = 4,
                            quorum_mode: str = "sloppy",
                            tracer=None) -> ChurnReport:
    """Elastic cluster under load: two nodes join and one leaves mid-run.

    Starts a 3-node cluster with a closed-loop workload, joins ``n4`` and
    ``n5`` while writes are flowing (ring rebalancing pushes the keys they now
    own), then gracefully decommissions ``n1`` (which first hands its keys
    off).  After the workload drains, anti-entropy rounds must converge the
    surviving replicas to identical sibling sets.
    """
    from ..cluster.preference_list import QuorumConfig
    from ..kvstore.simulated import SimulatedCluster
    from ..network.latency import FixedLatency
    from .clients import ClosedLoopConfig, run_closed_loop_workload

    cluster = SimulatedCluster(
        mechanism,
        server_ids=("n1", "n2", "n3"),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=(quorum_mode == "sloppy")),
        latency=FixedLatency(0.5),
        anti_entropy_interval_ms=25.0,
        hint_replay_interval_ms=40.0,
        seed=seed,
        tracer=tracer,
    )
    report = ChurnReport(scenario="elasticity", mechanism=mechanism.name,
                         quorum_mode=quorum_mode)

    def do_join(node_id: str) -> None:
        report.handoff_keys += cluster.join_node(node_id)
        report.joined.append(node_id)

    def do_leave(node_id: str) -> None:
        report.handoff_keys += cluster.decommission_node(node_id)
        report.departed.append(node_id)

    cluster.simulation.schedule(duration_ms * 0.30, lambda: do_join("n4"), label="join:n4")
    cluster.simulation.schedule(duration_ms * 0.50, lambda: do_join("n5"), label="join:n5")
    cluster.simulation.schedule(duration_ms * 0.70, lambda: do_leave("n1"), label="leave:n1")

    config = ClosedLoopConfig(
        keys=tuple(f"key-{index}" for index in range(keys)),
        think_time_ms=4.0,
        write_fraction=0.6,
        stop_at_ms=duration_ms,
    )
    run_closed_loop_workload(cluster, client_count=clients, config=config)
    report.cluster = cluster
    return _finish_churn_run(cluster, report)


def run_flappy_replica_scenario(mechanism: CausalityMechanism,
                                seed: int = 11,
                                duration_ms: float = 420.0,
                                keys: int = 4,
                                clients: int = 4,
                                flaps: int = 3,
                                wipe_on_recover: bool = False,
                                quorum_mode: str = "sloppy",
                                tracer=None) -> ChurnReport:
    """A replica repeatedly crashes and recovers while writes keep flowing.

    Every crash makes coordinators store hints for the victim; every recovery
    triggers hint replay (plus the periodic handoff daemon).  With
    ``wipe_on_recover`` the victim loses its storage on each recovery, so it
    must be repopulated entirely by hint replay and anti-entropy.
    """
    from ..cluster.preference_list import QuorumConfig
    from ..kvstore.simulated import SimulatedCluster
    from ..network.latency import FixedLatency
    from .clients import ClosedLoopConfig, run_closed_loop_workload

    cluster = SimulatedCluster(
        mechanism,
        server_ids=("n1", "n2", "n3"),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=(quorum_mode == "sloppy")),
        latency=FixedLatency(0.5),
        anti_entropy_interval_ms=30.0,
        hint_replay_interval_ms=25.0,
        seed=seed,
        tracer=tracer,
    )
    report = ChurnReport(scenario="flappy_replica", mechanism=mechanism.name,
                         quorum_mode=quorum_mode)
    victim = "n3"
    period = duration_ms / (flaps + 1)
    for flap in range(flaps):
        down_at = period * (flap + 1)
        up_at = down_at + period * 0.5
        cluster.simulation.schedule(down_at, lambda: cluster.fail_node(victim),
                                    label=f"flap-down:{victim}")
        cluster.simulation.schedule(
            up_at,
            lambda: cluster.recover_node(victim, wipe=wipe_on_recover),
            label=f"flap-up:{victim}",
        )

    config = ClosedLoopConfig(
        keys=tuple(f"key-{index}" for index in range(keys)),
        think_time_ms=4.0,
        write_fraction=0.7,
        stop_at_ms=duration_ms,
    )
    run_closed_loop_workload(cluster, client_count=clients, config=config)
    report.cluster = cluster
    return _finish_churn_run(cluster, report)


def run_sloppy_partition_scenario(mechanism: CausalityMechanism,
                                  seed: int = 13,
                                  duration_ms: float = 400.0,
                                  keys: int = 4,
                                  clients: int = 4,
                                  quorum_mode: str = "sloppy",
                                  tracer=None) -> ChurnReport:
    """Availability under partition with deadline-driven coordination.

    A five-server cluster (N=3, R=W=2) runs a closed-loop workload whose
    coordinators fan out with per-replica deadlines instead of consulting
    the membership view.  Mid-run, two of the first key's three primary
    replicas are partitioned off together; coordinators
    on the majority side can then only assemble W=2 by extending the
    preference list to sloppy-quorum fallback nodes (``quorum_mode="sloppy"``)
    — with ``"strict"`` those writes fail with ``quorum_unreachable``.  After
    the partition heals, fallback-held hints replay to the primaries and
    anti-entropy must converge every replica.  The report's
    ``requests_completed`` / ``requests_failed`` split is the availability
    measurement the strict-vs-sloppy benchmark series compares.
    """
    from ..cluster.preference_list import QuorumConfig
    from ..kvstore.simulated import SimulatedCluster
    from ..network.latency import FixedLatency
    from .clients import ClosedLoopConfig, run_closed_loop_workload

    cluster = SimulatedCluster(
        mechanism,
        server_ids=("n1", "n2", "n3", "n4", "n5"),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=(quorum_mode == "sloppy")),
        latency=FixedLatency(0.5),
        anti_entropy_interval_ms=50.0,
        hint_replay_interval_ms=25.0,
        replica_timeout_ms=6.0,
        request_timeout_ms=30.0,
        seed=seed,
        tracer=tracer,
    )
    report = ChurnReport(scenario="sloppy_partition", mechanism=mechanism.name,
                         quorum_mode=quorum_mode)

    # Cut two primaries of the first workload key off together: the key's
    # coordinator keeps serving from the majority side, where a strict W=2
    # is unreachable but a sloppy one is not.
    key_names = tuple(f"key-{index}" for index in range(keys))
    primaries = cluster.placement.primary_replicas(key_names[0])
    minority = set(primaries[1:3])
    majority = {server for server in cluster.servers if server not in minority}

    cluster.simulation.schedule(
        duration_ms * 0.25,
        lambda: cluster.partitions.partition(minority, majority),
        label="sloppy-partition:cut",
    )
    cluster.simulation.schedule(
        duration_ms * 0.75,
        lambda: cluster.partitions.heal(),
        label="sloppy-partition:heal",
    )

    config = ClosedLoopConfig(
        keys=key_names,
        think_time_ms=4.0,
        write_fraction=0.6,
        stop_at_ms=duration_ms,
    )
    run_closed_loop_workload(cluster, client_count=clients, config=config)
    cluster.partitions.heal()
    report.cluster = cluster
    return _finish_churn_run(cluster, report)


def run_hot_key_scenario(mechanism: CausalityMechanism,
                         seed: int = 17,
                         duration_ms: float = 420.0,
                         keys: int = 6,
                         clients: int = 6,
                         zipf_s: float = 1.1,
                         stale_write_fraction: float = 0.35,
                         quorum_mode: str = "sloppy",
                         sample_every_ms: float = 40.0,
                         tracer=None) -> ChurnReport:
    """Zipfian traffic hammers one contended key — the Figure-1 story at scale.

    Six clients send Zipf-skewed traffic (rank-0 key hottest) and a third of
    their writes reuse stale read contexts, so causally concurrent versions
    of the hot key pile up — the sibling-explosion regime the paper's
    mechanisms differ on.  Mid-run one of the hot key's primary replicas
    crashes and later recovers (hints + replay on the hottest data).  The
    report carries a ``(time, siblings, metadata_bytes)`` series per run, and
    the oracle judges the generalized lost-update invariant at the end:
    exact mechanisms must keep every frontier write despite the pile-up.
    """
    from ..cluster.preference_list import QuorumConfig
    from ..kvstore.simulated import SimulatedCluster
    from ..network.latency import FixedLatency
    from .clients import ClosedLoopConfig, run_closed_loop_workload

    cluster = SimulatedCluster(
        mechanism,
        server_ids=("n1", "n2", "n3", "n4", "n5"),
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=(quorum_mode == "sloppy")),
        latency=FixedLatency(0.5),
        anti_entropy_interval_ms=40.0,
        hint_replay_interval_ms=30.0,
        seed=seed,
        tracer=tracer,
    )
    key_names = tuple(f"key-{index}" for index in range(keys))
    hot_key = key_names[0]
    report = ChurnReport(scenario="hot_key", mechanism=mechanism.name,
                         quorum_mode=quorum_mode, hot_key=hot_key)

    # Crash one primary of the hot key mid-run: the hottest writes detour
    # through hints while siblings are still exploding.
    victim = cluster.placement.primary_replicas(hot_key)[1]
    cluster.simulation.schedule_at(duration_ms * 0.35,
                                   lambda: cluster.fail_node(victim),
                                   label=f"hot-key-fail:{victim}")
    cluster.simulation.schedule_at(duration_ms * 0.65,
                                   lambda: cluster.recover_node(victim),
                                   label=f"hot-key-recover:{victim}")

    _sample_sibling_series(cluster, report, hot_key, duration_ms, sample_every_ms)

    config = ClosedLoopConfig(
        keys=key_names,
        think_time_ms=4.0,
        write_fraction=0.6,
        stale_write_fraction=stale_write_fraction,
        zipf_s=zipf_s,
        stop_at_ms=duration_ms,
    )
    run_closed_loop_workload(cluster, client_count=clients, config=config,
                             base_seed=seed * 1000)
    report.cluster = cluster
    _finish_churn_run(cluster, report)
    # One last sample after convergence: the settled frontier size.
    counts = cluster.sibling_counts(hot_key)
    peak = max(counts.values()) if counts else 0
    report.max_sibling_count = max(report.max_sibling_count, peak)
    report.sibling_series.append(
        (round(cluster.simulation.now, 3), peak, cluster.metadata_bytes()))
    return report


def _two_dc_topology(server_ids: Sequence[str], client_count: int,
                     dcs: Sequence[str] = ("east", "west")):
    """Servers split half/half across two DCs, clients pinned alternately.

    Client *addresses* (``client:<id>``) are what the transport routes, so
    those are what gets pinned — a whole-DC partition then isolates each
    client with its local replicas.
    """
    from ..cluster.topology import Topology

    half = (len(server_ids) + 1) // 2
    topology = Topology({server: dcs[0] if index < half else dcs[1]
                         for index, server in enumerate(server_ids)})
    for index in range(client_count):
        topology.assign(f"client:client-{index}", dcs[index % len(dcs)])
    return topology


def run_multi_dc_scenario(mechanism: CausalityMechanism,
                          seed: int = 23,
                          duration_ms: float = 1200.0,
                          keys: int = 4,
                          clients: int = 4,
                          quorum_mode: str = "sloppy",
                          partition_window: Sequence[float] = (0.3, 0.75),
                          tracer=None) -> ChurnReport:
    """Two datacenters, WAN latency, and a full cross-DC partition.

    Six servers span two DCs; DC-aware placement spreads every key's three
    primaries 2+1 across them, and clients are pinned into a home DC.
    Messages cross a :class:`~repro.network.latency.WanLatency` model
    (sub-ms intra-DC, tens of ms cross-DC), so coordination runs with
    WAN-calibrated deadlines.  Mid-run every WAN link is cut: each DC
    keeps serving its local clients via per-DC sloppy quorums — coordinators
    promote *same-DC* fallbacks (the topology-aware ``fallbacks_for``) and
    hold hints for the unreachable remote primaries.  After the heal, hint
    replay and anti-entropy must reconcile the two DCs' divergent sibling
    sets, and the oracle checks no acknowledged write was lost.
    """
    from ..cluster.preference_list import QuorumConfig
    from ..kvstore.simulated import SimulatedCluster
    from ..network.latency import WanLatency

    from .clients import ClosedLoopConfig, run_closed_loop_workload

    server_ids = ("n1", "n2", "n3", "n4", "n5", "n6")
    topology = _two_dc_topology(server_ids, clients)
    cluster = SimulatedCluster(
        mechanism,
        server_ids=server_ids,
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=(quorum_mode == "sloppy")),
        latency=WanLatency(topology),
        topology=topology,
        anti_entropy_interval_ms=150.0,
        hint_replay_interval_ms=60.0,
        replica_timeout_ms=50.0,
        request_timeout_ms=110.0,
        client_timeout_ms=130.0,
        seed=seed,
        tracer=tracer,
    )
    report = ChurnReport(scenario="multi_dc", mechanism=mechanism.name,
                         quorum_mode=quorum_mode,
                         datacenters=topology.datacenters())

    cut_at = duration_ms * partition_window[0]
    heal_at = duration_ms * partition_window[1]
    cluster.simulation.schedule_at(
        cut_at, lambda: cluster.partitions.partition_datacenters(topology),
        label="wan-partition:cut")
    cluster.simulation.schedule_at(
        heal_at, lambda: cluster.partitions.heal(),
        label="wan-partition:heal")
    report.partition_windows.append((cut_at, heal_at))
    report.partition_flaps = 1

    config = ClosedLoopConfig(
        keys=tuple(f"key-{index}" for index in range(keys)),
        think_time_ms=6.0,
        write_fraction=0.6,
        stale_write_fraction=0.2,
        stop_at_ms=duration_ms,
    )
    run_closed_loop_workload(cluster, client_count=clients, config=config,
                             base_seed=seed * 1000)
    cluster.partitions.heal()
    report.cluster = cluster
    return _finish_churn_run(cluster, report, max_rounds=60)


def run_soak_scenario(mechanism: CausalityMechanism,
                      seed: int = 29,
                      duration_ms: float = 1500.0,
                      keys: int = 8,
                      clients: int = 6,
                      zipf_s: float = 0.9,
                      stale_write_fraction: float = 0.25,
                      flaps: int = 2,
                      quorum_mode: str = "sloppy",
                      sample_every_ms: float = 100.0,
                      tracer=None) -> ChurnReport:
    """Long mixed run: churn × skew × WAN partition flap, all at once.

    A two-DC, six-server cluster under Zipf-skewed stale-context traffic
    takes everything the other scenarios throw one at a time: a node
    crashes and recovers, a new node joins mid-run (ring rebalance +
    handoff), the WAN link flaps ``flaps`` times (cut, heal, repeat), and a
    founding node is gracefully decommissioned near the end.  The point of
    a soak is the *interaction* of the mechanisms — hints replaying into a
    rebalanced ring while anti-entropy reconciles partition-era siblings —
    and the exit bar is the same as everywhere else: convergence plus the
    generalized lost-update invariant.  ``duration_ms`` scales the run; the
    default stays test-sized, the ``-m soak`` suite runs it long.
    """
    from ..cluster.preference_list import QuorumConfig
    from ..kvstore.simulated import SimulatedCluster
    from ..network.latency import WanLatency
    from .clients import ClosedLoopConfig, run_closed_loop_workload

    server_ids = ("n1", "n2", "n3", "n4", "n5", "n6")
    topology = _two_dc_topology(server_ids, clients)
    cluster = SimulatedCluster(
        mechanism,
        server_ids=server_ids,
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=(quorum_mode == "sloppy")),
        latency=WanLatency(topology),
        topology=topology,
        anti_entropy_interval_ms=120.0,
        hint_replay_interval_ms=50.0,
        replica_timeout_ms=50.0,
        request_timeout_ms=110.0,
        client_timeout_ms=130.0,
        seed=seed,
        tracer=tracer,
    )
    key_names = tuple(f"key-{index}" for index in range(keys))
    hot_key = key_names[0]
    report = ChurnReport(scenario="soak", mechanism=mechanism.name,
                         quorum_mode=quorum_mode, hot_key=hot_key,
                         datacenters=topology.datacenters())

    # Node churn: an early crash/recover cycle and a mid-run join.  The
    # joiner lands in the smaller DC (or east on a tie).
    cluster.simulation.schedule_at(duration_ms * 0.10,
                                   lambda: cluster.fail_node("n2"),
                                   label="soak-fail:n2")
    cluster.simulation.schedule_at(duration_ms * 0.25,
                                   lambda: cluster.recover_node("n2"),
                                   label="soak-recover:n2")

    def do_join() -> None:
        dc = min(topology.datacenters(),
                 key=lambda name: len(topology.nodes_in(name)))
        report.handoff_keys += cluster.join_node("n7", dc=dc)
        report.joined.append("n7")

    cluster.simulation.schedule_at(duration_ms * 0.15, do_join, label="soak-join:n7")

    # WAN flaps: evenly spaced cut/heal cycles in the middle of the run.
    flap_span = duration_ms * 0.5
    flap_start = duration_ms * 0.3
    period = flap_span / max(flaps, 1)
    for flap in range(flaps):
        cut_at = flap_start + flap * period
        heal_at = cut_at + period * 0.6
        cluster.simulation.schedule_at(
            cut_at, lambda: cluster.partitions.partition_datacenters(topology),
            label=f"soak-flap-cut:{flap}")
        cluster.simulation.schedule_at(
            heal_at, lambda: cluster.partitions.heal(),
            label=f"soak-flap-heal:{flap}")
        report.partition_windows.append((cut_at, heal_at))
    report.partition_flaps = flaps

    # Graceful departure after the last heal, once the WAN is quiet.
    def do_leave() -> None:
        report.handoff_keys += cluster.decommission_node("n1")
        report.departed.append("n1")

    cluster.simulation.schedule_at(duration_ms * 0.9, do_leave,
                                   label="soak-leave:n1")

    _sample_sibling_series(cluster, report, hot_key, duration_ms, sample_every_ms)

    config = ClosedLoopConfig(
        keys=key_names,
        think_time_ms=5.0,
        write_fraction=0.6,
        stale_write_fraction=stale_write_fraction,
        zipf_s=zipf_s,
        stop_at_ms=duration_ms,
    )
    run_closed_loop_workload(cluster, client_count=clients, config=config,
                             base_seed=seed * 1000)
    cluster.partitions.heal()
    report.cluster = cluster
    return _finish_churn_run(cluster, report, max_rounds=60)


CHURN_SCENARIOS = {
    "elasticity": run_elasticity_scenario,
    "flappy_replica": run_flappy_replica_scenario,
    "sloppy_partition": run_sloppy_partition_scenario,
    "hot_key": run_hot_key_scenario,
    "multi_dc": run_multi_dc_scenario,
    "soak": run_soak_scenario,
}


def run_churn_scenario(name: str, mechanism: CausalityMechanism, **kwargs) -> ChurnReport:
    """Run one named churn scenario on the simulated cluster."""
    if name not in CHURN_SCENARIOS:
        raise KeyError(f"unknown churn scenario {name!r}; known: {sorted(CHURN_SCENARIOS)}")
    return CHURN_SCENARIOS[name](mechanism, **kwargs)


SCENARIOS: Dict[str, Trace] = {}


def named_scenarios() -> Dict[str, Trace]:
    """Fresh copies of every named scenario trace (excluding Figure 1)."""
    return {
        "concurrent_writers": concurrent_writers_trace(),
        "rmw_chain": read_modify_write_chain_trace(),
        "session_resets": session_reset_trace(),
        "interleaved_two_server": interleaved_two_server_trace(),
    }


def replay_scenario(name: str, mechanism: CausalityMechanism) -> ReplayResult:
    """Replay one named scenario under ``mechanism``."""
    scenarios = named_scenarios()
    if name == "figure1":
        return replay_trace(figure1_trace(), mechanism)
    if name not in scenarios:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(scenarios) + ['figure1']}")
    return replay_trace(scenarios[name], mechanism)
