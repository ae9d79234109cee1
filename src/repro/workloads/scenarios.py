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

The churn scenarios (traffic through faults on the simulated cluster, judged
by the write-log oracle) are entries of one :data:`CHURN_SCENARIOS` table of
:class:`ScenarioSpec` records, all run by :func:`run_churn_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..clocks.interface import CausalityMechanism
from ..clocks.registry import create as create_mechanism
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


#: What a fault can do.  The first four act on each named server; ``cut``
#: isolates the named servers, ``cut_dcs`` every DC from the other.
FAULT_ACTIONS = ("fail", "recover", "join", "leave", "cut", "cut_dcs", "heal")
#: What undoes each fault a flap repeats.
_UNDO = {"fail": "recover", "cut": "heal", "cut_dcs": "heal"}


@dataclass(frozen=True)
class ScenarioSpec:
    """One churn scenario: only what it differs on from the others.

    :func:`run_churn_scenario` runs every spec the same way.  Servers are
    ``n1`` .. ``n<servers>``; keys are ``key-0`` .. and ``key-0`` is the hot
    key (the hottest under Zipf traffic).  Fault times are fractions of
    ``duration_ms``.  A fault target is a server id or ``primary:<i>``, the
    hot key's ``i``-th primary replica at the start of the run; a ``cut``
    target lists one or more, comma-separated, and cuts them off from every
    other server.
    """

    name: str
    why: str
    seed: int
    quorum_mode: str = "sloppy"
    #: ``two_dc`` splits the servers half/half over ``east`` / ``west``,
    #: pins client ``i`` to DC ``i % 2`` and puts WAN latency between them;
    #: otherwise every message takes 0.5 ms.
    servers: int = 3
    two_dc: bool = False
    anti_entropy_interval_ms: float = 25.0
    hint_replay_interval_ms: float = 25.0
    replica_timeout_ms: float = 10.0
    request_timeout_ms: float = 50.0
    client_timeout_ms: Optional[float] = None
    duration_ms: float = 400.0
    keys: int = 4
    clients: int = 4
    think_time_ms: float = 4.0
    write_fraction: float = 0.6
    stale_write_fraction: float = 0.0
    zipf_s: float = 0.0
    #: One-off fault rows ``(fraction of duration, action, target)``, an
    #: action being one of :data:`FAULT_ACTIONS`.
    faults: Tuple[Tuple[float, str, str], ...] = ()
    #: One repeated fault ``(action, target)``: ``flaps`` times, evenly
    #: spaced over ``flap_window`` = (start, span) as fractions of the
    #: duration, undone after ``flap_duty`` of each period.
    flap: Tuple[str, str] = ("cut_dcs", "")
    flaps: int = 0
    flap_window: Tuple[float, float] = (0.0, 1.0)
    flap_duty: float = 0.5
    wipe_on_recover: bool = False
    #: Hot-key sibling samples every ``sample_every_ms`` (None: no samples).
    sample_every_ms: Optional[float] = None
    max_rounds: int = 40


CHURN_SCENARIOS: Dict[str, ScenarioSpec] = {spec.name: spec for spec in (
    ScenarioSpec(
        "elasticity", seed=7,
        why="two nodes join and one leaves under load, and rebalancing "
            "handoff must leave the survivors with identical sibling sets",
        hint_replay_interval_ms=40.0, keys=6,
        faults=((0.30, "join", "n4"), (0.50, "join", "n5"), (0.70, "leave", "n1"))),
    ScenarioSpec(
        "flappy_replica", seed=11,
        why="a replica crashes and recovers three times under load, and "
            "hint replay (with wipe_on_recover, anti-entropy) repopulates it",
        anti_entropy_interval_ms=30.0, duration_ms=420.0, write_fraction=0.7,
        flap=("fail", "n3"), flaps=3, flap_window=(0.25, 0.75)),
    ScenarioSpec(
        "sloppy_partition", seed=13,
        why="two of the hot key's primaries are cut off together: sloppy "
            "quorums keep writing through fallbacks, strict ones fail",
        servers=5, anti_entropy_interval_ms=50.0, replica_timeout_ms=6.0,
        request_timeout_ms=30.0,
        faults=((0.25, "cut", "primary:1,primary:2"), (0.75, "heal", ""))),
    ScenarioSpec(
        "hot_key", seed=17,
        why="Zipf traffic with stale contexts piles siblings on one key "
            "while one of its primaries crashes: Figure 1 at scale",
        servers=5, anti_entropy_interval_ms=40.0, hint_replay_interval_ms=30.0,
        duration_ms=420.0, keys=6, clients=6, stale_write_fraction=0.35,
        zipf_s=1.1,
        faults=((0.35, "fail", "primary:1"), (0.65, "recover", "primary:1")),
        sample_every_ms=40.0),
    ScenarioSpec(
        "multi_dc", seed=23,
        why="two DCs behind WAN latency lose every WAN link for a while, and "
            "per-DC sloppy quorums and hints must reconcile after the heal",
        servers=6, two_dc=True, anti_entropy_interval_ms=150.0,
        hint_replay_interval_ms=60.0, replica_timeout_ms=50.0,
        request_timeout_ms=110.0, client_timeout_ms=130.0, duration_ms=1200.0,
        think_time_ms=6.0, stale_write_fraction=0.2,
        flaps=1, flap_window=(0.3, 0.45), flap_duty=1.0, max_rounds=60),
    ScenarioSpec(
        "soak", seed=29,
        why="churn, skew and WAN flaps at once (a crash, a join, repeated "
            "DC cuts and a leave), run long by the soak suite",
        servers=6, two_dc=True, anti_entropy_interval_ms=120.0,
        hint_replay_interval_ms=50.0, replica_timeout_ms=50.0,
        request_timeout_ms=110.0, client_timeout_ms=130.0, duration_ms=1500.0,
        keys=8, clients=6, think_time_ms=5.0, stale_write_fraction=0.25,
        zipf_s=0.9,
        faults=((0.10, "fail", "n2"), (0.15, "join", "n7"),
                (0.25, "recover", "n2"), (0.90, "leave", "n1")),
        flaps=2, flap_window=(0.3, 0.5), flap_duty=0.6,
        sample_every_ms=100.0, max_rounds=60),
)}


def run_churn_scenario(name: str, mechanism: CausalityMechanism, tracer=None,
                       **changes) -> ChurnReport:
    """Run one named churn scenario on the simulated cluster.

    ``changes`` replace fields of the scenario's :class:`ScenarioSpec`
    (``seed=5``, ``duration_ms=600.0, flaps=1``, ``quorum_mode="strict"``).
    The run builds the cluster, schedules the faults and samples, runs
    closed-loop traffic, heals, converges and lets the write-log oracle
    judge the surviving siblings of every key.
    """
    from ..analysis.correctness import check_cluster
    from ..cluster.preference_list import QuorumConfig
    from ..cluster.topology import Topology
    from ..core.exceptions import ConfigurationError
    from ..kvstore.simulated import SimulatedCluster
    from ..network.latency import FixedLatency, WanLatency
    from .clients import ClosedLoopConfig, run_closed_loop_workload

    if name not in CHURN_SCENARIOS:
        raise KeyError(f"unknown churn scenario {name!r}; known: {sorted(CHURN_SCENARIOS)}")
    spec = replace(CHURN_SCENARIOS[name], **changes)
    server_ids = tuple(f"n{index}" for index in range(1, spec.servers + 1))
    key_names = tuple(f"key-{index}" for index in range(spec.keys))
    hot_key = key_names[0]

    topology = None
    latency = FixedLatency(0.5)
    if spec.two_dc:
        half = (spec.servers + 1) // 2
        topology = Topology({server: "east" if index < half else "west"
                             for index, server in enumerate(server_ids)})
        # The transport routes client addresses, so those are what is
        # pinned: a DC cut then isolates each client with its local replicas.
        for index in range(spec.clients):
            topology.assign(f"client:client-{index}", ("east", "west")[index % 2])
        latency = WanLatency(topology)
    cluster = SimulatedCluster(
        mechanism,
        server_ids=server_ids,
        quorum=QuorumConfig(n=3, r=2, w=2, sloppy=(spec.quorum_mode == "sloppy")),
        latency=latency,
        topology=topology,
        anti_entropy_interval_ms=spec.anti_entropy_interval_ms,
        hint_replay_interval_ms=spec.hint_replay_interval_ms,
        replica_timeout_ms=spec.replica_timeout_ms,
        request_timeout_ms=spec.request_timeout_ms,
        client_timeout_ms=spec.client_timeout_ms,
        seed=spec.seed,
        tracer=tracer,
    )
    report = ChurnReport(scenario=spec.name, mechanism=mechanism.name,
                         quorum_mode=spec.quorum_mode,
                         hot_key=hot_key if spec.sample_every_ms else None,
                         datacenters=topology.datacenters() if topology else [],
                         cluster=cluster)

    def act(action: str, nodes: List[str]) -> None:
        if action == "cut":
            rest = {server for server in cluster.servers if server not in nodes}
            cluster.partitions.partition(set(nodes), rest)
        elif action == "cut_dcs":
            cluster.partitions.partition_datacenters(topology)
        elif action == "heal":
            cluster.partitions.heal()
        else:
            for node in nodes:
                if action == "fail":
                    cluster.fail_node(node)
                elif action == "recover":
                    cluster.recover_node(node, wipe=spec.wipe_on_recover)
                elif action == "join":
                    # The joiner lands in the smaller DC (the first on a tie).
                    dc = (min(topology.datacenters(),
                              key=lambda name: len(topology.nodes_in(name)))
                          if topology else None)
                    report.handoff_keys += cluster.join_node(node, dc=dc)
                    report.joined.append(node)
                else:
                    report.handoff_keys += cluster.decommission_node(node)
                    report.departed.append(node)

    def schedule(at_ms: float, action: str, target: str) -> None:
        if action not in FAULT_ACTIONS:
            raise ValueError(f"unknown fault action {action!r}; known: {FAULT_ACTIONS}")
        nodes = [cluster.placement.primary_replicas(hot_key)[int(item[len("primary:"):])]
                 if item.startswith("primary:") else item
                 for item in target.split(",") if item]
        cluster.simulation.schedule_at(at_ms, lambda: act(action, nodes))

    for fraction, action, target in spec.faults:
        schedule(spec.duration_ms * fraction, action, target)
    start = spec.duration_ms * spec.flap_window[0]
    period = spec.duration_ms * spec.flap_window[1] / max(spec.flaps, 1)
    action, target = spec.flap
    for flap in range(spec.flaps):
        down_at = start + flap * period
        up_at = down_at + period * spec.flap_duty
        schedule(down_at, action, target)
        schedule(up_at, _UNDO[action], target)
        if action == "cut_dcs":
            report.partition_windows.append((down_at, up_at))
    if action == "cut_dcs":
        report.partition_flaps = spec.flaps

    def sample() -> None:
        counts = cluster.sibling_counts(hot_key)
        peak = max(counts.values()) if counts else 0
        report.max_sibling_count = max(report.max_sibling_count, peak)
        report.sibling_series.append(
            (round(cluster.simulation.now, 3), peak, cluster.metadata_bytes()))

    if spec.sample_every_ms:
        at_ms = spec.sample_every_ms
        while at_ms < spec.duration_ms:
            cluster.simulation.schedule_at(at_ms, sample)
            at_ms += spec.sample_every_ms

    config = ClosedLoopConfig(
        keys=key_names,
        think_time_ms=spec.think_time_ms,
        write_fraction=spec.write_fraction,
        stale_write_fraction=spec.stale_write_fraction,
        zipf_s=spec.zipf_s,
        stop_at_ms=spec.duration_ms,
    )
    run_closed_loop_workload(cluster, client_count=spec.clients, config=config,
                             base_seed=spec.seed * 1000)
    cluster.partitions.heal()

    try:
        report.convergence_rounds = cluster.converge(max_rounds=spec.max_rounds)
    except ConfigurationError:
        report.convergence_rounds = spec.max_rounds
    report.converged = cluster.is_converged()
    report.final_servers = sorted(cluster.servers)
    records = cluster.all_request_records()
    report.requests_completed = sum(1 for record in records if record.ok)
    report.requests_failed = sum(1 for record in records if not record.ok)
    any_server = next(iter(cluster.servers.values()))
    for key in cluster.key_universe():
        report.final_values[key] = sorted(map(repr, any_server.node.values_of(key)))
    report.stats = cluster.stat_totals()
    report.sync_bytes = cluster.sync_bytes()
    # The oracle judges only a converged run that accepted a write.
    if report.converged and cluster.write_log.keys():
        verdict = check_cluster(cluster)
        report.lost_updates = verdict.total_lost_updates
        report.false_concurrency = verdict.total_false_concurrency
        report.session_superseded = verdict.total_session_superseded
    if spec.sample_every_ms:
        sample()  # the settled frontier, after convergence
    return report


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
