"""Command-line interface for the reproduction harness.

The CLI wraps the library's experiment entry points so the paper's results can
be regenerated without writing Python::

    python -m repro mechanisms
    python -m repro figure1
    python -m repro scenario concurrent_writers --mechanism server_vv
    python -m repro compare --clients 32 --operations 300 --seed 7
    python -m repro cluster --mechanism dvv --clients 16 --duration-ms 500
    python -m repro cluster --backend asyncio --clients 8 --duration-ms 500
    python -m repro churn --scenario elasticity --mechanism dvvset
    python -m repro serve --mechanism dvv --servers 3
    python -m repro connect --socket-dir /tmp/repro-cluster-x get cart

Every subcommand prints the same plain-text tables the benchmarks persist
under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .analysis import (
    analyze_requests,
    check_store,
    measure_simulated_cluster,
    measure_sync_store,
    render_table,
)
from .clocks import available, create
from .cluster import QuorumConfig
from .kvstore import SimulatedCluster
from .network import FixedLatency, SizeDependentLatency
from .workloads import (
    CHURN_SCENARIOS,
    ClosedLoopConfig,
    WorkloadConfig,
    generate_workload,
    named_scenarios,
    replay_scenario,
    replay_trace,
    run_churn_scenario,
    run_closed_loop_workload,
    run_figure1_by_name,
)

DEFAULT_COMPARISON = ["dvv", "dvvset", "client_vv", "client_vv_pruned_5", "server_vv"]


# --------------------------------------------------------------------------- #
# Observability plumbing shared by the cluster-running subcommands
# --------------------------------------------------------------------------- #
def _open_tracer(trace_path: Optional[str]):
    """A (tracer, sink) pair writing JSONL span events, or (None, None)."""
    if trace_path is None:
        return None, None
    from .obs import JsonlTraceSink, Tracer

    sink = JsonlTraceSink(trace_path)
    return Tracer(sink), sink


def _finish_trace(sink, trace_path: Optional[str]) -> None:
    if sink is not None:
        sink.close()
        print(f"trace: {sink.events_written} span events -> {trace_path}")


def _write_stats_json(cluster, stats_path: Optional[str]) -> None:
    """Dump the cluster's unified metrics snapshot as JSON."""
    if stats_path is None or cluster is None:
        return
    import json

    snapshot = cluster.metrics_snapshot()
    with open(stats_path, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"stats: {len(snapshot)} metrics -> {stats_path}")


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def cmd_mechanisms(_args: argparse.Namespace) -> int:
    """List the registered causality mechanisms."""
    rows = []
    for name in available():
        mechanism = create(name)
        rows.append([name, "yes" if mechanism.exact else "no", mechanism.describe()])
    print(render_table(["name", "exact", "description"], rows,
                       title="Registered causality mechanisms"))
    return 0


def cmd_figure1(args: argparse.Namespace) -> int:
    """Replay the paper's Figure 1 under the selected mechanisms."""
    mechanisms = args.mechanisms or ["causal_history", "server_vv", "dvv"]
    rows = []
    for name in mechanisms:
        result = run_figure1_by_name(name)
        rows.append([
            name,
            ",".join(result.values_after_concurrent_writes),
            ",".join(result.values_at_b_after_sync),
            result.concurrency_preserved,
            result.lost_update,
            ",".join(result.final_values),
        ])
    print(render_table(
        ["mechanism", "at A after racing writes", "at B after sync",
         "concurrency kept", "lost update", "final"],
        rows,
        title="Figure 1 replay",
    ))
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    """Replay one named scenario and report the oracle's verdict."""
    known = sorted(named_scenarios()) + ["figure1"]
    if args.name not in known:
        print(f"unknown scenario {args.name!r}; choose from: {', '.join(known)}",
              file=sys.stderr)
        return 2
    result = replay_scenario(args.name, create(args.mechanism))
    result.store.converge()
    correctness = check_store(result.store)
    metadata = measure_sync_store(result.store)
    print(render_table(
        ["metric", "value"],
        [
            ["scenario", args.name],
            ["mechanism", args.mechanism],
            ["writes applied", len(result.store.write_log)],
            ["keys", correctness.keys_checked],
            ["lost updates", correctness.total_lost_updates],
            ["false concurrency", correctness.total_false_concurrency],
            ["metadata entries", metadata.total_entries],
            ["metadata bytes", metadata.total_bytes],
            ["causally correct", correctness.is_correct],
        ],
        title=f"Scenario {args.name!r} under {args.mechanism}",
    ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Replay one synthetic workload under several mechanisms and compare."""
    config = WorkloadConfig(
        clients=args.clients,
        keys=args.keys,
        operations=args.operations,
        stale_read_probability=args.stale_reads,
        blind_write_probability=args.blind_writes,
        seed=args.seed,
    )
    trace = generate_workload(config)
    mechanisms = args.mechanisms or DEFAULT_COMPARISON
    rows = []
    for name in mechanisms:
        replay = replay_trace(trace, create(name))
        replay.store.converge()
        correctness = check_store(replay.store)
        metadata = measure_sync_store(replay.store)
        rows.append([
            name,
            correctness.total_lost_updates,
            correctness.total_false_concurrency,
            metadata.max_entries_per_key,
            round(metadata.per_key_bytes.mean, 1),
            correctness.is_correct,
        ])
    print(render_table(
        ["mechanism", "lost updates", "false concurrency",
         "entries/key (max)", "bytes/key (mean)", "safe"],
        rows,
        title=(f"Workload: {args.clients} clients, {args.operations} operations, "
               f"{args.keys} keys, seed {args.seed}"),
    ))
    return 0


def cmd_churn(args: argparse.Namespace) -> int:
    """Run a churn scenario (membership churn, skew, multi-DC) and report.

    Exit status: 0 on success; 1 when the cluster failed to converge *or* an
    exact mechanism lost an update (the generalized lost-update invariant).
    """
    import inspect

    tracer, sink = _open_tracer(args.trace)
    scenario_fn = CHURN_SCENARIOS[args.scenario]
    kwargs = dict(seed=args.seed,
                  quorum_mode=args.quorum_mode,
                  tracer=tracer)
    # Optional knobs only some scenarios accept (pass-through when set and
    # supported; quietly ignored by scenarios without the parameter).
    accepted = inspect.signature(scenario_fn).parameters
    if args.duration_ms is not None and "duration_ms" in accepted:
        kwargs["duration_ms"] = args.duration_ms
    if args.zipf_s is not None and "zipf_s" in accepted:
        kwargs["zipf_s"] = args.zipf_s
    mechanism = create(args.mechanism)
    report = scenario_fn(mechanism, **kwargs)
    stats = report.stats
    rows = [
        ["scenario", report.scenario],
        ["mechanism", report.mechanism],
        ["quorum mode", report.quorum_mode],
        ["converged", report.converged],
        ["convergence rounds", report.convergence_rounds],
        ["final servers", ",".join(report.final_servers)],
        ["joined", ",".join(report.joined) or "-"],
        ["departed", ",".join(report.departed) or "-"],
        ["handoff keys", report.handoff_keys],
        ["requests completed", report.requests_completed],
        ["requests failed", report.requests_failed],
        ["hints stored", stats.get("hints_stored", 0)],
        ["hint replays", stats.get("hint_replays", 0)],
        ["merkle key syncs", stats.get("merkle_syncs", 0)],
        ["rebalance handoffs", stats.get("handoffs", 0)],
        ["ordinary merges", stats.get("merges", 0)],
        ["sync bytes on the wire", report.sync_bytes],
    ]
    if report.lost_updates is not None:
        rows.append(["lost updates (oracle)", report.lost_updates])
        rows.append(["false concurrency (oracle)", report.false_concurrency])
    if report.hot_key is not None:
        rows.append(["hot key", report.hot_key])
        rows.append(["max siblings (hot key)", report.max_sibling_count])
    if report.datacenters:
        rows.append(["datacenters", ",".join(report.datacenters)])
        rows.append(["WAN partition flaps", report.partition_flaps])
    print(render_table(
        ["metric", "value"], rows,
        title=f"Churn scenario {report.scenario!r} under {report.mechanism}",
    ))
    _write_stats_json(report.cluster, args.stats_json)
    _finish_trace(sink, args.trace)
    invariant_broken = (mechanism.exact
                        and report.lost_updates is not None
                        and report.lost_updates > 0)
    return 0 if report.converged and not invariant_broken else 1


def _run_cluster_audit(cluster, sample_size: int, seed: int):
    """Audit every node's Merkle index against its storage after a run.

    Returns ``(keys_checked, mismatches)`` summed over the nodes; each node
    gets its own deterministically seeded sampler so runs are repeatable.
    """
    import random

    checked = mismatches = 0
    for position, (node_id, server) in enumerate(sorted(cluster.servers.items())):
        rng = random.Random(seed * 1000 + position)
        report = server.node.audit_merkle_index(sample_size=sample_size, rng=rng)
        checked += report["keys_checked"]
        mismatches += report["mismatches"]
    return checked, mismatches


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run the message-passing cluster under a closed-loop workload.

    ``--backend sim`` (default) drives the deterministic simulator in virtual
    time; ``--backend asyncio`` runs the same protocol machines over real
    Unix-domain sockets and reports wall-clock numbers.
    """
    if args.backend == "asyncio":
        return _cmd_cluster_asyncio(args)
    tracer, sink = _open_tracer(args.trace)
    cluster = SimulatedCluster(
        create(args.mechanism),
        server_ids=tuple(f"n{i}" for i in range(args.servers)),
        quorum=QuorumConfig(n=min(3, args.servers),
                            r=min(2, args.servers),
                            w=min(2, args.servers),
                            sloppy=args.quorum_mode == "sloppy"),
        latency=SizeDependentLatency(base=FixedLatency(0.25), bytes_per_ms=args.bytes_per_ms),
        anti_entropy_interval_ms=50.0,
        request_mode=args.request_mode,
        deadline_mode=args.deadline_mode,
        partition_count=args.partitions,
        seed=args.seed,
        tracer=tracer,
    )
    workload = ClosedLoopConfig(
        keys=tuple(f"key-{i}" for i in range(args.keys)),
        think_time_ms=args.think_time_ms,
        write_fraction=args.write_fraction,
        stop_at_ms=args.duration_ms,
    )
    run_closed_loop_workload(cluster, client_count=args.clients, config=workload)
    records = cluster.all_request_records()
    latency = analyze_requests(args.mechanism, records, duration_ms=args.duration_ms)
    metadata = measure_simulated_cluster(cluster)
    audit_rows = []
    if args.audit:
        checked, mismatches = _run_cluster_audit(cluster, args.audit, args.seed)
        audit_rows = [["audit keys checked", checked],
                      ["audit mismatches", mismatches]]
    stats = cluster.stat_totals()
    print(render_table(
        ["metric", "value"],
        [
            ["mechanism", args.mechanism],
            ["servers", args.servers],
            ["clients", args.clients],
            ["request mode", args.request_mode],
            ["quorum mode", args.quorum_mode],
            ["deadline mode", args.deadline_mode],
            ["requests completed", latency.requests],
            ["requests failed", sum(1 for record in records if not record.ok)],
            ["mean latency (ms)", round(latency.overall.mean, 3)],
            ["p95 latency (ms)", round(latency.overall.p95, 3)],
            ["p99 latency (ms)", round(latency.overall.p99, 3)],
            ["throughput (req/s)", round(latency.throughput_per_s, 1)],
            ["context bytes / request", round(latency.mean_context_bytes, 1)],
            ["stored metadata bytes", metadata.total_bytes],
            ["bytes on the wire", cluster.transport.stats.bytes_sent],
            ["merkle keys hashed", stats.get("keys_hashed", 0)],
            ["merkle buckets rehashed", stats.get("buckets_rehashed", 0)],
            ["merkle full rebuilds", stats.get("full_rebuilds", 0)],
            ["merkle fingerprints imported", stats.get("fingerprints_imported", 0)],
            ["vnode partitions", args.partitions],
            ["partitions compared", cluster.merkle_stats.partitions_compared],
            ["partitions differing", cluster.merkle_stats.partitions_differing],
        ] + audit_rows,
        title="Simulated cluster run",
    ))
    _write_stats_json(cluster, args.stats_json)
    _finish_trace(sink, args.trace)
    return 0


def _cmd_cluster_asyncio(args: argparse.Namespace) -> int:
    """The asyncio-backend half of ``cmd_cluster`` (wall-clock run)."""
    import asyncio
    import random

    from .kvstore import AsyncioCluster

    async def run() -> int:
        tracer, sink = _open_tracer(args.trace)
        cluster = AsyncioCluster(
            create(args.mechanism),
            server_ids=tuple(f"n{i}" for i in range(args.servers)),
            quorum=QuorumConfig(n=min(3, args.servers),
                                r=min(2, args.servers),
                                w=min(2, args.servers),
                                sloppy=args.quorum_mode == "sloppy"),
            deadline_mode=args.deadline_mode,
                partition_count=args.partitions,
            tracer=tracer,
        )
        keys = [f"key-{i}" for i in range(args.keys)]
        duration_s = args.duration_ms / 1000.0
        think_s = args.think_time_ms / 1000.0
        async with cluster:
            clients = [await cluster.client(f"c{i}") for i in range(args.clients)]
            loop = asyncio.get_running_loop()
            stop_at = loop.time() + duration_s

            async def drive(client, index: int) -> None:
                rng = random.Random(args.seed * 1000 + index)
                while loop.time() < stop_at:
                    key = keys[rng.randrange(len(keys))]
                    if rng.random() < args.write_fraction:
                        await client.put(key, f"{client.client_id}-{rng.random():.6f}")
                    else:
                        await client.get(key)
                    if think_s:
                        await asyncio.sleep(think_s)

            started = loop.time()
            await asyncio.gather(*(drive(c, i) for i, c in enumerate(clients)))
            elapsed_s = loop.time() - started
            await cluster.converge(timeout_s=30.0)
            records = cluster.all_request_records()
            latency = analyze_requests(args.mechanism, records,
                                       duration_ms=elapsed_s * 1000.0)
            audit_rows = []
            if args.audit:
                checked, mismatches = _run_cluster_audit(
                    cluster, args.audit, args.seed)
                audit_rows = [["audit keys checked", checked],
                              ["audit mismatches", mismatches]]
            stats = cluster.stat_totals()
            wire_bytes = sum(server.endpoint.stats.bytes_sent
                             for server in cluster.servers.values())
            print(render_table(
                ["metric", "value"],
                [
                    ["mechanism", args.mechanism],
                    ["backend", "asyncio (unix sockets, wall clock)"],
                    ["servers", args.servers],
                    ["clients", args.clients],
                    ["requests completed", latency.requests],
                    ["requests failed", sum(1 for r in records if not r.ok)],
                    ["mean latency (ms)", round(latency.overall.mean, 3)],
                    ["p95 latency (ms)", round(latency.overall.p95, 3)],
                    ["p99 latency (ms)", round(latency.overall.p99, 3)],
                    ["throughput (req/s)", round(latency.throughput_per_s, 1)],
                    ["bytes on the wire", wire_bytes],
                    ["merkle keys hashed", stats.get("keys_hashed", 0)],
                    ["converged", "yes"],
                ] + audit_rows,
                title="Asyncio cluster run",
            ))
        # The shutdown-captured snapshot includes the daemons' final work.
        _write_stats_json(cluster, args.stats_json)
        _finish_trace(sink, args.trace)
        return 0

    return asyncio.run(run())


def cmd_serve(args: argparse.Namespace) -> int:
    """Run an asyncio cluster on Unix-domain sockets until interrupted.

    Writes a ``cluster.json`` manifest into the socket directory describing
    the topology, so ``connect`` (possibly from another process) can rebuild
    the placement view and talk to the servers.
    """
    import asyncio
    import json
    import os

    async def run() -> int:
        from .kvstore import AsyncioCluster

        if args.socket_dir is not None:
            os.makedirs(args.socket_dir, exist_ok=True)
        cluster = AsyncioCluster(
            create(args.mechanism),
            server_ids=tuple(f"n{i}" for i in range(args.servers)),
            socket_dir=args.socket_dir,
        )
        await cluster.start()
        manifest = {
            "mechanism": args.mechanism,
            "server_ids": cluster.server_ids,
            "quorum": {"n": cluster.quorum.n, "r": cluster.quorum.r,
                       "w": cluster.quorum.w, "sloppy": cluster.quorum.sloppy},
            "virtual_nodes": cluster.ring.virtual_nodes,
            "partition_count": cluster.partition_map.partition_count,
            "request_timeout_ms": cluster.env.request_timeout_ms,
            "client_timeout_ms": cluster.env.client_timeout_ms,
            "request_overhead_bytes": cluster.env.request_overhead_bytes,
            "socket_dir": cluster.socket_dir,
        }
        manifest_path = os.path.join(cluster.socket_dir, "cluster.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        print(f"serving {args.servers} nodes ({args.mechanism}) "
              f"on unix sockets under {cluster.socket_dir}")
        print(f"manifest: {manifest_path}")
        print("connect with: python -m repro connect "
              f"--socket-dir {cluster.socket_dir} get <key>")
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await cluster.stop()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down")
        return 0


def cmd_connect(args: argparse.Namespace) -> int:
    """One client request against a served cluster (see ``serve``)."""
    import asyncio
    import json
    import os

    from .cluster import ConsistentHashRing, Membership, PartitionMap, PlacementService
    from .kvstore import WriteLog
    from .kvstore.asyncio_cluster import AsyncClusterClient, UnixDirAddressBook
    from .kvstore.protocol import MerkleSyncStats
    from .kvstore.protocol.env import StaticProtocolEnv

    manifest_path = os.path.join(args.socket_dir, "cluster.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        print(f"no cluster manifest at {manifest_path} — is `serve` running?",
              file=sys.stderr)
        return 1

    mechanism = create(manifest["mechanism"])
    ring = ConsistentHashRing(manifest["server_ids"],
                              virtual_nodes=manifest["virtual_nodes"])
    quorum = QuorumConfig(**manifest["quorum"])
    placement = PlacementService(ring, Membership(manifest["server_ids"]),
                                 quorum,
                                 partition_map=PartitionMap(manifest["partition_count"]))
    tracer, sink = _open_tracer(args.trace)
    env = StaticProtocolEnv(
        mechanism=mechanism,
        quorum=quorum,
        placement=placement,
        write_log=WriteLog(),
        merkle_stats=MerkleSyncStats(),
        request_mode="async",
        request_timeout_ms=manifest["request_timeout_ms"],
        client_timeout_ms=manifest["client_timeout_ms"],
        request_overhead_bytes=manifest["request_overhead_bytes"],
    )
    if tracer is not None:
        env.tracer = tracer

    async def run() -> int:
        client = AsyncClusterClient(args.client_id, env,
                                    UnixDirAddressBook(manifest["socket_dir"]))
        await client.start()
        try:
            if args.operation == "put":
                if args.value is None:
                    print("put needs a VALUE argument", file=sys.stderr)
                    return 2
                result = await client.put(args.key, args.value)
                if result is None:
                    print("put failed (no coordinator answered)", file=sys.stderr)
                    return 1
                print(f"ok: {args.key!r} written via {result.coordinator}")
            else:
                result = await client.get(args.key)
                if result is None:
                    print("get failed (no coordinator answered)", file=sys.stderr)
                    return 1
                values = result.values if result.values else "(not found)"
                print(f"{args.key!r} -> {values} "
                      f"({len(result.siblings)} sibling(s))")
            record = client.records[-1]
            print(f"latency: {record.latency_ms:.2f} ms "
                  f"(coordinator {record.coordinator or 'n/a'})")
            return 0
        finally:
            await client.close()
            _finish_trace(sink, args.trace)

    return asyncio.run(run())


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def _mechanism_list(value: str) -> List[str]:
    names = [name.strip() for name in value.split(",") if name.strip()]
    unknown = [name for name in names if name not in available()]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown mechanism(s) {', '.join(unknown)}; known: {', '.join(available())}"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dotted version vectors (PODC 2012) reproduction harness",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("mechanisms", help="list registered causality mechanisms") \
        .set_defaults(handler=cmd_mechanisms)

    figure1 = subparsers.add_parser("figure1", help="replay the paper's Figure 1")
    figure1.add_argument("--mechanisms", type=_mechanism_list, default=None,
                         help="comma-separated mechanism names")
    figure1.set_defaults(handler=cmd_figure1)

    scenario = subparsers.add_parser("scenario", help="replay a named scenario")
    scenario.add_argument("name", help="scenario name (see repro.workloads.named_scenarios)")
    scenario.add_argument("--mechanism", default="dvv", choices=available())
    scenario.set_defaults(handler=cmd_scenario)

    compare = subparsers.add_parser("compare",
                                    help="replay one synthetic workload under several mechanisms")
    compare.add_argument("--clients", type=int, default=24)
    compare.add_argument("--keys", type=int, default=2)
    compare.add_argument("--operations", type=int, default=200)
    compare.add_argument("--stale-reads", type=float, default=0.3, dest="stale_reads")
    compare.add_argument("--blind-writes", type=float, default=0.05, dest="blind_writes")
    compare.add_argument("--seed", type=int, default=2012)
    compare.add_argument("--mechanisms", type=_mechanism_list, default=None)
    compare.set_defaults(handler=cmd_compare)

    churn = subparsers.add_parser("churn",
                                  help="run a membership-churn scenario on the "
                                       "simulated cluster")
    churn.add_argument("--scenario", default="elasticity",
                       choices=sorted(CHURN_SCENARIOS))
    churn.add_argument("--mechanism", default="dvv", choices=available())
    churn.add_argument("--quorum-mode", default="sloppy", choices=["strict", "sloppy"],
                       dest="quorum_mode",
                       help="strict quorums fail writes when primaries are unreachable; "
                            "sloppy quorums fall back to the next ring nodes")
    churn.add_argument("--seed", type=int, default=2012)
    churn.add_argument("--duration-ms", type=float, default=None, dest="duration_ms",
                       help="override the scenario's simulated duration "
                            "(e.g. long soak runs)")
    churn.add_argument("--zipf-s", type=float, default=None, dest="zipf_s",
                       help="override the Zipf skew exponent of skewed "
                            "scenarios (hot_key, soak)")
    churn.add_argument("--stats-json", default=None, dest="stats_json", metavar="PATH",
                       help="write the cluster's unified metrics snapshot as JSON")
    churn.add_argument("--trace", default=None, metavar="PATH",
                       help="record per-request span events as JSONL")
    churn.set_defaults(handler=cmd_churn)

    cluster = subparsers.add_parser("cluster",
                                    help="run the message-passing cluster under a "
                                         "closed-loop workload")
    cluster.add_argument("--mechanism", default="dvv", choices=available())
    cluster.add_argument("--backend", default="sim", choices=["sim", "asyncio"],
                         help="sim: deterministic simulator in virtual time; "
                              "asyncio: the same protocol over real Unix-domain "
                              "sockets, reporting wall-clock numbers")
    cluster.add_argument("--request-mode", default="membership",
                         choices=["membership", "async"], dest="request_mode",
                         help="membership: coordinators consult the failure detector; "
                              "async: per-replica deadlines with sloppy-quorum fallbacks")
    cluster.add_argument("--quorum-mode", default="sloppy", choices=["strict", "sloppy"],
                         dest="quorum_mode")
    cluster.add_argument("--deadline-mode", default="fixed", choices=["fixed", "adaptive"],
                         dest="deadline_mode",
                         help="async-mode replica deadlines: one fixed timeout, or an "
                              "EWMA of each replica's observed ack latency "
                              "(clamped to a floor/ceiling)")
    cluster.add_argument("--partitions", type=int, default=16,
                         help="fixed vnode partition count: each server keeps one "
                              "store and one Merkle tree per key range")
    cluster.add_argument("--servers", type=int, default=3)
    cluster.add_argument("--clients", type=int, default=16)
    cluster.add_argument("--keys", type=int, default=2)
    cluster.add_argument("--duration-ms", type=float, default=500.0, dest="duration_ms")
    cluster.add_argument("--think-time-ms", type=float, default=5.0, dest="think_time_ms")
    cluster.add_argument("--write-fraction", type=float, default=0.6, dest="write_fraction")
    cluster.add_argument("--bytes-per-ms", type=float, default=600.0, dest="bytes_per_ms")
    cluster.add_argument("--seed", type=int, default=2012)
    cluster.add_argument("--audit", type=int, default=0, metavar="SAMPLE",
                         help="after the workload, cold-verify up to SAMPLE "
                              "stored keys per node against the maintained "
                              "Merkle index and report mismatches")
    cluster.add_argument("--stats-json", default=None, dest="stats_json", metavar="PATH",
                         help="write the cluster's unified metrics snapshot as JSON "
                              "(same schema for both backends)")
    cluster.add_argument("--trace", default=None, metavar="PATH",
                         help="record per-request span events as JSONL")
    cluster.set_defaults(handler=cmd_cluster)

    serve = subparsers.add_parser("serve",
                                  help="run an asyncio cluster on Unix-domain "
                                       "sockets until interrupted")
    serve.add_argument("--mechanism", default="dvv", choices=available())
    serve.add_argument("--servers", type=int, default=3)
    serve.add_argument("--socket-dir", default=None, dest="socket_dir",
                       help="directory for the Unix sockets and the cluster.json "
                            "manifest (default: a fresh temp dir)")
    serve.set_defaults(handler=cmd_serve)

    connect = subparsers.add_parser("connect",
                                    help="issue one request against a served "
                                         "cluster (see `serve`)")
    connect.add_argument("--socket-dir", required=True, dest="socket_dir",
                         help="the socket directory `serve` printed")
    connect.add_argument("--client-id", default="cli", dest="client_id")
    connect.add_argument("--trace", default=None, metavar="PATH",
                         help="record the request's client-side span events as JSONL")
    connect.add_argument("operation", choices=["get", "put"])
    connect.add_argument("key")
    connect.add_argument("value", nargs="?", default=None)
    connect.set_defaults(handler=cmd_connect)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
