"""The cluster core both backends share: config, placement, env, hosts, reports.

A :class:`ClusterCore` is everything a cluster is apart from how its messages
move: the validated configuration knobs, the ring, topology, membership,
partition map and placement, the oracle's write log, the cluster-wide Merkle
stats and the tracer, the ``servers`` / ``clients`` registries, and the
reporting every test, scenario and benchmark reads.

The core *is* the protocol env (see :mod:`repro.kvstore.protocol.env`): every
hosted machine reads its configuration and the two env queries,
:meth:`ClusterCore.can_reach` and :meth:`ClusterCore.is_registered`, straight
off the cluster object, so an attribute a test sets on a live cluster is seen
at once.  What the implementation fixes — batch sizes, the read-repair
window, the hint backoff, the modelled envelope (constants in
:mod:`repro.kvstore.protocol.env`), the ring's :data:`VIRTUAL_NODES` and the
Merkle tree shape (:class:`~repro.kvstore.merkle_index.VnodeIndexSet`'s
defaults) — is not configurable.

The core also owns the daemon *policy*: :meth:`ClusterCore.anti_entropy_tick`
starts one Merkle-delta exchange for the next reachable replica pair and
:meth:`ClusterCore.hint_replay_tick` replays every up holder's hints, so both
backends rotate pairs and replay hints by one rule.  A backend subclasses it
and supplies only its transport, the :meth:`ClusterCore.transport_stats` the
metrics read, the *cadence* that calls each of :meth:`ClusterCore.daemons`,
and its run / converge / start / stop:
:class:`~repro.kvstore.simulated.SimulatedCluster` over the event simulator,
:class:`~repro.kvstore.asyncio_cluster.AsyncioCluster` over sockets.  A bare
core has no transport and no servers; scripted protocol tests and the CLI's
``connect`` command use one as a plain env.

Both backends host their nodes the same way: a :class:`ServerHost` per storage
server and a :class:`ClientHost` per client, each one machine plus the
:class:`~repro.kvstore.protocol.effects.EffectRunner` that executes its effects
against the backend's transport.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..clocks.interface import CausalityMechanism
from ..cluster.membership import Membership
from ..cluster.preference_list import PlacementService, QuorumConfig
from ..cluster.ring import DEFAULT_PARTITION_COUNT, ConsistentHashRing, PartitionMap
from ..cluster.topology import Topology
from ..core.exceptions import ConfigurationError
from ..network.message import Message
from ..network.partition import PartitionManager
from ..network.transport import TransportStats
from ..obs.cluster_metrics import build_cluster_registry
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NO_TRACER
from .merkle import key_fingerprint
from .protocol import (
    DEADLINE_MODES,
    SYNC_MESSAGE_TYPES,
    ClientProtocol,
    EffectRunner,
    MerkleSyncStats,
    ProtocolNode,
    RequestRecord,
)
from .server import StorageNode
from .write_log import WriteLog

__all__ = ["ClientHost", "ClusterCore", "ServerHost"]

#: Ring positions per server (Dynamo's virtual nodes).
VIRTUAL_NODES = 32


class ServerHost:
    """One storage server on either backend.

    Hosts the transport-agnostic
    :class:`~repro.kvstore.protocol.node.ProtocolNode` (which owns the durable
    :class:`StorageNode` and its write-maintained Merkle index) and runs the
    effects it emits against ``transport``, whose clock stamps every entry.
    ``handle_message`` is the transport's delivery handler.
    """

    def __init__(self, node_id: str, mechanism: CausalityMechanism,
                 cluster: "ClusterCore", transport: Any) -> None:
        self.node_id = node_id
        # The cluster itself is the machines' env (see protocol/env.py).
        self.protocol = ProtocolNode(node_id, mechanism, cluster)
        self.transport = transport
        self.runner = EffectRunner(transport, self.protocol.on_timer)

    @property
    def node(self) -> StorageNode:
        """The server's storage layer (durable state, stats, hints, index)."""
        return self.protocol.store

    def handle_message(self, message: Message) -> None:
        """Transport entry point."""
        self.runner.run(self.protocol.on_message(message, self.transport.now_ms()))

    def replay_hints(self) -> int:
        """One hint-replay tick; returns the number of batches sent."""
        effects, batches = self.protocol.replay_hints(self.transport.now_ms())
        self.runner.run(effects)
        return batches

    def start_merkle_sync_with(self, peer_id: str) -> None:
        """Begin a Merkle-delta exchange with ``peer_id``."""
        self.runner.run(
            self.protocol.start_merkle_sync_with(peer_id, self.transport.now_ms()))

    def send_key_handoff(self, target_id: str, keys: Sequence[str]) -> None:
        """Push the states of ``keys`` to a node that became a replica home."""
        self.runner.run(
            self.protocol.send_key_handoff(target_id, keys, self.transport.now_ms()))


class ClientHost:
    """One client on either backend: a
    :class:`~repro.kvstore.protocol.client.ClientProtocol` (causal session,
    failover deadlines, request records) whose effects run against
    ``transport``.  Backends add ``get`` / ``put`` in their own style."""

    def __init__(self, client_id: str, cluster: "ClusterCore",
                 transport: Any) -> None:
        self.client_id = client_id
        self.protocol = ClientProtocol(client_id, cluster)
        self.transport = transport
        self.runner = EffectRunner(transport, self.protocol.on_timer)

    @property
    def address(self) -> str:
        return self.protocol.address

    @property
    def session(self):
        return self.protocol.session

    @property
    def records(self) -> List[RequestRecord]:
        return self.protocol.records

    def handle_message(self, message: Message) -> None:
        """Transport entry point (replies from coordinators)."""
        self.runner.run(self.protocol.on_message(message, self.transport.now_ms()))


class ClusterCore:
    """A cluster's shared core and its machines' protocol env.

    Parameters
    ----------
    mechanism:
        Causality mechanism shared by all servers in this run.
    server_ids:
        Physical storage nodes.
    quorum:
        N / R / W configuration (sloppy N=3 R=2 W=2, capped at the server
        count, by default).
    anti_entropy_interval_ms / hint_replay_interval_ms:
        Cadences of the backend's anti-entropy and hint-replay daemons
        (positive; ``None`` disables one).  Without hint replay no hints are
        stored.
    replica_timeout_ms / request_timeout_ms / client_timeout_ms:
        Coordination deadlines: how long a coordinator waits for one replica's
        ack before extending/abandoning it, how long a whole request may take
        before the coordinator answers ``ERROR_REPLY``, and how long a client
        waits (1.5 × the request timeout by default) before failing over to
        the next candidate coordinator.
    deadline_mode / deadline_floor_ms:
        Per-replica deadlines: ``"fixed"`` arms ``replica_timeout_ms`` for
        every replica; ``"adaptive"`` arms an EWMA of the replica's observed
        ack latency, clamped to [floor, ``replica_timeout_ms``], so
        adaptation only ever tightens failure detection; the floor keeps a
        single latency spike from mass-expiring healthy replicas.
    partition_count / topology:
        The cluster-wide fixed vnode ranges, and the datacenter assignment
        (``None``: one implicit DC).
    tracer:
        Span emitter shared by every hosted machine (inert by default; span
        events bypass the transport, so tracing cannot perturb a run).
    """

    def __init__(self,
                 mechanism: CausalityMechanism,
                 server_ids: Sequence[str] = ("A", "B", "C"),
                 quorum: Optional[QuorumConfig] = None,
                 *,
                 anti_entropy_interval_ms: Optional[float] = 100.0,
                 hint_replay_interval_ms: Optional[float] = 50.0,
                 replica_timeout_ms: float = 10.0,
                 request_timeout_ms: float = 50.0,
                 client_timeout_ms: Optional[float] = None,
                 deadline_mode: str = "fixed",
                 deadline_floor_ms: float = 2.0,
                 partition_count: int = DEFAULT_PARTITION_COUNT,
                 topology: Optional[Topology] = None,
                 tracer: Optional[Any] = None) -> None:
        if not server_ids:
            raise ConfigurationError("at least one server id is required")
        if deadline_mode not in DEADLINE_MODES:
            raise ConfigurationError(
                f"unknown deadline mode {deadline_mode!r}; choose from {DEADLINE_MODES}"
            )
        if replica_timeout_ms <= 0 or request_timeout_ms <= 0:
            raise ConfigurationError("request timeouts must be positive")
        if deadline_floor_ms <= 0:
            raise ConfigurationError(
                f"deadline_floor_ms must be positive, got {deadline_floor_ms}"
            )
        if replica_timeout_ms < deadline_floor_ms:
            raise ConfigurationError(
                f"replica_timeout_ms ({replica_timeout_ms}) must be >= "
                f"deadline_floor_ms ({deadline_floor_ms})"
            )
        for name, interval in (("anti_entropy_interval_ms", anti_entropy_interval_ms),
                               ("hint_replay_interval_ms", hint_replay_interval_ms)):
            if interval is not None and interval <= 0:
                raise ConfigurationError(
                    f"{name} must be positive (or None to disable), got {interval}"
                )
        self.mechanism = mechanism
        self.quorum = quorum or QuorumConfig(n=min(3, len(server_ids)),
                                             r=min(2, len(server_ids)),
                                             w=min(2, len(server_ids)))
        self.ring = ConsistentHashRing(server_ids, virtual_nodes=VIRTUAL_NODES)
        #: Datacenter assignment; ``None`` means a single implicit DC and
        #: keeps placement byte-identical to the pre-topology behavior.
        self.topology = topology
        self.membership = Membership(server_ids, topology=topology)
        self.partitions = PartitionManager()
        # The cluster-wide range ↔ vnode mapping: every server divides its
        # key space into the same fixed partitions, so per-range digests are
        # comparable between peers and handoff can move whole ranges.
        self.partition_map = PartitionMap(partition_count)
        self.placement = PlacementService(self.ring, self.membership,
                                          self.quorum,
                                          partition_map=self.partition_map,
                                          topology=topology)
        self.write_log = WriteLog()
        self.merkle_stats = MerkleSyncStats()
        self.tracer = tracer if tracer is not None else NO_TRACER
        self.anti_entropy_interval_ms = anti_entropy_interval_ms
        self.hint_replay_interval_ms = hint_replay_interval_ms
        #: Coordinators store hints for unreachable primaries only when a
        #: daemon will replay them.
        self.hinted_handoff_enabled = hint_replay_interval_ms is not None
        self.replica_timeout_ms = replica_timeout_ms
        self.request_timeout_ms = request_timeout_ms
        self.client_timeout_ms = (client_timeout_ms if client_timeout_ms is not None
                                  else request_timeout_ms * 1.5)
        self.deadline_mode = deadline_mode
        self.deadline_floor_ms = deadline_floor_ms

        self.servers: Dict[str, ServerHost] = {}
        self.clients: Dict[str, ClientHost] = {}
        #: Position in the anti-entropy pair rotation; persists across ticks.
        self._exchange_index = 0
        #: Counters of decommissioned servers, still part of the run's totals.
        self._departed_stats: Dict[str, int] = {}
        self._metrics_registry: Optional[MetricsRegistry] = None
        #: A snapshot a backend captured at shutdown, returned from then on.
        self._final_snapshot: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Env queries and the transport's stats
    # ------------------------------------------------------------------ #
    def is_registered(self, node_id: str) -> bool:
        """Whether ``node_id``'s process is alive (the env's liveness query).

        A bare core and real sockets cannot tell, and say yes: a dead peer
        shows up as a missed deadline.
        """
        return True

    def can_reach(self, source_id: str, target_id: str) -> bool:
        """Whether ``source_id`` can currently deliver messages to ``target_id``.

        A node is unreachable when it is marked down, its process is not
        registered, or a partition cuts it off.  Hint replay and graceful
        decommissioning consult this view; request coordination does not.
        """
        return (self.membership.is_up(target_id)
                and self.is_registered(target_id)
                and self.partitions.can_communicate(source_id, target_id))

    def transport_stats(self) -> List[TransportStats]:
        """Every byte/deadline counter set of the transport (none when bare)."""
        return []

    # ------------------------------------------------------------------ #
    # Daemon policy (a backend supplies only the cadence)
    # ------------------------------------------------------------------ #
    def daemons(self) -> List[Tuple[str, float, Callable[[], None]]]:
        """``(label, interval_ms, tick)`` of every enabled daemon, anti-entropy
        first; a backend calls each ``tick`` every ``interval_ms``."""
        return [(label, interval_ms, tick) for label, interval_ms, tick in (
            ("anti-entropy", self.anti_entropy_interval_ms, self.anti_entropy_tick),
            ("hinted-handoff", self.hint_replay_interval_ms, self.hint_replay_tick),
        ) if interval_ms is not None]

    def anti_entropy_tick(self) -> None:
        """Start one Merkle-delta exchange for the next pair of up servers.

        The rotation walks the unordered pairs of ``sorted(self.servers)``,
        taken at tick time, so a joined server enters it and a departed one
        leaves it.  A pair with a server the membership marks down is skipped,
        at most one full cycle per tick, so a mostly-down cluster starts
        nothing rather than looping.
        """
        server_ids = sorted(self.servers)
        pairs = [(source_id, target_id)
                 for index, source_id in enumerate(server_ids)
                 for target_id in server_ids[index + 1:]]
        for _ in pairs:
            source_id, target_id = pairs[self._exchange_index % len(pairs)]
            self._exchange_index += 1
            if self.membership.is_up(source_id) and self.membership.is_up(target_id):
                source = self.servers[source_id]
                self._daemon_step(source, source.start_merkle_sync_with, target_id)
                return

    def hint_replay_tick(self) -> None:
        """Replay the hints of every up server that holds any, in id order."""
        holders = [server for server_id, server in sorted(self.servers.items())
                   if server.node.pending_hints() > 0
                   and self.membership.is_up(server_id)]
        for server in holders:
            self._daemon_step(server, server.replay_hints)

    def _daemon_step(self, server: ServerHost, step: Callable[..., Any],
                     *args: Any) -> None:
        """Run ``server``'s share of a daemon tick.  An error propagates here;
        a backend that must keep serving past one overrides this to contain
        it."""
        step(*args)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def key_universe(self) -> List[str]:
        """Every key held by any live server, sorted."""
        keys = set()
        for server in self.servers.values():
            keys.update(server.node.storage.keys())
        return sorted(keys)

    def is_converged(self) -> bool:
        """True iff every server stores an identical sibling set for every key."""
        for key in self.key_universe():
            fingerprints = {key_fingerprint(server.node, key)
                            for server in self.servers.values()}
            if len(fingerprints) > 1:
                return False
        return True

    def all_request_records(self) -> List[RequestRecord]:
        """Every request completed by every client, in completion order."""
        records: List[RequestRecord] = []
        for client in self.clients.values():
            records.extend(client.records)
        records.sort(key=lambda record: record.finished_at)
        return records

    def metadata_entries(self) -> int:
        """Total causality-metadata entries stored across the cluster."""
        return sum(server.node.metadata_entries() for server in self.servers.values())

    def metadata_bytes(self) -> int:
        """Total causality-metadata bytes stored across the cluster."""
        return sum(server.node.metadata_bytes() for server in self.servers.values())

    def sync_bytes(self) -> int:
        """Total bytes delivered so far on anti-entropy messages."""
        return sum(stats.bytes_for(*SYNC_MESSAGE_TYPES)
                   for stats in self.transport_stats())

    def sibling_counts(self, key: str) -> Dict[str, int]:
        """Live sibling counts of ``key`` on every server."""
        return {
            server_id: len(server.node.siblings_of(key))
            for server_id, server in self.servers.items()
        }

    def stat_totals(self) -> Dict[str, int]:
        """Per-node operation counters summed across the cluster.

        Includes the counters of gracefully decommissioned nodes, so churn
        reports account for work done before a departure.
        """
        totals: Dict[str, int] = dict(self._departed_stats)
        for server in self.servers.values():
            for name, value in server.node.stats.items():
                totals[name] = totals.get(name, 0) + value
        totals["pending_hints"] = sum(server.node.pending_hints()
                                      for server in self.servers.values())
        return totals

    def metrics_registry(self) -> MetricsRegistry:
        """The cluster's unified metrics registry (built once, reads live)."""
        if self._metrics_registry is None:
            self._metrics_registry = build_cluster_registry(self)
        return self._metrics_registry

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One flat, stable, JSON-serializable view of every cluster stat.

        Once a backend has captured a snapshot at shutdown (the asyncio
        cluster's :meth:`stop`), that one is returned, so no daemon work from
        the final interval is lost.
        """
        if self._final_snapshot is not None:
            return dict(self._final_snapshot)
        return self.metrics_registry().snapshot()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"{type(self).__name__}(mechanism={self.mechanism.name!r}, "
                f"servers={sorted(self.servers)}, clients={len(self.clients)})")
