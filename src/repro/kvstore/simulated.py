"""The simulated message-passing cluster: Dynamo/Riak over the event simulator.

This is the substrate that replaces the paper's modified-Riak testbed for the
latency experiment (E4) and for integration tests that need real replication
traffic (quorums, read repair, anti-entropy, partitions).  Everything travels
as :class:`~repro.network.message.Message` objects through a
:class:`~repro.network.transport.Transport`, so metadata size directly
influences request latency via the size-dependent latency model.

Topology and protocol
---------------------
The protocol itself lives in :mod:`repro.kvstore.protocol` as
transport-agnostic state machines; this module is the **deterministic
simulator backend** that hosts them (the asyncio socket backend in
:mod:`repro.kvstore.asyncio_cluster` hosts the same machines over real
connections — see ``ARCHITECTURE.md`` for the layering):

* Each physical server runs a :class:`MessageServer` hosting a
  :class:`~repro.kvstore.protocol.node.ProtocolNode` (coordination, replica
  handlers, Merkle anti-entropy, hint replay) over a
  :class:`~repro.kvstore.server.StorageNode`.
* Clients are :class:`SimulatedClient` nodes hosting a
  :class:`~repro.kvstore.protocol.client.ClientProtocol`; they send
  ``COORDINATE_GET`` / ``COORDINATE_PUT`` to the key's coordinator (resolved
  through the placement service) and receive ``GET_REPLY`` / ``PUT_REPLY``.
* The coordinator fans out to the key's replicas, waits for the configured
  R/W quorum, performs read repair on divergent read replies, and answers the
  client.
* A background :class:`~repro.kvstore.anti_entropy.AntiEntropyDaemon`
  periodically synchronises replica pairs with the **Merkle-delta protocol**
  (below), the store's one anti-entropy exchange.

Every machine consumes decoded messages and timer events and emits effects;
an :class:`~repro.kvstore.protocol.effects.EffectRunner` per hosted node
executes them against the simulated transport in emission order, which keeps
runs bit-for-bit reproducible for a fixed seed.

Merkle-delta anti-entropy (per vnode range)
-------------------------------------------
Every server divides its key space into the cluster-wide fixed partitions of
a :class:`~repro.cluster.ring.PartitionMap` and maintains one hash tree per
partition (vnode range).  A sync round between a source and a target then
compares ranges, not the whole keyspace:

1. the source sends the root digest of every non-empty local range in one
   ``MERKLE_PARTITION_DIGESTS`` message;
2. the target compares range by range (absent ranges hash to the well-known
   empty root) and names the differing ranges in a
   ``MERKLE_PARTITION_DIFF`` reply — on a synced pair the exchange ends
   here, two messages total;
3. each differing range's tree is walked level by level
   (``MERKLE_SYNC_REQUEST`` / ``MERKLE_SYNC_RESPONSE``), the source shipping
   child digests of differing paths until the leaf-bucket level, where the
   target's response also carries the per-key fingerprints of the differing
   buckets — differing ranges descend **concurrently**, as parallel
   sessions whose messages interleave in flight;
4. the source computes the exact divergent key set from the fingerprints and
   ships only those keys' states, batched ``sync_batch_size`` keys per
   ``MERKLE_KEY_STATES`` message to amortise per-message latency; the target
   merges them and replies with its own state only for the keys where the
   source still lacks something (a key whose merged sibling set equals the
   set just received is not mailed back).

Bytes on the wire are therefore proportional to the *divergence*, not the
store size, and digest comparisons are confined to the ranges that actually
differ.  All protocol messages pay the normal transport latency/size costs,
and every merge is idempotent, so lost or duplicated messages merely delay
convergence until a later round.

The trees themselves are **incrementally maintained**, Riak-style: each
server carries a :class:`~repro.kvstore.merkle_index.VnodeIndexSet` — one
:class:`~repro.kvstore.merkle_index.MerkleIndex` per vnode range, each
subscribed to its range's slice of the storage mutation stream — so every
write path (client puts, replica merges, read repair, Merkle-delta
transfers, hint replay, rebalancing handoff) re-fingerprints only the
mutated key and dirties its leaf bucket in the one affected range tree.  The
exchange reads those live trees directly — each handler flushes the one
range it was asked about and answers from its digests — so tree work per
exchange is O(divergent buckets), not O(keys), and nothing is copied.
Rebalancing handoff (``KEY_HANDOFF``) ships
each key's maintained fingerprint alongside its state, so moving a vnode's
keys re-hashes ~nothing on either side: the receiver adopts the digests
(counted in ``fingerprints_imported``) instead of re-fingerprinting.
Read-repair pushes are coalesced the same way sync transfers are: repairs
for one stale replica ride a single batched ``READ_REPAIR`` message per
coalescing window.

Dynamic membership and hinted handoff
-------------------------------------
The cluster is elastic: :meth:`SimulatedCluster.join_node` adds a server at
runtime (the ring rebalances and existing replicas push the keys the newcomer
now owns via ``KEY_HANDOFF``), :meth:`SimulatedCluster.decommission_node`
removes one gracefully (it first pushes each of its keys to the key's
remaining replica homes), and :meth:`SimulatedCluster.fail_node` /
:meth:`SimulatedCluster.recover_node` model crashes — optionally with wiped
storage on recovery.  :meth:`SimulatedCluster.shutdown_node` models a *clean*
shutdown: storage flushes and marks its Merkle index clean, so a later
recovery adopts the maintained digests instead of rebuilding them (counted in
``rebuilds_skipped``).

When a write coordinator cannot reach one of the key's primary replicas
(crashed, or cut off by a partition), the write is held as a *hint* — target
id plus the post-write state — persisted in the holder's storage layer, so a
process restart of the holder does not lose it (a wiped disk does).  The
background :class:`~repro.kvstore.anti_entropy.HintedHandoffDaemon` replays
hints (``HINT_REPLAY`` / ``HINT_ACK``) once the target is reachable again; a
membership listener also nudges replay immediately on recovery.  Replay
targeting consults the per-replica latency EWMAs: a persistently slow peer is
replayed to once and then backed off for a multiple of its observed round
trip (``hint_backoff_multiplier``) instead of being hammered every tick.

Request modes: failure detector vs deadlines
--------------------------------------------
The cluster runs in one of two request modes (``request_mode``):

* ``"membership"`` (default) — the PR-1 behaviour: the coordinator consults
  the membership view's failure detector (``active_replicas`` /
  ``can_reach``) to decide whom to contact and for whom to hold hints.
  Hints live on the coordinator.
* ``"async"`` — Dynamo-style timeout-driven coordination: the coordinator
  fans out to the key's N *primary* replicas regardless of the membership
  view, arms a per-replica deadline, and collects R/W acks.  When a replica's
  deadline fires and the quorum is **sloppy** (``QuorumConfig.sloppy``), the
  preference list is extended past the N primaries to the next node on the
  ring, which accepts the write together with a hint naming the intended
  primary; hint replay later returns the data to the primary.  With a
  **strict** quorum (or an exhausted ring) the coordinator holds the hint
  itself and the request fails with ``ERROR_REPLY`` once the quorum is
  infeasible or the overall request deadline fires.  Clients in async mode
  arm their own deadline and fail over to the next candidate coordinator on
  the (extended) preference list before reporting the request as failed.

Per-replica deadlines are a fixed ``replica_timeout_ms`` by default;
``deadline_mode="adaptive"`` instead arms an EWMA of each replica's observed
ack latency (scaled for headroom, clamped to a floor/ceiling), so failover
off a slow replica happens in a few of its usual round trips instead of a
worst-case constant.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..clocks.interface import CausalityMechanism
from ..cluster.membership import Membership
from ..cluster.preference_list import PlacementService, QuorumConfig
from ..cluster.topology import Topology
from ..cluster.ring import (
    DEFAULT_PARTITION_COUNT,
    ConsistentHashRing,
    PartitionMap,
    rebalance_plan,
)
from ..core.exceptions import ConfigurationError
from ..network.latency import LatencyModel, SizeDependentLatency
from ..network.message import Message
from ..network.partition import PartitionManager
from ..network.simulator import Simulation
from ..network.transport import Transport
from ..obs.cluster_metrics import build_cluster_registry
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NO_TRACER
from .anti_entropy import AntiEntropyDaemon, HintedHandoffDaemon
from .client import GetResult, PutResult
from .merkle import key_fingerprint
from .protocol import (
    ADAPTIVE_DEADLINE_MULTIPLIER,
    DEADLINE_EWMA_ALPHA,
    DEADLINE_MODES,
    DIGEST_BYTES,
    REQUEST_MODES,
    SYNC_MESSAGE_TYPES,
    ClientProtocol,
    EffectRunner,
    MerkleSyncStats,
    ProtocolNode,
    RequestRecord,
    chunked as _chunked,
    default_value_size,
)
from .protocol.anti_entropy import AntiEntropySession as _MerkleSession
from .protocol.coordinator import CoordinatorSession as _PendingCoordination
from .server import StorageNode
from .write_log import WriteLog

__all__ = [
    "ADAPTIVE_DEADLINE_MULTIPLIER",
    "DEADLINE_EWMA_ALPHA",
    "DEADLINE_MODES",
    "DIGEST_BYTES",
    "MerkleSyncStats",
    "MessageServer",
    "REQUEST_MODES",
    "RequestRecord",
    "SYNC_MESSAGE_TYPES",
    "SimulatedClient",
    "SimulatedCluster",
    "default_value_size",
]

class _ClusterEnv:
    """Protocol-env view over a live :class:`SimulatedCluster`.

    The state machines read their configuration through the env contract
    (see :mod:`repro.kvstore.protocol.env`); proxying the live cluster
    attributes — instead of copying them once — keeps tests that tweak
    cluster knobs at runtime (timeouts, batch sizes, quorum config) working
    exactly as before the extraction.
    """

    def __init__(self, cluster: "SimulatedCluster") -> None:
        self._cluster = cluster

    @property
    def mechanism(self):
        return self._cluster.mechanism

    @property
    def quorum(self):
        return self._cluster.quorum

    @property
    def placement(self):
        return self._cluster.placement

    @property
    def write_log(self):
        return self._cluster.write_log

    @property
    def merkle_stats(self):
        return self._cluster.merkle_stats

    @property
    def request_mode(self):
        return self._cluster.request_mode

    @property
    def replica_timeout_ms(self):
        return self._cluster.replica_timeout_ms

    @property
    def request_timeout_ms(self):
        return self._cluster.request_timeout_ms

    @property
    def client_timeout_ms(self):
        return self._cluster.client_timeout_ms

    @property
    def sync_batch_size(self):
        return self._cluster.sync_batch_size

    @property
    def merkle_fanout(self):
        return self._cluster.merkle_fanout

    @property
    def merkle_depth(self):
        return self._cluster.merkle_depth

    @property
    def read_repair_batch_ms(self):
        return self._cluster.read_repair_batch_ms

    @property
    def deadline_mode(self):
        return self._cluster.deadline_mode

    @property
    def deadline_floor_ms(self):
        return self._cluster.deadline_floor_ms

    @property
    def deadline_ceiling_ms(self):
        return self._cluster.deadline_ceiling_ms

    @property
    def request_overhead_bytes(self):
        return self._cluster.request_overhead_bytes

    @property
    def hinted_handoff_enabled(self):
        return self._cluster.hinted_handoff_enabled

    @property
    def hint_backoff_multiplier(self):
        return self._cluster.hint_backoff_multiplier

    def can_reach(self, source_id: str, target_id: str) -> bool:
        return self._cluster.can_reach(source_id, target_id)

    def is_registered(self, node_id: str) -> bool:
        return self._cluster.transport.is_registered(node_id)

    @property
    def tracer(self):
        return self._cluster.tracer


class MessageServer:
    """A storage server of the simulated cluster.

    Thin backend shell: it hosts the transport-agnostic
    :class:`~repro.kvstore.protocol.node.ProtocolNode` (which owns the
    durable :class:`StorageNode` and its write-maintained Merkle index) that
    implements the entire message protocol, and runs the effects the
    machines emit against the simulated transport.
    """

    def __init__(self,
                 node_id: str,
                 mechanism: CausalityMechanism,
                 cluster: "SimulatedCluster") -> None:
        self.node_id = node_id
        self.mechanism = mechanism
        self.cluster = cluster
        self.protocol = ProtocolNode(node_id, mechanism, cluster.protocol_env)
        self.runner = EffectRunner(cluster.transport, self.protocol.on_timer)

    @property
    def node(self) -> StorageNode:
        """The server's storage layer (durable state, stats, hints, index)."""
        return self.protocol.store

    # ------------------------------------------------------------------ #
    # Transport entry point and daemon triggers
    # ------------------------------------------------------------------ #
    def handle_message(self, message: Message) -> None:
        """Transport entry point."""
        self.runner.run(
            self.protocol.on_message(message, self.cluster.simulation.now))

    def replay_hints(self) -> int:
        """One hint-replay tick; returns the number of batches sent."""
        effects, batches = self.protocol.replay_hints(self.cluster.simulation.now)
        self.runner.run(effects)
        return batches

    def start_merkle_sync_with(self, peer_id: str) -> None:
        """Begin a Merkle-delta exchange with ``peer_id``."""
        self.runner.run(
            self.protocol.start_merkle_sync_with(peer_id,
                                                 self.cluster.simulation.now))

    def send_key_handoff(self, target_id: str, keys: Sequence[str]) -> None:
        """Push the states of ``keys`` to a node that became a replica home."""
        self.runner.run(
            self.protocol.send_key_handoff(target_id, keys,
                                           self.cluster.simulation.now))

    def on_recover(self, wipe: bool,
                   wipe_partitions: Optional[Sequence[int]] = None) -> None:
        """Recover from a crash (see :meth:`ProtocolNode.on_recover`).

        Deliberately does *not* disarm timers the crashed process had armed:
        a real crashed coordinator's deadlines are process memory too, but
        the original simulator let them fire harmlessly against the cleared
        state, and the equivalence suite pins that behaviour.
        """
        self.protocol.on_recover(wipe, wipe_partitions=wipe_partitions)

    # ------------------------------------------------------------------ #
    # Introspection shims (stable names for tests and diagnostics)
    # ------------------------------------------------------------------ #
    @property
    def read_repair_stats(self):
        return self.protocol.coordinator.read_repair_stats

    @property
    def _pending(self):
        return self.protocol.coordinator.sessions

    @property
    def _repair_queue(self):
        return self.protocol.coordinator.repair_queue

    @property
    def _ack_latency_ewma(self) -> Dict[str, float]:
        return self.protocol.latency.ewma

    def _replica_deadline_ms(self, replica_id: str) -> float:
        return self.protocol.coordinator.replica_deadline_ms(replica_id)

    @property
    def _merkle_sessions(self):
        return self.protocol.anti_entropy.sessions


class SimulatedClient:
    """A client node of the simulated cluster.

    Thin backend shell over :class:`~repro.kvstore.protocol.client.ClientProtocol`:
    the machine keeps the causal session and the request records; this class
    feeds it replies and executes its effects against the simulated transport.
    Requests are asynchronous: callers pass a callback that receives the
    :class:`GetResult` / :class:`PutResult` when the reply arrives.
    """

    def __init__(self, client_id: str, cluster: "SimulatedCluster") -> None:
        self.client_id = client_id
        self.cluster = cluster
        self.protocol = ClientProtocol(client_id, cluster.protocol_env)
        self.runner = EffectRunner(cluster.transport, self.protocol.on_timer)

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
        self.runner.run(
            self.protocol.on_message(message, self.cluster.simulation.now))

    def get(self, key: str,
            callback: Optional[Callable[[GetResult], None]] = None) -> None:
        """Issue a GET for ``key``; ``callback`` fires when the reply arrives."""
        self.runner.run(
            self.protocol.get(key, callback, self.cluster.simulation.now))

    def put(self,
            key: str,
            value: Any,
            callback: Optional[Callable[[PutResult], None]] = None,
            use_context: bool = True) -> None:
        """Issue a PUT for ``key``; ``callback`` fires when the reply arrives."""
        self.runner.run(
            self.protocol.put(key, value, callback, self.cluster.simulation.now,
                              use_context=use_context))


class SimulatedCluster:
    """A complete simulated deployment: servers, clients, ring, transport.

    Parameters
    ----------
    mechanism:
        Causality mechanism shared by all servers in this run.
    server_ids:
        Physical storage nodes.
    quorum:
        N / R / W configuration.
    latency:
        Latency model; defaults to a size-dependent model so metadata size
        shows up in request latency (experiment E4).
    seed:
        Simulation seed (drives latency sampling and message loss).
    loss_probability / duplicate_probability:
        Transport unreliability knobs.
    anti_entropy_interval_ms:
        Period of the background replica synchronisation (None disables it).
    hint_replay_interval_ms:
        Period of the hinted-handoff replay daemon (None disables hinted
        handoff entirely — no hints are stored).
    hint_backoff_multiplier:
        Backoff for hint replay toward a persistently slow peer (one whose
        latency EWMA clamps its adaptive deadline at the ceiling): after one
        replay, the next attempt waits ``ewma × this`` instead of the daemon
        cadence.  Deferred ticks are counted in ``hint_replays_deferred``.
    request_mode:
        ``"membership"`` (default) — coordinators consult the membership
        view's failure detector; ``"async"`` — coordinators fan out with
        per-replica deadlines and, under a sloppy quorum, extend to fallback
        nodes that hold hints for timed-out primaries.
    replica_timeout_ms / request_timeout_ms:
        Async mode deadlines: how long a coordinator waits for one replica's
        ack before extending/abandoning it, and how long a whole request may
        take before the coordinator answers ``ERROR_REPLY``.  Clients wait
        ``client_timeout_ms`` (1.5 × the request timeout by default) before
        failing over to the next candidate coordinator.
    sync_batch_size:
        Keys per MERKLE_KEY_STATES / HINT_REPLAY / KEY_HANDOFF message (also
        the read-repair batch size).
    merkle_fanout / merkle_depth:
        Shape of the hash trees used by the Merkle-delta exchange.
    read_repair_batch_ms:
        Coalescing window for read-repair pushes: repairs destined for the
        same stale replica within this window ride one READ_REPAIR message
        (a full ``sync_batch_size`` batch flushes immediately; ``0`` disables
        coalescing and sends each repair at once).
    deadline_mode:
        Async-mode per-replica deadlines: ``"fixed"`` (default) arms
        ``replica_timeout_ms`` for every replica; ``"adaptive"`` arms an EWMA
        of the replica's observed ack latency scaled by
        :data:`ADAPTIVE_DEADLINE_MULTIPLIER` and clamped to
        [``deadline_floor_ms``, ``deadline_ceiling_ms``].
    deadline_floor_ms / deadline_ceiling_ms:
        Clamp for adaptive deadlines.  The ceiling defaults to
        ``replica_timeout_ms`` so adaptation only ever tightens failure
        detection; the floor keeps a single latency spike from mass-expiring
        healthy replicas.
    """

    def __init__(self,
                 mechanism: CausalityMechanism,
                 server_ids: Sequence[str] = ("A", "B", "C"),
                 quorum: Optional[QuorumConfig] = None,
                 latency: Optional[LatencyModel] = None,
                 seed: int = 0,
                 loss_probability: float = 0.0,
                 duplicate_probability: float = 0.0,
                 anti_entropy_interval_ms: Optional[float] = 100.0,
                 hint_replay_interval_ms: Optional[float] = 50.0,
                 hint_backoff_multiplier: float = 6.0,
                 request_mode: str = "membership",
                 replica_timeout_ms: float = 10.0,
                 request_timeout_ms: float = 50.0,
                 client_timeout_ms: Optional[float] = None,
                 sync_batch_size: int = 16,
                 merkle_fanout: int = 16,
                 merkle_depth: int = 2,
                 read_repair_batch_ms: float = 2.0,
                 deadline_mode: str = "fixed",
                 deadline_floor_ms: float = 2.0,
                 deadline_ceiling_ms: Optional[float] = None,
                 virtual_nodes: int = 32,
                 partition_count: int = DEFAULT_PARTITION_COUNT,
                 request_overhead_bytes: int = 64,
                 topology: Optional[Topology] = None,
                 tracer: Optional[Any] = None) -> None:
        if not server_ids:
            raise ConfigurationError("at least one server id is required")
        if request_mode not in REQUEST_MODES:
            raise ConfigurationError(
                f"unknown request mode {request_mode!r}; choose from {REQUEST_MODES}"
            )
        if deadline_mode not in DEADLINE_MODES:
            raise ConfigurationError(
                f"unknown deadline mode {deadline_mode!r}; choose from {DEADLINE_MODES}"
            )
        if replica_timeout_ms <= 0 or request_timeout_ms <= 0:
            raise ConfigurationError("async timeouts must be positive")
        if read_repair_batch_ms < 0:
            raise ConfigurationError(
                f"read_repair_batch_ms must be >= 0, got {read_repair_batch_ms}"
            )
        if deadline_floor_ms <= 0:
            raise ConfigurationError(
                f"deadline_floor_ms must be positive, got {deadline_floor_ms}"
            )
        resolved_ceiling = (deadline_ceiling_ms if deadline_ceiling_ms is not None
                            else replica_timeout_ms)
        if resolved_ceiling < deadline_floor_ms:
            raise ConfigurationError(
                f"deadline_ceiling_ms ({resolved_ceiling}) must be >= "
                f"deadline_floor_ms ({deadline_floor_ms})"
            )
        if sync_batch_size < 1:
            raise ConfigurationError(f"sync_batch_size must be >= 1, got {sync_batch_size}")
        if hint_backoff_multiplier <= 0:
            raise ConfigurationError(
                f"hint_backoff_multiplier must be positive, got {hint_backoff_multiplier}"
            )
        self.mechanism = mechanism
        self.quorum = quorum or QuorumConfig(n=min(3, len(server_ids)),
                                             r=min(2, len(server_ids)),
                                             w=min(2, len(server_ids)))
        self.simulation = Simulation(seed=seed)
        self.partitions = PartitionManager()
        self.transport = Transport(
            self.simulation,
            latency=latency or SizeDependentLatency(),
            loss_probability=loss_probability,
            duplicate_probability=duplicate_probability,
            partitions=self.partitions,
        )
        self.ring = ConsistentHashRing(server_ids, virtual_nodes=virtual_nodes)
        #: Datacenter assignment; ``None`` means a single implicit DC and
        #: keeps placement byte-identical to the pre-topology behavior.
        self.topology = topology
        self.membership = Membership(server_ids, topology=topology)
        # The cluster-wide range ↔ vnode mapping: every server divides its
        # key space into the same fixed partitions, so per-range digests are
        # comparable between peers and handoff can move whole ranges.
        self.partition_map = PartitionMap(partition_count)
        self.placement = PlacementService(self.ring, self.membership,
                                          self.quorum,
                                          partition_map=self.partition_map,
                                          topology=topology)
        self.write_log = WriteLog()
        self.request_overhead_bytes = request_overhead_bytes
        self.request_mode = request_mode
        self.replica_timeout_ms = replica_timeout_ms
        self.request_timeout_ms = request_timeout_ms
        self.client_timeout_ms = (client_timeout_ms if client_timeout_ms is not None
                                  else request_timeout_ms * 1.5)
        self.sync_batch_size = sync_batch_size
        self.merkle_fanout = merkle_fanout
        self.merkle_depth = merkle_depth
        self.read_repair_batch_ms = read_repair_batch_ms
        self.deadline_mode = deadline_mode
        self.deadline_floor_ms = deadline_floor_ms
        self.deadline_ceiling_ms = resolved_ceiling
        self.hint_backoff_multiplier = hint_backoff_multiplier
        self.merkle_stats = MerkleSyncStats()
        #: Span emitter shared by every hosted machine (inert by default;
        #: span events bypass the simulation, so determinism is preserved).
        self.tracer = tracer if tracer is not None else NO_TRACER
        self._anti_entropy_interval_ms = anti_entropy_interval_ms
        self._departed_stats: Dict[str, int] = {}
        self._metrics_registry: Optional[MetricsRegistry] = None
        #: The env the hosted protocol machines read their configuration
        #: through (live proxy, so runtime knob tweaks keep working).
        self.protocol_env = _ClusterEnv(self)

        self.servers: Dict[str, MessageServer] = {}
        for server_id in server_ids:
            server = MessageServer(server_id, mechanism, self)
            self.servers[server_id] = server
            self.transport.register(server_id, server.handle_message)

        self.clients: Dict[str, SimulatedClient] = {}
        self.anti_entropy: Optional[AntiEntropyDaemon] = None
        if anti_entropy_interval_ms is not None and len(server_ids) > 1:
            self.anti_entropy = AntiEntropyDaemon(
                self.simulation,
                self.start_exchange,
                list(server_ids),
                interval_ms=anti_entropy_interval_ms,
                eligible=self.membership.is_up,
            )
        self.hinted_handoff: Optional[HintedHandoffDaemon] = None
        if hint_replay_interval_ms is not None:
            self.hinted_handoff = HintedHandoffDaemon(
                self.simulation,
                sources=self._hint_sources,
                trigger_replay=self._trigger_hint_replay,
                interval_ms=hint_replay_interval_ms,
            )
        # Nudge hint replay as soon as a node recovers rather than waiting
        # for the next daemon tick.
        self.membership.subscribe(self._on_membership_event)

    @property
    def hinted_handoff_enabled(self) -> bool:
        """Whether coordinators store hints for unreachable primaries."""
        return self.hinted_handoff is not None

    # ------------------------------------------------------------------ #
    # Topology management
    # ------------------------------------------------------------------ #
    def client(self, client_id: str) -> SimulatedClient:
        """Create (or return) the client node with the given id."""
        if client_id in self.clients:
            return self.clients[client_id]
        client = SimulatedClient(client_id, self)
        self.clients[client_id] = client
        self.transport.register(client.address, client.handle_message)
        return client

    def start_exchange(self, source_id: str, target_id: str) -> None:
        """Start one Merkle-delta exchange from ``source_id`` to ``target_id``."""
        source = self.servers.get(source_id)
        if source is not None:
            source.start_merkle_sync_with(target_id)

    def _hint_sources(self) -> List[str]:
        return [server_id for server_id, server in sorted(self.servers.items())
                if server.node.pending_hints() > 0
                and self.membership.is_up(server_id)]

    def _trigger_hint_replay(self, server_id: str) -> int:
        server = self.servers.get(server_id)
        return server.replay_hints() if server is not None else 0

    def _on_membership_event(self, node_id: str, event: str) -> None:
        if event != "up" or self.hinted_handoff is None:
            return
        holders = [server_id for server_id, server in sorted(self.servers.items())
                   if node_id in server.node.hint_targets()]
        if holders:
            self.simulation.schedule(
                0.1,
                lambda: [self._trigger_hint_replay(server_id) for server_id in holders],
                label=f"hint-replay-nudge:{node_id}",
            )

    def fail_node(self, server_id: str) -> None:
        """Crash a server: it stops receiving messages and is marked down."""
        self.membership.mark_down(server_id)
        self.transport.unregister(server_id)

    def shutdown_node(self, server_id: str) -> None:
        """Cleanly stop a server (planned maintenance, rolling restart).

        Unlike :meth:`fail_node`, the storage layer gets to finish its
        bookkeeping: the Merkle index flushes its dirty buckets and the node
        marks its on-disk index clean, so a later :meth:`recover_node` adopts
        the maintained digests instead of rebuilding every occupied vnode's
        tree (counted in the ``rebuilds_skipped`` stat).
        """
        server = self.servers[server_id]
        server.node.shutdown()
        self.membership.mark_down(server_id)
        self.transport.unregister(server_id)

    def recover_node(self, server_id: str, wipe: bool = False,
                     wipe_partitions: Optional[Sequence[int]] = None) -> None:
        """Bring a crashed (or cleanly stopped) server back.

        With ``wipe=False`` the pre-crash state is retained (process restart)
        — including any hints the node was holding for others, which are
        persisted in the storage layer and resume replaying; with
        ``wipe=True`` the node rejoins with empty storage (disk loss), losing
        both its key states and its held hints, and must be repopulated by
        other nodes' hint replays and anti-entropy.  ``wipe_partitions``
        models a partial disk loss: only the named vnodes' key states (and
        the hints for keys in those ranges) are dropped, the other vnodes
        survive the crash intact.

        The incremental Merkle index follows the disk's fate: after a crash a
        restart rebuilds it from the surviving storage (the in-memory trees
        died with the process; only vnodes that still hold keys pay a
        rebuild), a wipe empties it alongside the key states — but after a
        *clean* :meth:`shutdown_node` the index was flushed and marked clean,
        so the restart adopts it wholesale and skips the rebuilds.
        """
        server = self.servers[server_id]
        server.on_recover(wipe, wipe_partitions=wipe_partitions)
        if not self.transport.is_registered(server_id):
            self.transport.register(server_id, server.handle_message)
        self.membership.mark_up(server_id)

    def join_node(self, server_id: str, dc: Optional[str] = None) -> int:
        """Add a new (empty) server to the running cluster.

        The ring is rebalanced and, for every key whose preference list now
        includes the newcomer, one current holder pushes the key's state via
        KEY_HANDOFF.  Returns the number of keys scheduled for handoff.
        ``dc`` places the newcomer in a datacenter (topology clusters only).
        """
        if server_id in self.servers:
            raise ConfigurationError(f"server {server_id!r} already in the cluster")
        ring_before = ConsistentHashRing(self.ring.nodes(),
                                         virtual_nodes=self.ring.virtual_nodes)
        self.ring.add_node(server_id)
        self.membership.add(server_id, dc=dc)
        server = MessageServer(server_id, self.mechanism, self)
        self.servers[server_id] = server
        self.transport.register(server_id, server.handle_message)
        if self.anti_entropy is not None:
            self.anti_entropy.add_node(server_id)
        elif self._anti_entropy_interval_ms is not None and len(self.servers) > 1:
            self.anti_entropy = AntiEntropyDaemon(
                self.simulation,
                self.start_exchange,
                list(self.servers),
                interval_ms=self._anti_entropy_interval_ms,
                eligible=self.membership.is_up,
            )

        moves = rebalance_plan(ring_before, self.ring,
                               self.key_universe(), self.quorum.n)
        batches: Dict[Tuple[str, str], List[str]] = {}
        for move in moves:
            gained = [node for node in move.gained if node in self.servers]
            if not gained:
                continue
            # Only a live node can act as the handoff source — a crashed
            # replica's storage is unreachable until it recovers.
            holders = [node for node in move.owners_before
                       if node in self.servers and self.membership.is_up(node)
                       and self.servers[node].node.storage.has_key(move.key)]
            if not holders:  # key held off its preference list (e.g. post-churn)
                holders = [node for node, srv in sorted(self.servers.items())
                           if self.membership.is_up(node)
                           and srv.node.storage.has_key(move.key)]
            if not holders:
                continue
            for target in gained:
                batches.setdefault((holders[0], target), []).append(move.key)
        handed_off = 0
        for (source_id, target_id), keys in sorted(batches.items()):
            self.servers[source_id].send_key_handoff(target_id, keys)
            handed_off += len(keys)
        return handed_off

    def decommission_node(self, server_id: str) -> int:
        """Gracefully remove a server from the running cluster.

        Before leaving, the node pushes each of its keys to the key's replica
        homes on the shrunk ring, so no singly-replicated state is lost.
        Returns the number of key states pushed.
        """
        if server_id not in self.servers:
            raise ConfigurationError(f"unknown server {server_id!r}")
        server = self.servers[server_id]
        self.ring.remove_node(server_id)

        # A graceful leave pushes the node's keys to their remaining replica
        # homes — but only a live node can do that; removing a crashed node
        # just drops it (its data is whatever already replicated elsewhere).
        handed_off = 0
        if self.membership.is_up(server_id):
            batches: Dict[str, List[str]] = {}
            for key in server.node.storage.keys():
                reachable = [target
                             for target in self.ring.preference_list(key, self.quorum.n)
                             if target != server_id and target in self.servers
                             and self.can_reach(server_id, target)]
                if not reachable:
                    # Handing off into a partition would silently drop the
                    # key's (possibly only) copy; refuse the graceful leave.
                    self.ring.add_node(server_id)
                    raise ConfigurationError(
                        f"cannot decommission {server_id!r}: no reachable "
                        f"replica home for key {key!r}"
                    )
                for target in reachable:
                    batches.setdefault(target, []).append(key)
            for target_id, keys in sorted(batches.items()):
                server.send_key_handoff(target_id, keys)
                handed_off += len(keys)

        self.membership.remove(server_id)
        if self.anti_entropy is not None:
            self.anti_entropy.remove_node(server_id)
        self.servers.pop(server_id)
        self.transport.unregister(server_id)
        # Stats of the departed node still belong to the run's totals.
        for name, value in server.node.stats.items():
            self._departed_stats[name] = self._departed_stats.get(name, 0) + value
        # Hints destined for the removed node can never be replayed; purge
        # them everywhere so they don't sit in the pending counts forever.
        for remaining in self.servers.values():
            remaining.node.clear_hints(server_id)
        return handed_off

    def can_reach(self, source_id: str, target_id: str) -> bool:
        """Whether ``source_id`` can currently deliver messages to ``target_id``.

        This is the coordinator's failure-detector view: a node is unreachable
        when it is marked down, deregistered from the transport, or cut off by
        a partition.
        """
        return (self.membership.is_up(target_id)
                and self.transport.is_registered(target_id)
                and self.partitions.can_communicate(source_id, target_id))

    # ------------------------------------------------------------------ #
    # Execution helpers
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Advance the simulation (delegates to :meth:`Simulation.run`)."""
        self.simulation.run(until=until, max_events=max_events)

    def drain(self, max_events: int = 1_000_000) -> None:
        """Stop background daemons and run every outstanding event."""
        if self.anti_entropy is not None:
            self.anti_entropy.stop()
        if self.hinted_handoff is not None:
            self.hinted_handoff.stop()
        self.simulation.run_until_idle(max_events=max_events)

    def run_anti_entropy_round(self, settle: bool = True) -> None:
        """Start one exchange for every reachable server pair, then settle.

        Used by tests and scenarios to force convergence deterministically
        after the background daemons have been stopped.
        """
        server_ids = sorted(self.servers)
        for i, source_id in enumerate(server_ids):
            for target_id in server_ids[i + 1:]:
                if (self.membership.is_up(source_id)
                        and self.can_reach(source_id, target_id)):
                    self.start_exchange(source_id, target_id)
        if settle:
            self.simulation.run_until_idle()

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

    def converge(self, max_rounds: int = 30) -> int:
        """Run anti-entropy rounds until every replica agrees; returns rounds.

        Stops the background daemons first (they are periodic tasks and would
        keep the event queue from ever going idle), then drives explicit
        all-pairs rounds — the deterministic "settle everything" helper tests
        and scenarios use after a workload finishes.
        """
        self.drain()
        if self.is_converged():
            return 0
        for round_number in range(1, max_rounds + 1):
            self.run_anti_entropy_round()
            if self.is_converged():
                return round_number
        raise ConfigurationError(f"cluster did not converge within {max_rounds} rounds")

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
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
        """Total bytes sent so far on anti-entropy messages."""
        return self.transport.stats.bytes_for(*SYNC_MESSAGE_TYPES)

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
        """One flat, stable, JSON-serializable view of every cluster stat."""
        return self.metrics_registry().snapshot()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"SimulatedCluster(mechanism={self.mechanism.name!r}, "
            f"servers={sorted(self.servers)}, clients={len(self.clients)})"
        )
