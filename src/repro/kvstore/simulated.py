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
connections; both share :class:`~repro.kvstore.cluster_core.ClusterCore` —
see ``ARCHITECTURE.md`` for the layering):

* Each physical server runs a
  :class:`~repro.kvstore.cluster_core.ServerHost` hosting a
  :class:`~repro.kvstore.protocol.node.ProtocolNode` (coordination, replica
  handlers, Merkle anti-entropy, hint replay) over a
  :class:`~repro.kvstore.server.StorageNode`.
* Clients are :class:`SimulatedClient` nodes hosting a
  :class:`~repro.kvstore.protocol.client.ClientProtocol`; they send
  ``COORDINATE_GET`` / ``COORDINATE_PUT`` to the first node of the key's
  preference list (failing over down the list on their own deadline) and
  receive ``GET_REPLY`` / ``PUT_REPLY``.
* The coordinator fans out to the key's replicas, waits for the configured
  R/W quorum, performs read repair on divergent read replies, and answers the
  client.
* A background anti-entropy daemon — a
  :class:`~repro.network.simulator.PeriodicTask` calling
  :meth:`~repro.kvstore.cluster_core.ClusterCore.anti_entropy_tick` —
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
   ``MERKLE_PARTITION_DIFF`` reply, marking those it holds no keys in as
   ``empty`` — on a synced pair the exchange ends here, two messages total;
   a differing range the source advertised no root for, the target pushes
   whole at once;
3. the source ships each ``empty`` range whole, unasked; the tree of each
   range both sides hold is walked level by level
   (``MERKLE_SYNC_REQUEST`` / ``MERKLE_SYNC_RESPONSE``), the source shipping
   child digests of differing paths until the leaf-bucket level, where the
   target's response also carries the per-key fingerprints of the differing
   buckets — these ranges descend **concurrently**, as parallel sessions
   whose messages interleave in flight.  A wiped replica is thus rebuilt
   with no descent at all;
4. the source computes the exact divergent key set from the fingerprints and
   ships only those keys' states, batched ``SYNC_BATCH_SIZE`` keys per
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
:class:`~repro.kvstore.merkle_index.MerkleIndex` per vnode range, which the
node's storage calls for every put and drop in that range — so every
write path (client puts, replica merges, read repair, Merkle-delta
transfers, hint replay, rebalancing handoff) marks only the mutated key for
re-fingerprinting in the one affected range tree, hashed once when that
range is next read.  The exchange reads those live trees directly — each
handler flushes the one range it was asked about and answers from its
digests — so tree work per exchange is O(divergent buckets), not O(keys),
and nothing is copied.
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

When one of a write's primary replicas misses its deadline (crashed, or cut
off by a partition), the write is held as a *hint* — target id plus the
post-write state — persisted in the holder's storage layer, so a process
restart of the holder does not lose it (a wiped disk does).  The
background hint-replay daemon (a ``PeriodicTask`` calling
:meth:`~repro.kvstore.cluster_core.ClusterCore.hint_replay_tick`) replays
hints (``HINT_REPLAY`` / ``HINT_ACK``) once the target is reachable again;
:meth:`SimulatedCluster.recover_node` also nudges replay 0.1 ms after a
crashed node comes back.  Replay targeting consults the per-replica latency
EWMAs: a persistently slow peer is replayed to once and then backed off for
a multiple of its observed round trip (``HINT_BACKOFF_MULTIPLIER``) instead
of being hammered every tick.

Deadline-driven coordination
----------------------------
Coordination is Dynamo-style and timeout-driven, exactly as on the asyncio
backend: the coordinator contacts the key's N *primary* replicas regardless
of the membership view, arms a per-replica deadline, and collects R/W acks.
When a replica's deadline fires and the quorum is **sloppy**
(``QuorumConfig.sloppy``), the preference list is extended past the N
primaries to the next node on the ring, which accepts the write together with
a hint naming the intended primary; hint replay later returns the data to the
primary.  With a **strict** quorum (or an exhausted ring) the coordinator
holds the hint itself and the request fails with ``ERROR_REPLY`` once the
quorum is infeasible or the overall request deadline fires.  Clients arm their
own deadline and fail over to the next candidate coordinator on the
(extended) preference list before reporting the request as failed.

Every per-replica deadline is ``replica_timeout_ms``.  A GET's hedge asks its
reserve primaries after twice the asked replica's latency EWMA, never sooner
than 2 ms of virtual time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..clocks.interface import CausalityMechanism
from ..cluster.preference_list import QuorumConfig
from ..cluster.topology import Topology
from ..cluster.ring import ConsistentHashRing, rebalance_plan
from ..core.exceptions import ConfigurationError
from ..network.latency import LatencyModel, SizeDependentLatency
from ..network.simulator import PeriodicTask, Simulation
from ..network.transport import Transport, TransportStats
from .client import GetResult, PutResult
from .cluster_core import ClientHost, ClusterCore, ServerHost

__all__ = ["SimulatedClient", "SimulatedCluster"]


class SimulatedClient(ClientHost):
    """A client node of the simulated cluster.

    Requests are asynchronous: callers pass a callback that receives the
    :class:`GetResult` / :class:`PutResult` when the reply arrives.
    """

    def get(self, key: str,
            callback: Optional[Callable[[GetResult], None]] = None) -> None:
        """Issue a GET for ``key``; ``callback`` fires when the reply arrives."""
        self.runner.run(self.protocol.get(key, callback, self.transport.now_ms()))

    def put(self,
            key: str,
            value: Any,
            callback: Optional[Callable[[PutResult], None]] = None,
            use_context: bool = True) -> None:
        """Issue a PUT for ``key``; ``callback`` fires when the reply arrives."""
        self.runner.run(
            self.protocol.put(key, value, callback, self.transport.now_ms(),
                              use_context=use_context))


class SimulatedCluster(ClusterCore):
    """A complete simulated deployment: servers, clients, ring, transport.

    Every knob shared with the asyncio backend is documented on
    :class:`~repro.kvstore.cluster_core.ClusterCore`; the hedge floor is the
    core's default, 2.0 ms, and not a knob here.  The simulator's own:

    latency:
        Latency model; defaults to a size-dependent model so metadata size
        shows up in request latency (experiment E4).
    seed:
        Simulation seed (drives latency sampling and message loss).
    loss_probability / duplicate_probability:
        Transport unreliability knobs.
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
                 replica_timeout_ms: float = 10.0,
                 request_timeout_ms: float = 50.0,
                 client_timeout_ms: Optional[float] = None,
                 topology: Optional[Topology] = None,
                 tracer: Optional[Any] = None) -> None:
        super().__init__(
            mechanism, server_ids, quorum,
            anti_entropy_interval_ms=anti_entropy_interval_ms,
            hint_replay_interval_ms=hint_replay_interval_ms,
            replica_timeout_ms=replica_timeout_ms,
            request_timeout_ms=request_timeout_ms,
            client_timeout_ms=client_timeout_ms,
            topology=topology,
            tracer=tracer,
        )
        self.simulation = Simulation(seed=seed)
        self.transport = Transport(
            self.simulation,
            latency=latency or SizeDependentLatency(),
            loss_probability=loss_probability,
            duplicate_probability=duplicate_probability,
            partitions=self.partitions,
        )
        for server_id in server_ids:
            self._add_server(server_id)
        self._daemon_tasks = [
            PeriodicTask(self.simulation, interval_ms, tick)
            for _, interval_ms, tick in self.daemons()]

    def _add_server(self, server_id: str) -> None:
        server = ServerHost(server_id, self.mechanism, self, self.transport)
        self.servers[server_id] = server
        self.transport.register(server_id, server.handle_message)

    def is_registered(self, node_id: str) -> bool:
        """Whether ``node_id``'s process is alive (not crashed or removed)."""
        return self.transport.is_registered(node_id)

    def transport_stats(self) -> List[TransportStats]:
        return [self.transport.stats]

    # ------------------------------------------------------------------ #
    # Topology management
    # ------------------------------------------------------------------ #
    def client(self, client_id: str) -> SimulatedClient:
        """Create (or return) the client node with the given id."""
        if client_id in self.clients:
            return self.clients[client_id]
        client = SimulatedClient(client_id, self, self.transport)
        self.clients[client_id] = client
        self.transport.register(client.address, client.handle_message)
        return client

    def start_exchange(self, source_id: str, target_id: str) -> None:
        """Start one Merkle-delta exchange from ``source_id`` to ``target_id``."""
        source = self.servers.get(source_id)
        if source is not None:
            source.start_merkle_sync_with(target_id)

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

        Timers the crashed process had armed are deliberately left armed: a
        real crashed coordinator's deadlines are process memory too, but the
        original simulator let them fire harmlessly against the cleared
        state, and the equivalence suite pins that behaviour.
        """
        server = self.servers[server_id]
        server.protocol.on_recover(wipe, wipe_partitions=wipe_partitions)
        if not self.transport.is_registered(server_id):
            self.transport.register(server_id, server.handle_message)
        self.membership.mark_up(server_id)
        if not self.hinted_handoff_enabled:
            return
        # Nudge hint replay 0.1 ms after the recovery rather than waiting
        # for the next daemon tick.
        holders = [holder_id for holder_id, holder in sorted(self.servers.items())
                   if server_id in holder.node.storage.hint_targets()]
        if holders:
            self.simulation.schedule(
                0.1,
                lambda: [self.servers[holder_id].replay_hints()
                         for holder_id in holders if holder_id in self.servers])

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
        self._add_server(server_id)

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
        self.servers.pop(server_id)
        self.transport.unregister(server_id)
        # Stats of the departed node still belong to the run's totals.
        for name, value in server.node.stats.items():
            self._departed_stats[name] = self._departed_stats.get(name, 0) + value
        # Hints destined for the removed node can never be replayed; purge
        # them everywhere so they don't sit in the pending counts forever.
        for remaining in self.servers.values():
            remaining.node.storage.clear_hints(server_id)
        return handed_off

    # ------------------------------------------------------------------ #
    # Execution helpers
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Advance the simulation (delegates to :meth:`Simulation.run`)."""
        self.simulation.run(until=until, max_events=max_events)

    def drain(self, max_events: int = 1_000_000) -> None:
        """Stop background daemons and run every outstanding event."""
        for daemon in self._daemon_tasks:
            daemon.stop()
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
