"""The asyncio backend: the same protocol machines over real sockets.

This is the "serves real traffic" counterpart of the deterministic simulator
in :mod:`repro.kvstore.simulated`.  Both host the exact same state machines
from :mod:`repro.kvstore.protocol` — an :class:`AsyncServerNode` is to the
asyncio backend what ``MessageServer`` is to the simulator — but here every
message crosses an actual TCP or Unix-domain socket through an
:class:`~repro.network.asyncio_transport.AsyncioEndpoint`, timers are
``loop.call_later``, the clock is the wall clock, and any number of clients
issue requests concurrently.

Coordination is Dynamo-style and deadline-driven, the one path the
simulator runs too: reachability is decided by deadlines and sloppy-quorum
fallbacks, never by a membership oracle.  Anti-entropy and hint replay run as
plain asyncio tasks on their configured cadences.

Everything lives in one process (one event loop) — the point is real
concurrency, framing and wall-clock latency, not multi-host deployment — so
convergence checks read peer storage directly, the way the simulator's do.

Typical use::

    cluster = AsyncioCluster(create("dvv"), server_ids=("A", "B", "C"))
    async with cluster:
        client = await cluster.client("c1")
        await client.put("cart", "beer")
        result = await client.get("cart")
"""

from __future__ import annotations

import asyncio
import itertools
import os
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..clocks.interface import CausalityMechanism
from ..cluster.membership import Membership
from ..cluster.preference_list import PlacementService, QuorumConfig
from ..cluster.ring import DEFAULT_PARTITION_COUNT, ConsistentHashRing, PartitionMap
from ..cluster.topology import Topology
from ..core.exceptions import ConfigurationError
from ..network.asyncio_transport import Address, AsyncioEndpoint
from ..network.message import Message
from ..obs.cluster_metrics import build_cluster_registry
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NO_TRACER
from .client import GetResult, PutResult
from .merkle import key_fingerprint
from .protocol import (
    SYNC_MESSAGE_TYPES,
    ClientProtocol,
    EffectRunner,
    MerkleSyncStats,
    ProtocolNode,
)
from .protocol.env import StaticProtocolEnv
from .write_log import WriteLog


def _socket_name(node_id: str) -> str:
    """A filesystem-safe Unix socket name for a node id."""
    return node_id.replace(":", "_").replace("/", "_") + ".sock"


class UnixDirAddressBook:
    """Derives every node's socket path from one shared directory.

    Convention over registry: each participant listens at
    ``<dir>/<sanitized-id>.sock``, so any id is addressable without central
    bookkeeping — in particular clients started later, or in *other
    processes* (the CLI's ``connect`` command), whose existence the servers
    could not have known at start time.  Sending toward an id nobody has
    bound yet is simply a counted drop, like every unreachable receiver.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def __contains__(self, node_id: str) -> bool:
        return True

    def __getitem__(self, node_id: str) -> Address:
        return ("unix", os.path.join(self.directory, _socket_name(node_id)))


class AsyncServerNode:
    """One storage server of the asyncio cluster (listener + protocol)."""

    def __init__(self, node_id: str, mechanism: CausalityMechanism,
                 env: StaticProtocolEnv,
                 address_book: Dict[str, Address]) -> None:
        self.node_id = node_id
        self.protocol = ProtocolNode(node_id, mechanism, env)
        self.endpoint = AsyncioEndpoint(node_id, address_book,
                                        handler=self._handle_message)
        self.runner = EffectRunner(self.endpoint, self._on_timer)

    @property
    def node(self):
        """The server's storage layer (parity with ``MessageServer.node``)."""
        return self.protocol.store

    def _handle_message(self, message: Message) -> None:
        self.runner.run(
            self.protocol.on_message(message, self.endpoint.now_ms()))

    def _on_timer(self, timer_id, now: float):
        return self.protocol.on_timer(timer_id, now)

    def start_merkle_sync_with(self, peer_id: str) -> None:
        self.runner.run(
            self.protocol.start_merkle_sync_with(peer_id, self.endpoint.now_ms()))

    def replay_hints(self) -> int:
        effects, batches = self.protocol.replay_hints(self.endpoint.now_ms())
        self.runner.run(effects)
        return batches

    async def start(self) -> None:
        await self.endpoint.start()

    async def close(self) -> None:
        self.runner.cancel_all()
        await self.endpoint.close()


class AsyncClusterClient:
    """A concurrent client of the asyncio cluster.

    Hosts the same :class:`~repro.kvstore.protocol.client.ClientProtocol` the
    simulator's clients use — causal session, failover deadlines, request
    records — and adapts its callback style to awaitables: :meth:`get` and
    :meth:`put` resolve when the reply arrives (or with ``None`` once the
    machine has exhausted its coordinator candidates).
    """

    def __init__(self, client_id: str, env: StaticProtocolEnv,
                 address_book: Dict[str, Address]) -> None:
        self.client_id = client_id
        self.protocol = ClientProtocol(client_id, env)
        self.endpoint = AsyncioEndpoint(self.protocol.address, address_book,
                                        handler=self._handle_message)
        self.runner = EffectRunner(self.endpoint, self.protocol.on_timer)

    @property
    def address(self) -> str:
        return self.protocol.address

    @property
    def session(self):
        return self.protocol.session

    @property
    def records(self):
        return self.protocol.records

    def _handle_message(self, message: Message) -> None:
        self.runner.run(
            self.protocol.on_message(message, self.endpoint.now_ms()))

    async def get(self, key: str) -> Optional[GetResult]:
        """GET ``key``; resolves with the result, or ``None`` on failure."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Optional[GetResult]]" = loop.create_future()
        self.runner.run(self.protocol.get(
            key,
            lambda result: future.done() or future.set_result(result),
            self.endpoint.now_ms()))
        return await future

    async def put(self, key: str, value: Any,
                  use_context: bool = True) -> Optional[PutResult]:
        """PUT ``value`` under ``key``; resolves when acknowledged."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Optional[PutResult]]" = loop.create_future()
        self.runner.run(self.protocol.put(
            key, value,
            lambda result: future.done() or future.set_result(result),
            self.endpoint.now_ms(),
            use_context=use_context))
        return await future

    async def start(self) -> None:
        await self.endpoint.start()

    async def close(self) -> None:
        self.runner.cancel_all()
        await self.endpoint.close()


class AsyncioCluster:
    """A running cluster over real sockets, one event loop, many clients.

    Parameters mirror the simulator's where they mean the same thing; the
    transport knobs (latency models, loss, partitions) do not exist here —
    the network is whatever the kernel provides.

    ``transport="unix"`` (default) listens on Unix-domain sockets under
    ``socket_dir`` (a fresh temp dir when omitted); ``transport="tcp"``
    listens on ``host`` with consecutive ports from ``base_port``.
    """

    def __init__(self,
                 mechanism: CausalityMechanism,
                 server_ids: Sequence[str] = ("A", "B", "C"),
                 quorum: Optional[QuorumConfig] = None,
                 transport: str = "unix",
                 socket_dir: Optional[str] = None,
                 host: str = "127.0.0.1",
                 base_port: int = 0,
                 anti_entropy_interval_ms: Optional[float] = 100.0,
                 hint_replay_interval_ms: Optional[float] = 50.0,
                 replica_timeout_ms: float = 250.0,
                 request_timeout_ms: float = 1000.0,
                 client_timeout_ms: Optional[float] = None,
                 deadline_mode: str = "fixed",
                 sync_batch_size: int = 16,
                 merkle_fanout: int = 16,
                 merkle_depth: int = 2,
                 read_repair_batch_ms: float = 2.0,
                 virtual_nodes: int = 32,
                 partition_count: int = DEFAULT_PARTITION_COUNT,
                 request_overhead_bytes: int = 64,
                 topology: Optional[Topology] = None,
                 tracer: Optional[Any] = None) -> None:
        if not server_ids:
            raise ConfigurationError("at least one server id is required")
        if transport not in ("unix", "tcp"):
            raise ConfigurationError(
                f"unknown transport {transport!r}; choose 'unix' or 'tcp'")
        if transport == "tcp" and base_port <= 0:
            raise ConfigurationError(
                "transport='tcp' needs an explicit base_port")
        self.mechanism = mechanism
        self.server_ids = list(server_ids)
        self.quorum = quorum or QuorumConfig(n=min(3, len(server_ids)),
                                             r=min(2, len(server_ids)),
                                             w=min(2, len(server_ids)),
                                             sloppy=True)
        self.transport_kind = transport
        self._socket_dir = socket_dir
        self._owns_socket_dir = socket_dir is None
        self._host = host
        self._base_port = base_port
        self._next_port = base_port
        self.anti_entropy_interval_ms = anti_entropy_interval_ms
        self.hint_replay_interval_ms = hint_replay_interval_ms

        self.ring = ConsistentHashRing(server_ids, virtual_nodes=virtual_nodes)
        #: DC assignment: placement becomes DC-aware here exactly as in the
        #: simulator (WAN latency itself is whatever the real network does).
        self.topology = topology
        self.membership = Membership(server_ids, topology=topology)
        self.partition_map = PartitionMap(partition_count)
        self.placement = PlacementService(self.ring, self.membership,
                                          self.quorum,
                                          partition_map=self.partition_map,
                                          topology=topology)
        self.write_log = WriteLog()
        self.merkle_stats = MerkleSyncStats()
        self.env = StaticProtocolEnv(
            mechanism=mechanism,
            quorum=self.quorum,
            placement=self.placement,
            write_log=self.write_log,
            merkle_stats=self.merkle_stats,
            replica_timeout_ms=replica_timeout_ms,
            request_timeout_ms=request_timeout_ms,
            client_timeout_ms=(client_timeout_ms if client_timeout_ms is not None
                               else request_timeout_ms * 1.5),
            sync_batch_size=sync_batch_size,
            merkle_fanout=merkle_fanout,
            merkle_depth=merkle_depth,
            read_repair_batch_ms=read_repair_batch_ms,
            deadline_mode=deadline_mode,
            deadline_floor_ms=replica_timeout_ms / 5.0,
            deadline_ceiling_ms=replica_timeout_ms,
            request_overhead_bytes=request_overhead_bytes,
            tracer=tracer if tracer is not None else NO_TRACER,
        )
        self.tracer = self.env.tracer
        #: node id → listen address; a plain dict for TCP, a
        #: :class:`UnixDirAddressBook` once a unix cluster starts.
        self.address_book: Any = {}
        self.servers: Dict[str, AsyncServerNode] = {}
        self.clients: Dict[str, AsyncClusterClient] = {}
        self._daemon_tasks: List[asyncio.Task] = []
        self._ae_pairs = itertools.cycle(
            [(a, b) for a in self.server_ids for b in self.server_ids if a != b]
        ) if len(self.server_ids) > 1 else None
        self._started = False
        self._metrics_registry: Optional[MetricsRegistry] = None
        #: Metrics captured at shutdown, after the daemons stopped but
        #: before the transports closed — without it, stats accumulated by
        #: the anti-entropy and hint-replay daemons' last in-flight work
        #: would be unreadable once the endpoints are gone.
        self._final_snapshot: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    @property
    def socket_dir(self) -> Optional[str]:
        """Directory of the Unix-domain sockets (None before a unix start)."""
        return self._socket_dir

    def _assign_address(self, node_id: str) -> None:
        if self.transport_kind == "unix":
            return  # derived by the UnixDirAddressBook convention
        self.address_book[node_id] = ("tcp", self._host, self._next_port)
        self._next_port += 1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind every server's listener and start the background daemons."""
        if self._started:
            return
        if self.transport_kind == "unix":
            if self._socket_dir is None:
                self._socket_dir = tempfile.mkdtemp(prefix="repro-cluster-")
            self.address_book = UnixDirAddressBook(self._socket_dir)
        for server_id in self.server_ids:
            self._assign_address(server_id)
        for server_id in self.server_ids:
            server = AsyncServerNode(server_id, self.mechanism, self.env,
                                     self.address_book)
            self.servers[server_id] = server
            await server.start()
        if self.anti_entropy_interval_ms is not None and self._ae_pairs is not None:
            self._daemon_tasks.append(asyncio.get_running_loop().create_task(
                self._anti_entropy_daemon()))
        if self.hint_replay_interval_ms is not None:
            self._daemon_tasks.append(asyncio.get_running_loop().create_task(
                self._hint_replay_daemon()))
        self._started = True
        self._final_snapshot = None

    async def stop(self) -> None:
        """Cancel daemons, close every endpoint, remove Unix sockets."""
        for task in self._daemon_tasks:
            task.cancel()
        for task in self._daemon_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._daemon_tasks.clear()
        # Flush the final metrics while every endpoint's stats object is
        # still alive: the daemons have stopped, so the counters are
        # complete, and snapshots taken after shutdown stay meaningful.
        if self.servers:
            self._final_snapshot = self.metrics_registry().snapshot()
        for client in self.clients.values():
            await client.close()
        for server in self.servers.values():
            await server.close()
        if (self.transport_kind == "unix" and self._owns_socket_dir
                and self._socket_dir is not None):
            for name in os.listdir(self._socket_dir):
                try:
                    os.unlink(os.path.join(self._socket_dir, name))
                except OSError:
                    pass
            try:
                os.rmdir(self._socket_dir)
            except OSError:
                pass
        self._started = False

    async def __aenter__(self) -> "AsyncioCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Clients
    # ------------------------------------------------------------------ #
    async def client(self, client_id: str) -> AsyncClusterClient:
        """Create (and start) the client node with the given id."""
        if client_id in self.clients:
            return self.clients[client_id]
        client = AsyncClusterClient(client_id, self.env, self.address_book)
        self._assign_address(client.address)
        self.clients[client_id] = client
        await client.start()
        return client

    # ------------------------------------------------------------------ #
    # Background daemons
    # ------------------------------------------------------------------ #
    async def _anti_entropy_daemon(self) -> None:
        interval = self.anti_entropy_interval_ms / 1000.0
        while True:
            await asyncio.sleep(interval)
            source_id, target_id = next(self._ae_pairs)
            server = self.servers.get(source_id)
            if server is not None:
                server.start_merkle_sync_with(target_id)

    async def _hint_replay_daemon(self) -> None:
        interval = self.hint_replay_interval_ms / 1000.0
        while True:
            await asyncio.sleep(interval)
            for server in list(self.servers.values()):
                if server.node.pending_hints() > 0:
                    server.replay_hints()

    # ------------------------------------------------------------------ #
    # Convergence and metrics (in-process verification helpers)
    # ------------------------------------------------------------------ #
    def key_universe(self) -> List[str]:
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

    async def converge(self, timeout_s: float = 30.0,
                       poll_s: float = 0.05) -> float:
        """Wait until anti-entropy has converged every replica; returns the
        wall-clock seconds it took.  Raises ``TimeoutError`` on expiry."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        deadline = started + timeout_s
        while True:
            if self.is_converged():
                return loop.time() - started
            if loop.time() >= deadline:
                raise TimeoutError(
                    f"cluster did not converge within {timeout_s}s")
            await asyncio.sleep(poll_s)

    def all_request_records(self):
        records = []
        for client in self.clients.values():
            records.extend(client.records)
        records.sort(key=lambda record: record.finished_at)
        return records

    def stat_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for server in self.servers.values():
            for name, value in server.node.stats.items():
                totals[name] = totals.get(name, 0) + value
        totals["pending_hints"] = sum(server.node.pending_hints()
                                      for server in self.servers.values())
        return totals

    def sync_bytes(self) -> int:
        """Total bytes sent so far on anti-entropy messages (all endpoints)."""
        return sum(server.endpoint.stats.bytes_for(*SYNC_MESSAGE_TYPES)
                   for server in self.servers.values())

    def metrics_registry(self) -> MetricsRegistry:
        """The cluster's unified metrics registry (built once, reads live)."""
        if self._metrics_registry is None:
            self._metrics_registry = build_cluster_registry(self)
        return self._metrics_registry

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One flat, stable, JSON-serializable view of every cluster stat.

        After :meth:`stop` this returns the snapshot captured at shutdown
        (daemons drained, transports still open), so no daemon work from the
        final interval is lost.
        """
        if self._final_snapshot is not None:
            return dict(self._final_snapshot)
        return self.metrics_registry().snapshot()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"AsyncioCluster(mechanism={self.mechanism.name!r}, "
                f"servers={sorted(self.servers)}, "
                f"transport={self.transport_kind!r})")
