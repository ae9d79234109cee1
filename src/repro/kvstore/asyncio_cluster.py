"""The asyncio backend: the same protocol machines over real sockets.

This is the "serves real traffic" counterpart of the deterministic simulator
in :mod:`repro.kvstore.simulated`.  Both host the exact same state machines
from :mod:`repro.kvstore.protocol`, hosted the same way on the same
:class:`~repro.kvstore.cluster_core.ClusterCore` — but here every
message crosses an actual Unix-domain socket through an
:class:`~repro.network.asyncio_transport.AsyncioEndpoint`, timers ride
the endpoint's per-length queues on the event loop, the clock is the wall
clock, and any number of clients issue requests concurrently.

Coordination is Dynamo-style and deadline-driven, the one path the
simulator runs too: reachability is decided by deadlines and sloppy-quorum
fallbacks, never by a membership oracle.  Anti-entropy and hint replay follow
the core's one policy (``ClusterCore.anti_entropy_tick`` /
``hint_replay_tick``); this backend only supplies the cadence, one
``sleep → tick`` task per daemon.  A tick step that raises is contained like a
raising message handler: logged with its traceback, counted in that server's
``handler_errors``, and the daemon keeps ticking.  A stopped cluster cannot
be started again.

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
import logging
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..clocks.interface import CausalityMechanism
from ..cluster.preference_list import QuorumConfig
from ..cluster.topology import Topology
from ..core.exceptions import ConfigurationError
from ..network.asyncio_transport import Address, AsyncioEndpoint
from ..network.transport import TransportStats
from .client import GetResult, PutResult
from .cluster_core import ClientHost, ClusterCore, ServerHost

logger = logging.getLogger(__name__)


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
        return os.path.join(self.directory, _socket_name(node_id))


class AsyncClusterClient(ClientHost):
    """A concurrent client of the asyncio cluster, on its own endpoint.

    :meth:`get` and :meth:`put` resolve when the reply arrives (or with
    ``None`` once the machine has exhausted its coordinator candidates).
    ``cluster`` may be a bare :class:`ClusterCore` describing a cluster
    served by another process.
    """

    def __init__(self, client_id: str, cluster: ClusterCore,
                 address_book: Dict[str, Address]) -> None:
        super().__init__(client_id, cluster,
                         AsyncioEndpoint(f"client:{client_id}", address_book))
        self.transport.handler = self.handle_message

    async def get(self, key: str) -> Optional[GetResult]:
        """GET ``key``; resolves with the result, or ``None`` on failure."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Optional[GetResult]]" = loop.create_future()
        self.runner.run(self.protocol.get(
            key,
            lambda result: future.done() or future.set_result(result),
            self.transport.now_ms()))
        return await future

    async def put(self, key: str, value: Any,
                  use_context: bool = True) -> Optional[PutResult]:
        """PUT ``value`` under ``key``; resolves when acknowledged."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Optional[PutResult]]" = loop.create_future()
        self.runner.run(self.protocol.put(
            key, value,
            lambda result: future.done() or future.set_result(result),
            self.transport.now_ms(),
            use_context=use_context))
        return await future

    async def start(self) -> None:
        await self.transport.start()

    async def close(self) -> None:
        self.runner.cancel_all()
        await self.transport.close()


class AsyncioCluster(ClusterCore):
    """A running cluster over real sockets, one event loop, many clients.

    Parameters mirror the simulator's where they mean the same thing (see
    :class:`~repro.kvstore.cluster_core.ClusterCore`); the transport knobs
    (latency models, loss, partitions) do not exist here — the network is
    whatever the kernel provides.  Every replica deadline is
    ``replica_timeout_ms``; a GET's hedge floor is ``replica_timeout_ms / 5``.

    Every node listens on a Unix-domain socket under ``socket_dir`` (a fresh
    temp dir when omitted, removed again at :meth:`stop`).
    """

    def __init__(self,
                 mechanism: CausalityMechanism,
                 server_ids: Sequence[str] = ("A", "B", "C"),
                 quorum: Optional[QuorumConfig] = None,
                 socket_dir: Optional[str] = None,
                 anti_entropy_interval_ms: Optional[float] = 100.0,
                 hint_replay_interval_ms: Optional[float] = 50.0,
                 replica_timeout_ms: float = 250.0,
                 request_timeout_ms: float = 1000.0,
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
            hedge_floor_ms=replica_timeout_ms / 5.0,
            topology=topology,
            tracer=tracer,
        )
        self.server_ids = list(server_ids)
        self._socket_dir = socket_dir
        self._owns_socket_dir = socket_dir is None
        #: node id → socket path; a :class:`UnixDirAddressBook` once the
        #: cluster starts.
        self.address_book: Any = {}
        self._daemon_tasks: List[asyncio.Task] = []
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Addressing and the transport's stats
    # ------------------------------------------------------------------ #
    @property
    def socket_dir(self) -> Optional[str]:
        """Directory of the Unix-domain sockets (None before a start that
        makes one)."""
        return self._socket_dir

    def transport_stats(self) -> List[TransportStats]:
        """One stats object per endpoint: each message is counted once as
        sent (sender endpoint) and once as delivered (receiver endpoint), so
        the sum is the cluster total, like the simulator's one transport."""
        return [host.transport.stats
                for host in (*self.servers.values(), *self.clients.values())]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind every server's listener and start the background daemons."""
        if self._stopped:
            raise ConfigurationError(
                "this AsyncioCluster was stopped and cannot be restarted; "
                "build a new one")
        if self._started:
            return
        if self._socket_dir is None:
            self._socket_dir = tempfile.mkdtemp(prefix="repro-cluster-")
        self.address_book = UnixDirAddressBook(self._socket_dir)
        for server_id in self.server_ids:
            endpoint = AsyncioEndpoint(server_id, self.address_book)
            server = ServerHost(server_id, self.mechanism, self, endpoint)
            endpoint.handler = server.handle_message
            self.servers[server_id] = server
            await endpoint.start()
        loop = asyncio.get_running_loop()
        self._daemon_tasks = [
            loop.create_task(self._tick_every(interval_ms, tick), name=label)
            for label, interval_ms, tick in self.daemons()]
        self._started = True

    async def stop(self) -> None:
        """Cancel daemons, close every endpoint, remove Unix sockets."""
        if self._stopped:
            return
        self._stopped = True
        for task in self._daemon_tasks:
            task.cancel()
        # A daemon that died of an error must not keep the endpoints open.
        await asyncio.gather(*self._daemon_tasks, return_exceptions=True)
        self._daemon_tasks.clear()
        # Flush the final metrics while every endpoint's stats object is
        # still alive: the daemons have stopped, so the counters are
        # complete, and snapshots taken after shutdown stay meaningful.
        if self.servers:
            self._final_snapshot = self.metrics_snapshot()
        for host in (*self.clients.values(), *self.servers.values()):
            host.runner.cancel_all()
            await host.transport.close()
        if self._owns_socket_dir and self._socket_dir is not None:
            for name in os.listdir(self._socket_dir):
                try:
                    os.unlink(os.path.join(self._socket_dir, name))
                except OSError:
                    pass
            try:
                os.rmdir(self._socket_dir)
            except OSError:
                pass

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
        client = AsyncClusterClient(client_id, self, self.address_book)
        self.clients[client_id] = client
        await client.start()
        return client

    # ------------------------------------------------------------------ #
    # Background daemons
    # ------------------------------------------------------------------ #
    @staticmethod
    async def _tick_every(interval_ms: float, tick: Callable[[], None]) -> None:
        while True:
            await asyncio.sleep(interval_ms / 1000.0)
            tick()

    def _daemon_step(self, server: ServerHost, step: Callable[..., Any],
                     *args: Any) -> None:
        # Contained like a raising handler in ``AsyncioEndpoint._deliver``.
        try:
            step(*args)
        except Exception:
            server.transport.stats.handler_errors += 1
            logger.exception("%s: daemon step %s failed", server.node_id,
                             getattr(step, "__name__", step))

    # ------------------------------------------------------------------ #
    # Convergence (in-process verification helper)
    # ------------------------------------------------------------------ #
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
