"""The synchronous replicated store: exact control over interleavings.

This store executes every operation immediately (no simulated network), which
makes it the right substrate for the correctness experiments: the Figure 1
trace needs writes, reads and server synchronisations to happen in an exact
order, and the metadata / pruning / sibling experiments need to replay an
identical interleaving under several causality mechanisms.  The latency
experiment uses the message-passing cluster in
:mod:`repro.kvstore.simulated` instead.

Replication model
-----------------
A write is coordinated by a single server (chosen explicitly, or by the
placement service, or defaulting to the first replica).  By default the write
stays on the coordinator until replicas synchronise — exactly the model in
Figure 1, where server A and server B only exchange versions at the dotted
"sync" arrows — but ``replicate_on_write=True`` pushes the write's delta
(the mechanism's ``write_delta`` of the new state, as the message-passing
cluster's ``REPLICA_PUT`` does) to the other replicas immediately
(quorum-free eager replication), which is how the workload experiments keep
replicas loosely converged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..clocks.interface import CausalityMechanism, Sibling
from ..cluster.preference_list import PlacementService
from ..core.exceptions import ConfigurationError, StaleContextError
from .client import ClientSession, GetResult, PutResult
from .context import CausalContext
from .server import StorageNode
from .write_log import WriteLog


class SyncReplicatedStore:
    """A fully synchronous replicated key-value store.

    Parameters
    ----------
    mechanism:
        The causality mechanism under test (shared by every node of the run).
    server_ids:
        Identifiers of the replica servers.  With no placement service, every
        server replicates every key (the Figure 1 setting).
    placement:
        Optional :class:`~repro.cluster.preference_list.PlacementService`; when
        given, keys are replicated on their N-node preference list only.
    replicate_on_write:
        Push the write's delta (``mechanism.write_delta`` of the
        coordinator's new state) to the key's other replicas immediately
        after every write.
    write_log:
        Oracle write log; a fresh one is created when omitted.
    """

    def __init__(self,
                 mechanism: CausalityMechanism,
                 server_ids: Sequence[str] = ("A", "B", "C"),
                 placement: Optional[PlacementService] = None,
                 replicate_on_write: bool = False,
                 write_log: Optional[WriteLog] = None) -> None:
        if not server_ids:
            raise ConfigurationError("at least one server id is required")
        self.mechanism = mechanism
        self.servers: Dict[str, StorageNode] = {
            server_id: StorageNode(server_id, mechanism)
            for server_id in server_ids
        }
        self.placement = placement
        self.replicate_on_write = replicate_on_write
        self.write_log = write_log if write_log is not None else WriteLog()

    # ------------------------------------------------------------------ #
    # Placement helpers
    # ------------------------------------------------------------------ #
    def replicas_for(self, key: str) -> List[str]:
        """The servers that replicate ``key``."""
        if self.placement is None:
            return sorted(self.servers)
        return [node for node in self.placement.active_replicas(key) if node in self.servers]

    def coordinator_for(self, key: str) -> str:
        """The default coordinating server for ``key``."""
        replicas = self.replicas_for(key)
        if not replicas:
            raise ConfigurationError(f"no replicas available for key {key!r}")
        return replicas[0]

    def node(self, server_id: str) -> StorageNode:
        """The storage node with the given id."""
        try:
            return self.servers[server_id]
        except KeyError:
            raise ConfigurationError(f"unknown server {server_id!r}") from None

    # ------------------------------------------------------------------ #
    # Client operations
    # ------------------------------------------------------------------ #
    def get(self,
            key: str,
            client: ClientSession,
            server_id: Optional[str] = None) -> GetResult:
        """Read ``key`` from one replica (the coordinator unless specified)."""
        node = self.node(server_id) if server_id else self.node(self.coordinator_for(key))
        read = node.local_read(key)
        context = client.absorb_read(key, read, self.mechanism.name)
        return GetResult(
            key=key,
            values=[sibling.value for sibling in read.siblings],
            siblings=list(read.siblings),
            context=context,
        )

    def put(self,
            key: str,
            value: Any,
            client: ClientSession,
            context: Optional[CausalContext] = None,
            server_id: Optional[str] = None) -> PutResult:
        """Write ``key`` through a coordinating replica.

        ``context`` should be the context of the client's last read of the key
        (or None for a blind write).  Supplying a context minted by a
        different mechanism is a programming error and fails loudly.
        """
        if context is not None and context.mechanism_name != self.mechanism.name:
            raise StaleContextError(
                f"context was produced by mechanism {context.mechanism_name!r}, "
                f"store runs {self.mechanism.name!r}"
            )
        coordinator = server_id if server_id else self.coordinator_for(key)
        node = self.node(coordinator)
        sibling = client.prepare_write(key, value)
        self.write_log.report_parents(
            sibling.origin_dot, context.read_dots if context is not None else ())
        new_state = node.local_write(key, context, sibling)
        self.write_log.append(key, sibling)

        if self.replicate_on_write:
            delta = self.mechanism.write_delta(new_state)
            for replica_id in self.replicas_for(key):
                if replica_id != coordinator:
                    self.node(replica_id).local_merge(key, delta)
        return PutResult(key=key, context=None, coordinator=coordinator, sibling=sibling)

    def values(self, key: str, server_id: Optional[str] = None) -> List[Any]:
        """The live values of ``key`` at one replica (no client bookkeeping)."""
        node = self.node(server_id) if server_id else self.node(self.coordinator_for(key))
        return node.values_of(key)

    def siblings(self, key: str, server_id: Optional[str] = None) -> List[Sibling]:
        """The live siblings of ``key`` at one replica (no client bookkeeping)."""
        node = self.node(server_id) if server_id else self.node(self.coordinator_for(key))
        return node.siblings_of(key)

    # ------------------------------------------------------------------ #
    # Replica synchronisation
    # ------------------------------------------------------------------ #
    def sync_key(self, key: str, source_id: str, target_id: str,
                 bidirectional: bool = True) -> None:
        """Synchronise one key between two replicas (Figure 1's dotted arrows)."""
        source = self.node(source_id)
        target = self.node(target_id)
        target.local_merge(key, source.state_of(key))
        if bidirectional:
            source.local_merge(key, target.state_of(key))

    def sync_all(self, key: Optional[str] = None) -> None:
        """One full round of pairwise synchronisation between all replicas."""
        keys = [key] if key is not None else self._all_keys()
        for key_to_sync in keys:
            replicas = self.replicas_for(key_to_sync)
            for i, source_id in enumerate(replicas):
                for target_id in replicas[i + 1:]:
                    self.sync_key(key_to_sync, source_id, target_id, bidirectional=True)

    def converge(self, key: Optional[str] = None, max_rounds: int = 10) -> int:
        """Run sync rounds until every replica of every key holds identical siblings.

        Returns the number of rounds it took.  Raises if convergence is not
        reached within ``max_rounds`` — with the mechanisms in this library a
        single round suffices for full replication, so hitting the bound
        indicates a broken merge function.
        """
        for round_number in range(1, max_rounds + 1):
            self.sync_all(key)
            if self.is_converged(key):
                return round_number
        raise ConfigurationError(f"replicas failed to converge within {max_rounds} rounds")

    def is_converged(self, key: Optional[str] = None) -> bool:
        """True iff every replica of every (or one) key stores the same sibling set."""
        keys = [key] if key is not None else self._all_keys()
        for key_to_check in keys:
            replicas = self.replicas_for(key_to_check)
            if not replicas:
                continue
            reference = self._sibling_fingerprint(key_to_check, replicas[0])
            for replica_id in replicas[1:]:
                if self._sibling_fingerprint(key_to_check, replica_id) != reference:
                    return False
        return True

    def _sibling_fingerprint(self, key: str, server_id: str) -> frozenset:
        return frozenset(
            sibling.origin_dot for sibling in self.node(server_id).siblings_of(key)
        )

    def _all_keys(self) -> List[str]:
        keys = set()
        for node in self.servers.values():
            keys.update(node.storage.keys())
        return sorted(keys)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def metadata_entries(self, key: Optional[str] = None) -> int:
        """Total causality-metadata entries across all replicas."""
        return sum(node.metadata_entries(key) for node in self.servers.values())

    def metadata_bytes(self, key: Optional[str] = None) -> int:
        """Total causality-metadata bytes across all replicas."""
        return sum(node.metadata_bytes(key) for node in self.servers.values())

    def max_metadata_entries_per_key(self) -> int:
        """The largest per-key, per-replica metadata entry count in the store."""
        largest = 0
        for node in self.servers.values():
            for key in node.storage.keys():
                largest = max(largest, node.metadata_entries(key))
        return largest

    def sibling_counts(self, key: str) -> Dict[str, int]:
        """Number of live siblings of ``key`` at each replica."""
        return {
            server_id: len(node.siblings_of(key))
            for server_id, node in self.servers.items()
            if server_id in self.replicas_for(key)
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"SyncReplicatedStore(mechanism={self.mechanism.name!r}, "
            f"servers={sorted(self.servers)})"
        )
