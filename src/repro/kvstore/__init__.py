"""The replicated multi-version key-value store (simulated Dynamo/Riak substrate).

Two store frontends share the same replica-local machinery
(:class:`~repro.kvstore.server.StorageNode` + pluggable causality mechanism):

* :class:`~repro.kvstore.sync_store.SyncReplicatedStore` — synchronous, exact
  control over interleavings; used by the Figure 1 scenario and the
  correctness / metadata experiments.
* :class:`~repro.kvstore.simulated.SimulatedCluster` — message-passing over
  the discrete-event network simulator with quorums, read repair and
  Merkle-delta anti-entropy; used by the latency experiment and the
  integration tests.
* :class:`~repro.kvstore.asyncio_cluster.AsyncioCluster` — the same protocol
  machines over real Unix-domain sockets, for wall-clock benchmarking.

The synchronous store merges replica pairs directly (``sync_key`` /
``sync_all`` / ``converge``); the clusters heal replicas with one
anti-entropy engine,
:class:`~repro.kvstore.protocol.anti_entropy.AntiEntropyEngine`.

The message protocol itself lives in :mod:`repro.kvstore.protocol` as
transport-agnostic state machines.  Both clusters are a
:class:`~repro.kvstore.cluster_core.ClusterCore` — config, placement,
reporting, the machines' env and the daemon policy (which replica pair
anti-entropy syncs next, which servers replay hints) — hosting each server on
a :class:`~repro.kvstore.cluster_core.ServerHost`; a backend adds only its
transport and the cadence its daemons tick at.
"""

from .asyncio_cluster import AsyncClusterClient, AsyncioCluster
from .client import ClientSession, GetResult, PutResult
from .cluster_core import ClientHost, ClusterCore, ServerHost
from .context import CausalContext
from .merkle_index import (
    MerkleIndex,
    VnodeIndexSet,
    bucket_path,
    key_fingerprint,
    state_fingerprint,
)
from .merge import (
    CallbackResolver,
    LastWriterWins,
    SiblingResolver,
    UnionMerge,
    resolve_and_writeback,
)
from .read_repair import ReadRepairStats, RepairPlan, plan_read_repair
from .server import Hint, StorageNode
from .simulated import SimulatedClient, SimulatedCluster
from .protocol import MerkleSyncStats, RequestRecord, default_value_size
from .storage import NodeStorage
from .sync_store import SyncReplicatedStore
from .write_log import WriteLog, WriteRecord

__all__ = [
    "AsyncClusterClient",
    "AsyncioCluster",
    "CallbackResolver",
    "CausalContext",
    "ClientHost",
    "ClientSession",
    "ClusterCore",
    "GetResult",
    "Hint",
    "LastWriterWins",
    "MerkleIndex",
    "MerkleSyncStats",
    "NodeStorage",
    "PutResult",
    "ReadRepairStats",
    "RepairPlan",
    "RequestRecord",
    "ServerHost",
    "SiblingResolver",
    "SimulatedClient",
    "SimulatedCluster",
    "StorageNode",
    "SyncReplicatedStore",
    "UnionMerge",
    "VnodeIndexSet",
    "WriteLog",
    "WriteRecord",
    "bucket_path",
    "default_value_size",
    "key_fingerprint",
    "plan_read_repair",
    "resolve_and_writeback",
    "state_fingerprint",
]
