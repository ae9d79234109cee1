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

The synchronous store merges replica pairs directly (``sync_key`` /
``sync_all`` / ``converge``); the clusters heal replicas with one
anti-entropy engine,
:class:`~repro.kvstore.protocol.anti_entropy.AntiEntropyEngine`.

The message protocol itself lives in :mod:`repro.kvstore.protocol` as
transport-agnostic state machines; besides the simulator,
:class:`~repro.kvstore.asyncio_cluster.AsyncioCluster` hosts them over real
TCP/Unix-domain sockets for wall-clock benchmarking.
"""

from .anti_entropy import AntiEntropyDaemon, HintedHandoffDaemon
from .asyncio_cluster import AsyncClusterClient, AsyncioCluster, AsyncServerNode
from .client import ClientSession, GetResult, PutResult
from .context import CausalContext
from .merkle import MerkleTree, bucket_path, diff_keys, key_fingerprint, state_fingerprint
from .merkle_index import MerkleIndex, VnodeIndexSet
from .merge import (
    CallbackResolver,
    LastWriterWins,
    SiblingResolver,
    UnionMerge,
    resolve_and_writeback,
)
from .read_repair import ReadRepairStats, RepairPlan, plan_read_repair
from .server import Hint, StorageNode
from .simulated import (
    DEADLINE_MODES,
    REQUEST_MODES,
    MerkleSyncStats,
    MessageServer,
    RequestRecord,
    SimulatedClient,
    SimulatedCluster,
    default_value_size,
)
from .storage import NodeStorage, VnodeManager, VnodeStore
from .sync_store import SyncReplicatedStore
from .write_log import WriteLog, WriteRecord

__all__ = [
    "DEADLINE_MODES",
    "REQUEST_MODES",
    "AntiEntropyDaemon",
    "AsyncClusterClient",
    "AsyncServerNode",
    "AsyncioCluster",
    "CallbackResolver",
    "CausalContext",
    "ClientSession",
    "GetResult",
    "Hint",
    "HintedHandoffDaemon",
    "LastWriterWins",
    "MerkleIndex",
    "MerkleSyncStats",
    "MerkleTree",
    "MessageServer",
    "NodeStorage",
    "PutResult",
    "ReadRepairStats",
    "RepairPlan",
    "RequestRecord",
    "SiblingResolver",
    "SimulatedClient",
    "SimulatedCluster",
    "StorageNode",
    "SyncReplicatedStore",
    "UnionMerge",
    "VnodeIndexSet",
    "VnodeManager",
    "VnodeStore",
    "WriteLog",
    "WriteRecord",
    "bucket_path",
    "default_value_size",
    "diff_keys",
    "key_fingerprint",
    "plan_read_repair",
    "resolve_and_writeback",
    "state_fingerprint",
]
