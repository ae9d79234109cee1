"""Transport-agnostic protocol state machines for the replicated KV store.

The request-handling core of the Dynamo-style protocol — coordination,
replica handlers, Merkle anti-entropy, hinted-handoff replay and the client
half — extracted from the simulated cluster into pure machines that consume
decoded messages and timer events and emit effects.  Both the deterministic
simulator (:mod:`repro.kvstore.simulated`) and the asyncio socket backend
(:mod:`repro.kvstore.asyncio_cluster`) drive these same objects; see
``ARCHITECTURE.md`` for the layering and how to add a third transport.
"""

from .anti_entropy import (
    DIGEST_BYTES,
    SYNC_MESSAGE_TYPES,
    AntiEntropyEngine,
    AntiEntropySession,
    MerkleSyncStats,
)
from .client import ClientProtocol, RequestRecord
from .coordinator import Coordinator, CoordinatorSession
from .effects import (
    ClearTimer,
    Effect,
    EffectList,
    EffectRunner,
    Send,
    SetTimer,
    TimerId,
)
from .hints import HintReplayer
from .latency import (
    DEADLINE_EWMA_ALPHA,
    SLOW_PEER_MULTIPLIER,
    PeerLatencyTracker,
)
from .node import ProtocolNode
from .replica import ReplicaHandler
from .util import chunked, default_value_size

__all__ = [
    "AntiEntropyEngine",
    "AntiEntropySession",
    "ClearTimer",
    "ClientProtocol",
    "Coordinator",
    "CoordinatorSession",
    "DEADLINE_EWMA_ALPHA",
    "DIGEST_BYTES",
    "Effect",
    "EffectList",
    "EffectRunner",
    "HintReplayer",
    "MerkleSyncStats",
    "PeerLatencyTracker",
    "ProtocolNode",
    "ReplicaHandler",
    "RequestRecord",
    "Send",
    "SetTimer",
    "SLOW_PEER_MULTIPLIER",
    "SYNC_MESSAGE_TYPES",
    "TimerId",
    "chunked",
    "default_value_size",
]
