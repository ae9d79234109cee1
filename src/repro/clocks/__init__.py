"""Causality mechanisms: the paper's baselines, related work, and the DVV plug-ins.

This subpackage hosts every causality-tracking mechanism the paper discusses —
per-server version vectors, per-client version vectors (with and without
pruning), dotted version vectors, dotted version vector sets, version vectors
with exceptions, ordered version vectors, classic vector clocks and Lamport
clocks — together with the :class:`~repro.clocks.interface.CausalityMechanism`
strategy interface that lets the simulated store replay identical workloads
under each of them.
"""

from .causal_history_mechanism import CausalHistoryMechanism
from .client_vv import ClientVVMechanism
from .dvv_mechanism import DVVMechanism
from .dvvset_mechanism import DVVSetMechanism
from .interface import CausalityMechanism, ReadResult, Sibling
from .lamport import LamportClock, LamportTimestamp
from .ordered_vv import OrderedVersionVector
from .pruning import (
    DropOldestWriters,
    GoldingSafePruning,
    NoPruning,
    PrunedClientVVMechanism,
    PruningPolicy,
    SizeBoundedPruning,
)
from .registry import available, create, create_many, pruned_client_vv, register
from .server_vv import ServerVVMechanism
from .vector_clock import DottedEventStamp, DottedVectorClock, VectorClock
from .vve import DottedVVE, VersionVectorWithExceptions
from .vve_mechanism import DottedVVEMechanism

__all__ = [
    "CausalHistoryMechanism",
    "CausalityMechanism",
    "ClientVVMechanism",
    "DottedEventStamp",
    "DottedVVE",
    "DottedVVEMechanism",
    "DottedVectorClock",
    "DropOldestWriters",
    "DVVMechanism",
    "DVVSetMechanism",
    "GoldingSafePruning",
    "LamportClock",
    "LamportTimestamp",
    "NoPruning",
    "OrderedVersionVector",
    "PrunedClientVVMechanism",
    "PruningPolicy",
    "ReadResult",
    "ServerVVMechanism",
    "Sibling",
    "SizeBoundedPruning",
    "VectorClock",
    "VersionVectorWithExceptions",
    "available",
    "create",
    "create_many",
    "pruned_client_vv",
    "register",
]
