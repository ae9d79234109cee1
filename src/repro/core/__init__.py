"""Core causality-tracking primitives: the paper's contribution.

This subpackage contains the dotted version vector itself
(:class:`~repro.core.dvv.DottedVersionVector` and its server-side kernel
operations), the compact sibling-set variant
(:class:`~repro.core.dvvset.DVVSet`), the classic version vector it improves
upon, the causal-history reference model used as the ground-truth oracle, and
the serialisation / size-accounting helpers the metadata experiments rely on.
"""

from .causal_history import CausalHistory
from .comparison import (
    Comparable,
    Ordering,
    compare,
    concurrent,
    dominates,
    equivalent,
    happens_after,
    happens_before,
    strictly_ordered,
)
from .dot import Actor, Dot, dot
from .dvv import (
    DottedVersionVector,
    covered_by_context,
    discard,
    join,
    max_counter_for,
    obsoleted_by,
    sync,
    update,
)
from .dvvset import DVVSet
from .exceptions import (
    AnalysisError,
    ClockError,
    ConfigurationError,
    IncomparableError,
    InvalidClockError,
    InvalidDotError,
    KeyNotFoundError,
    ReproError,
    SchedulingError,
    SerializationError,
    SimulationError,
    StaleContextError,
    StoreError,
    WorkloadError,
)
from .semantics import (
    agrees_with_history,
    covers,
    denote,
    denote_dvv,
    denote_dvvset,
    denote_version_vector,
    semantic_compare,
)
from .serialization import decode, encode, encoded_size, entry_count
from .version_vector import VersionVector

__all__ = [
    "Actor",
    "AnalysisError",
    "CausalHistory",
    "ClockError",
    "Comparable",
    "ConfigurationError",
    "Dot",
    "DottedVersionVector",
    "DVVSet",
    "IncomparableError",
    "InvalidClockError",
    "InvalidDotError",
    "KeyNotFoundError",
    "Ordering",
    "ReproError",
    "SchedulingError",
    "SerializationError",
    "SimulationError",
    "StaleContextError",
    "StoreError",
    "VersionVector",
    "WorkloadError",
    "agrees_with_history",
    "compare",
    "concurrent",
    "covered_by_context",
    "covers",
    "decode",
    "denote",
    "denote_dvv",
    "denote_dvvset",
    "denote_version_vector",
    "discard",
    "dominates",
    "dot",
    "encode",
    "encoded_size",
    "entry_count",
    "equivalent",
    "happens_after",
    "happens_before",
    "join",
    "max_counter_for",
    "obsoleted_by",
    "semantic_compare",
    "strictly_ordered",
    "sync",
    "update",
]
