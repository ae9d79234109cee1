"""The environment contract between protocol state machines and a backend.

The env is everything a state machine may consult that is *not* part of its
own state: cluster configuration (quorums, timeouts, deadline mode), shared
services (placement, the ground-truth write log, cluster-wide sync
statistics, the tracer) and the two oracle queries that differ per backend
(``can_reach`` — the reachability view hint replay consults — and
``is_registered`` — "is this process still alive", used to drop queued work
after a simulated crash).

Every backend passes its cluster, a
:class:`~repro.kvstore.cluster_core.ClusterCore`, and the contract is the
core's attribute set: anything a machine reads as ``env.<name>`` must be an
attribute of a bare ``ClusterCore`` (a test scans the machines for it).  The
env is the live cluster object, so a test that sets an attribute on a running
cluster is seen by the machines at once.

What is fixed by the implementation, as batch sizes and envelope sizes are
in Riak, is not on the env but a constant here, beside the latency
constants of :mod:`repro.kvstore.protocol.latency`:
:data:`SYNC_BATCH_SIZE`, :data:`READ_REPAIR_BATCH_MS`,
:data:`HINT_BACKOFF_MULTIPLIER` and :data:`REQUEST_OVERHEAD_BYTES`.  A
replica deadline's ceiling is the env's ``replica_timeout_ms``.

State machines only ever *read* the env.
"""

from __future__ import annotations

#: How per-replica deadlines are chosen: one fixed timeout ("fixed"), or an
#: EWMA of each replica's observed ack latency, clamped to a floor/ceiling
#: ("adaptive").
DEADLINE_MODES = ("fixed", "adaptive")

#: Keys per MERKLE_KEY_STATES / HINT_REPLAY / KEY_HANDOFF message, and the
#: read-repair batch that flushes without waiting for its window.
SYNC_BATCH_SIZE = 16

#: Coalescing window (ms) for read-repair pushes: repairs bound for the same
#: stale replica within it ride one READ_REPAIR message.
READ_REPAIR_BATCH_MS = 2.0

#: Hint replay toward a persistently slow peer (one whose latency EWMA clamps
#: its adaptive deadline at the ceiling) waits ``ewma × this`` after one
#: replay instead of the daemon cadence.
HINT_BACKOFF_MULTIPLIER = 6.0

#: Modelled envelope size (bytes) of every message.
REQUEST_OVERHEAD_BYTES = 64
