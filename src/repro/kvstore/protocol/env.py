"""The environment contract between protocol state machines and a backend.

The env is everything a state machine may consult that is *not* part of its
own state: cluster configuration (quorums, timeouts, batch sizes), shared
services (placement, the ground-truth write log, cluster-wide sync
statistics, the tracer) and the two oracle queries that differ per backend
(``can_reach`` — the reachability view hint replay consults — and
``is_registered`` — "is this process still alive", used to drop queued work
after a simulated crash).

Every backend passes its cluster, a
:class:`~repro.kvstore.cluster_core.ClusterCore`, and the contract is the
core's attribute set: anything a machine reads as ``env.<name>`` must be an
attribute of a bare ``ClusterCore`` (a test scans the machines for it).  The
env is the live cluster object, so a knob tweaked on it at runtime is seen by
the machines at once.

State machines only ever *read* the env.
"""

from __future__ import annotations

#: How per-replica deadlines are chosen: one fixed timeout ("fixed"), or an
#: EWMA of each replica's observed ack latency, clamped to a floor/ceiling
#: ("adaptive").
DEADLINE_MODES = ("fixed", "adaptive")
