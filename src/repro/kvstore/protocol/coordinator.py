"""Coordinator state machine: quorum GET/PUT, deadlines, fallbacks, read repair.

This is the request-handling half of the Dynamo-style protocol, extracted from
the simulated cluster into a transport-agnostic machine.  One
:class:`Coordinator` lives on each :class:`~repro.kvstore.protocol.node.ProtocolNode`
and tracks a :class:`CoordinatorSession` per in-flight client request.  Every
handler consumes a decoded message or a fired timer and *emits effects*
(:class:`~repro.kvstore.protocol.effects.Send` /
:class:`~repro.kvstore.protocol.effects.SetTimer` /
:class:`~repro.kvstore.protocol.effects.ClearTimer`) through the owning node;
it never touches a transport or an event loop.

Coordination is Dynamo-style and timeout-driven over the key's N *primary*
replicas, regardless of the membership view: arm a per-replica deadline on
every contact and collect R/W acks.  A PUT writes to every primary.  A GET
asks only as many primaries as its read quorum still lacks after the
coordinator's own reply; the other primaries are the session's *reserve*,
ranked unsuspected first (see
:class:`~repro.kvstore.protocol.latency.PeerLatencyTracker`), then — on a
multi-DC topology — the coordinator's own datacenter, then ring order.  A
hedge timer (twice the asked replica's EWMA, at least ``deadline_floor_ms``)
asks the reserve if the quorum is still short; a contacted replica's deadline
asks it too, before anything else.  A replica whose deadline fires is then,
under a **sloppy** quorum, replaced by the next node on the ring, which
accepts the write together with a hint naming the intended primary; a strict
quorum (or an exhausted ring) holds the hint locally and fails the request
with ``ERROR_REPLY`` once the quorum is infeasible or the overall request
deadline fires.

Timer ids armed by this machine:

* ``("replica", coordination_id, replica_id)`` — one contacted replica's ack
  deadline;
* ``("request", coordination_id)`` — the overall request deadline;
* ``("hedge", coordination_id)`` — a GET's cue to ask its reserve ("task"
  kind: it detects no failure, it only stops waiting on a slow reply);
* ``("repair-flush",)`` — the read-repair coalescing window ("task" kind: it
  is scheduled work, not a failure-detection deadline).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ...clocks.interface import Sibling
from ...network.message import Message, MessageType
from ..read_repair import ReadRepairStats, plan_read_repair
from .effects import ClearTimer, Send, SetTimer
from .env import READ_REPAIR_BATCH_MS, REQUEST_OVERHEAD_BYTES, SYNC_BATCH_SIZE
from .util import default_value_size


@dataclass
class CoordinatorSession:
    """Coordinator-side bookkeeping for one in-flight client request."""

    kind: str                       # "get" or "put"
    key: str
    client_address: str
    request_id: int
    needed: int
    replies: List = field(default_factory=list)
    replied_nodes: List[str] = field(default_factory=list)
    done: bool = False
    # put-only fields
    new_state: Any = None
    #: modelled size of every REPLICA_PUT this session sends (one state,
    #: sized once per coordination)
    state_size: int = 0
    tried: List[str] = field(default_factory=list)       # every node contacted
    #: get-only: primaries not asked yet, in the order they will be asked
    reserve: List[str] = field(default_factory=list)
    hedge: bool = False              # the hedge timer is armed
    timed_out: List[str] = field(default_factory=list)
    #: replica -> True while its ack deadline is armed.  The machine only
    #: tracks *that* a timer is armed; the backend holds the actual handle.
    deadlines: Dict[str, bool] = field(default_factory=dict)
    sent_at: Dict[str, float] = field(default_factory=dict)   # replica -> send time
    request_deadline: bool = False
    #: fallback -> the primary it stands in for (hint chains survive
    #: a fallback itself timing out).
    standing_in: Dict[str, str] = field(default_factory=dict)
    #: tracing (inert unless a tracer is installed): the coordinator span's
    #: ``(trace_id, span_id)`` reference, and one open span per contacted
    #: replica awaiting its ack/deadline.
    trace: Any = None
    replica_spans: Dict[str, Any] = field(default_factory=dict)


class Coordinator:
    """Per-node coordination machine (one session per in-flight request)."""

    def __init__(self, node) -> None:
        self._node = node
        self.sessions: Dict[int, CoordinatorSession] = {}
        self._request_ids = itertools.count(1)
        self.read_repair_stats = ReadRepairStats()
        #: hedge timers that fired, and reserve primaries asked (by a hedge
        #: or by a contacted replica's deadline)
        self.read_hedges = 0
        self.reserve_contacts = 0
        # Read-repair pushes are coalesced per target replica (mirroring
        # MERKLE_KEY_STATES batching): repairs queue here and flush as one
        # READ_REPAIR message per target when the batch fills or the
        # coalescing window closes.
        self.repair_queue: Dict[str, Dict[str, Any]] = {}
        self._repair_flush_scheduled = False

    # ------------------------------------------------------------------ #
    # Tracing (every helper is a no-op without an installed tracer; span
    # events go straight to the sink, never through the effect system, so
    # tracing cannot perturb coordination)
    # ------------------------------------------------------------------ #
    def _trace_begin(self, pending: CoordinatorSession, message: Message) -> None:
        """Open the coordinator span, linked under the client's root span."""
        node = self._node
        tracer = node.tracer
        if not tracer.enabled:
            return
        ctx = message.payload.get("trace")
        trace_id = ctx[0] if ctx else f"{message.sender}#{message.msg_id}"
        parent = ctx[1] if ctx else None
        pending.trace = tracer.start(
            f"coordinator.{pending.kind}", node.node_id, node.now,
            trace=trace_id, parent=parent, key=pending.key)

    def _trace_replica(self, pending: CoordinatorSession, replica_id: str,
                       hint_for: Optional[str] = None):
        """Open one contacted replica's span (fan-out / fallback contact)."""
        node = self._node
        tracer = node.tracer
        if not tracer.enabled or pending.trace is None:
            return None
        attrs: Dict[str, Any] = {"replica": replica_id}
        if hint_for is not None:
            attrs["hint_for"] = hint_for
        ref = tracer.start(
            f"replica.{pending.kind}", node.node_id, node.now,
            trace=pending.trace[0], parent=pending.trace[1], **attrs)
        pending.replica_spans[replica_id] = ref
        return ref

    def _trace_replica_end(self, pending: CoordinatorSession,
                           replica_id: str, status: str) -> None:
        ref = pending.replica_spans.pop(replica_id, None)
        if ref is not None:
            self._node.tracer.end(ref, self._node.now, status=status)

    def _trace_end_replicas(self, pending: CoordinatorSession,
                            status: str) -> None:
        """Close every still-open replica span (session is being dropped)."""
        if not pending.replica_spans:
            return
        tracer = self._node.tracer
        if tracer.enabled:
            for ref in pending.replica_spans.values():
                tracer.end(ref, self._node.now, status=status)
        pending.replica_spans.clear()

    def _trace_end_session(self, pending: CoordinatorSession, status: str,
                           **attrs: Any) -> None:
        if pending.trace is not None:
            tracer = self._node.tracer
            if tracer.enabled:
                tracer.end(pending.trace, self._node.now, status=status, **attrs)

    def _trace_point(self, pending: CoordinatorSession, name: str,
                     **attrs: Any):
        node = self._node
        tracer = node.tracer
        if not tracer.enabled or pending.trace is None:
            return None
        return tracer.point(name, node.node_id, node.now,
                            trace=pending.trace[0], parent=pending.trace[1],
                            **attrs)

    def _store_hint_traced(self, pending: Optional[CoordinatorSession],
                           primary_id: str, key: str, state: Any) -> None:
        """Hold a hint locally, marking it in the request's span tree."""
        hint_ref = None
        if pending is not None:
            hint_ref = self._trace_point(pending, "hint.stored",
                                         target=primary_id, key=key)
        self._node.store.store_hint(primary_id, key, state, trace=hint_ref)

    # ------------------------------------------------------------------ #
    # Coordinating a GET
    # ------------------------------------------------------------------ #
    def on_coordinate_get(self, message: Message) -> None:
        """Deadline-driven GET: ask the primaries R still needs, hedge the rest.

        A reply past the quorum is dropped unread, so asking every primary
        costs a request and a reply per extra primary on every read.  The
        primaries not asked wait in the session's reserve until the hedge or
        a deadline says the quorum is slow.
        """
        node = self._node
        env = node.env
        config = env.quorum
        key = message.payload["key"]
        extended = env.placement.extended_preference_list(key)
        request_id = next(self._request_ids)
        pending = CoordinatorSession(
            kind="get",
            key=key,
            client_address=message.sender,
            request_id=message.msg_id,
            needed=min(config.r, max(len(extended), 1)),
        )
        self.sessions[request_id] = pending
        self._trace_begin(pending, message)
        pending.tried.append(node.node_id)
        primaries = env.placement.primary_replicas(key)
        # The coordinator's own state only counts toward R when it is one of
        # the key's replica homes — or, under a sloppy quorum, as a fallback
        # read (the client failed over to it, so it stands in the extended
        # top-N); a strict quorum accepts replies from primaries only.
        if node.node_id in primaries or config.sloppy:
            pending.replies.append((node.node_id, node.store.state_of(key)))
            pending.replied_nodes.append(node.node_id)
        ranked = self._rank_primaries(
            [replica_id for replica_id in primaries if replica_id != node.node_id])
        wanted = pending.needed - len(pending.replies)
        deadlines = [self._send_replica_request(request_id, pending, replica_id)
                     for replica_id in ranked[:wanted]]
        pending.reserve = ranked[wanted:]
        self._arm_request_deadline(request_id, pending)
        if pending.reserve and deadlines:
            self._arm_hedge(request_id, pending, min(deadlines))
        self._maybe_finish_get(request_id)

    def _rank_primaries(self, replica_ids: List[str]) -> List[str]:
        """The order a GET asks primaries in: unsuspected first, then (on a
        multi-DC topology) the coordinator's own DC, then ring order."""
        node = self._node
        suspected = node.latency.suspected
        topology = node.env.placement.topology
        if topology is not None and topology.spans_multiple_dcs:
            home = topology.dc_of(node.node_id)
            return sorted(replica_ids, key=lambda replica_id: (
                replica_id in suspected, topology.dc_of(replica_id) != home))
        if suspected:
            return sorted(replica_ids, key=suspected.__contains__)
        return replica_ids

    def _arm_hedge(self, coordination_id: int, pending: CoordinatorSession,
                   deadline_ms: float) -> None:
        """Arm the GET's hedge, unless a deadline would fire no later."""
        node = self._node
        floor_ms = node.env.deadline_floor_ms
        delay_ms = max(node.latency.hedge_ms(replica_id, floor_ms)
                       for replica_id in pending.deadlines)
        if delay_ms >= deadline_ms:
            return
        pending.hedge = True
        node.emit(SetTimer(("hedge", coordination_id), delay_ms, kind="task",
                           label=f"read-hedge:{pending.key}"))

    def on_hedge(self, coordination_id: int) -> None:
        """The quorum is slower than the asked replicas usually are: ask the
        reserve now rather than at the first deadline."""
        pending = self.sessions.get(coordination_id)
        if pending is None or pending.done:
            return
        pending.hedge = False
        self.read_hedges += 1
        self._trace_point(pending, "read.hedged", replicas=list(pending.reserve))
        self._ask_reserve(coordination_id, pending)

    def _ask_reserve(self, coordination_id: int,
                     pending: CoordinatorSession) -> None:
        """Contact every reserve primary (the hedge has nothing left to do)."""
        reserve, pending.reserve = pending.reserve, []
        if pending.hedge:
            pending.hedge = False
            self._node.emit(ClearTimer(("hedge", coordination_id)))
        self.reserve_contacts += len(reserve)
        for replica_id in reserve:
            self._send_replica_request(coordination_id, pending, replica_id)

    def on_replica_get_reply(self, message: Message) -> None:
        coordination_id = message.payload["coordination_id"]
        pending = self.sessions.get(coordination_id)
        if pending is None or pending.done or pending.kind != "get":
            return
        if message.sender in pending.replied_nodes:
            return  # duplicate delivery
        self._observe_ack_latency(pending, message.sender)
        self._trace_replica_end(pending, message.sender, "ok")
        if pending.deadlines.pop(message.sender, None):
            self._node.emit(ClearTimer(("replica", coordination_id, message.sender)))
        pending.replies.append((message.sender, message.payload["state"]))
        pending.replied_nodes.append(message.sender)
        self._maybe_finish_get(coordination_id)

    def _maybe_finish_get(self, coordination_id: int) -> None:
        node = self._node
        pending = self.sessions.get(coordination_id)
        if pending is None or pending.done:
            return
        if len(pending.replies) < pending.needed:
            return
        pending.done = True
        self._cancel_pending_timers(coordination_id, pending)

        plan = plan_read_repair(node.mechanism, pending.replies)
        self.read_repair_stats.record(plan)
        merged_state = plan.merged_state
        # The coordinator keeps the merged state (it is one of the replicas).
        node.store.local_merge(pending.key, merged_state)
        read = node.mechanism.read(node.store.state_of(pending.key))

        # Repair the stale replicas in the background (coalesced per target).
        for replica_id in plan.stale_replicas:
            if replica_id == node.node_id:
                continue
            self._trace_point(pending, "read_repair.queued",
                              target=replica_id, key=pending.key)
            self.queue_read_repair(replica_id, pending.key, merged_state)

        context_bytes = node.mechanism.context_bytes(read.context)
        values_bytes = sum(default_value_size(s.value) for s in read.siblings)
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=pending.client_address,
            msg_type=MessageType.GET_REPLY,
            payload={
                "key": pending.key,
                "siblings": list(read.siblings),
                "mechanism_context": read.context,
                "coordinator": node.node_id,
                "context_bytes": context_bytes,
            },
            size_bytes=values_bytes + context_bytes + REQUEST_OVERHEAD_BYTES,
            request_id=pending.request_id,
        )))
        self._trace_end_session(pending, "ok", replies=len(pending.replies),
                                stale=len(plan.stale_replicas))
        self.sessions.pop(coordination_id, None)

    # ------------------------------------------------------------------ #
    # Coordinating a PUT
    # ------------------------------------------------------------------ #
    def on_coordinate_put(self, message: Message) -> None:
        """Deadline-driven PUT: fan out to the primaries, collect W acks.

        The membership view is not consulted; a primary that does not ack
        before its deadline is treated as failed, and a sloppy quorum extends
        the preference list to the next ring node, which accepts the write
        together with a hint naming the intended primary.
        """
        node = self._node
        env = node.env
        config = env.quorum
        key = message.payload["key"]
        sibling: Sibling = message.payload["sibling"]
        context = message.payload.get("context")
        client_id = message.payload["client_id"]
        new_state = node.store.local_write(key, context, sibling, client_id)
        env.write_log.append(key, sibling, node.node_id, client_id, node.now)
        extended = env.placement.extended_preference_list(key)
        request_id = next(self._request_ids)
        pending = CoordinatorSession(
            kind="put",
            key=key,
            client_address=message.sender,
            request_id=message.msg_id,
            needed=min(config.w, max(len(extended), 1)),
            new_state=new_state,
            state_size=node.state_size(key, new_state),
        )
        self.sessions[request_id] = pending
        self._trace_begin(pending, message)
        pending.tried.append(node.node_id)
        primaries = env.placement.primary_replicas(key)
        if node.node_id in primaries:
            pending.replies.append((node.node_id, True))
            pending.replied_nodes.append(node.node_id)
        elif config.sloppy:
            # The client failed over to a non-home coordinator: under a
            # sloppy quorum its local copy counts as a fallback ack, and like
            # any fallback it holds a hint so the write reaches a primary.
            if env.hinted_handoff_enabled:
                self._store_hint_traced(pending, primaries[0], key, new_state)
            pending.replies.append((node.node_id, True))
            pending.replied_nodes.append(node.node_id)
        # (strict quorum on a non-home coordinator: only primary acks count)
        for replica_id in primaries:
            if replica_id == node.node_id:
                continue
            self._send_replica_request(request_id, pending, replica_id)
        self._arm_request_deadline(request_id, pending)
        self._maybe_finish_put(request_id)

    # ------------------------------------------------------------------ #
    # Deadlines, fallbacks, failure replies
    # ------------------------------------------------------------------ #
    def _send_replica_request(self, coordination_id: int,
                              pending: CoordinatorSession,
                              replica_id: str,
                              hint_for: Optional[str] = None) -> float:
        """Contact one replica (primary or fallback) and arm its deadline.

        Returns the deadline armed, in ms.
        """
        node = self._node
        pending.tried.append(replica_id)
        if hint_for is not None:
            pending.standing_in[replica_id] = hint_for
        ref = self._trace_replica(pending, replica_id, hint_for=hint_for)
        if pending.kind == "put":
            payload = {"key": pending.key, "state": pending.new_state,
                       "coordination_id": coordination_id}
            if hint_for is not None:
                payload["hint_for"] = hint_for
            if ref is not None:
                # Propagate span context on the wire so a fallback replica
                # can parent its own hint.stored point under this contact.
                payload["trace"] = ref
            message = Message(
                sender=node.node_id,
                receiver=replica_id,
                msg_type=MessageType.REPLICA_PUT,
                payload=payload,
                size_bytes=pending.state_size,
                request_id=coordination_id,
            )
        else:
            message = Message(
                sender=node.node_id,
                receiver=replica_id,
                msg_type=MessageType.REPLICA_GET,
                payload={"key": pending.key, "coordination_id": coordination_id},
                size_bytes=REQUEST_OVERHEAD_BYTES,
                request_id=coordination_id,
            )
        node.emit(Send(message))
        pending.sent_at[replica_id] = node.now
        pending.deadlines[replica_id] = True
        deadline_ms = self.replica_deadline_ms(replica_id)
        node.emit(SetTimer(
            ("replica", coordination_id, replica_id),
            deadline_ms,
            label=f"replica-deadline:{pending.kind}:{replica_id}",
        ))
        return deadline_ms

    def replica_deadline_ms(self, replica_id: str) -> float:
        """How long to wait for this replica's ack before giving up on it."""
        env = self._node.env
        return self._node.latency.deadline_ms(
            replica_id,
            mode=env.deadline_mode,
            fixed_ms=env.replica_timeout_ms,
            floor_ms=env.deadline_floor_ms,
            ceiling_ms=env.replica_timeout_ms,
        )

    def _observe_ack_latency(self, pending: CoordinatorSession,
                             replica_id: str) -> None:
        """Fold one observed ack round trip into the replica's latency EWMA."""
        sent_at = pending.sent_at.pop(replica_id, None)
        if sent_at is None:
            return
        self._node.latency.observe(replica_id, self._node.now - sent_at)

    def _arm_request_deadline(self, coordination_id: int,
                              pending: CoordinatorSession) -> None:
        pending.request_deadline = True
        self._node.emit(SetTimer(
            ("request", coordination_id),
            self._node.env.request_timeout_ms,
            label=f"request-deadline:{pending.kind}:{pending.key}",
        ))

    def on_replica_deadline(self, coordination_id: int, replica_id: str) -> None:
        """A contacted replica missed its deadline: extend or give up on it.

        Handoff outlives the client's answer: for a put whose quorum already
        completed, a timed-out primary is still chained to a fallback (or
        covered by a coordinator-held hint), so the write keeps moving toward
        all N replica homes.
        """
        node = self._node
        env = node.env
        pending = self.sessions.get(coordination_id)
        if pending is None:
            return
        pending.deadlines.pop(replica_id, None)
        if replica_id in pending.replied_nodes:
            self._cleanup_if_settled(coordination_id, pending)
            return
        pending.timed_out.append(replica_id)
        node.latency.suspect(replica_id)
        self._trace_replica_end(pending, replica_id, "timeout")
        if pending.reserve:
            # Untried primaries go out before any fallback is picked:
            # ``fallbacks_for`` may rank a same-DC non-primary ahead of an
            # untried cross-DC primary.
            self._ask_reserve(coordination_id, pending)
        # The primary this contact was (transitively) standing in for.
        primary = pending.standing_in.get(replica_id, replica_id)
        extend = env.quorum.sloppy and (pending.kind == "put" or not pending.done)
        if extend:
            # ``near`` prefers same-DC stand-ins on multi-DC topologies (the
            # per-DC sloppy quorum); without a topology it is a no-op.
            candidates = env.placement.fallbacks_for(pending.key,
                                                     exclude=pending.tried,
                                                     near=node.node_id)
            fallback = candidates[0] if candidates else None
            if fallback is not None:
                self._trace_point(pending, "fallback.promotion",
                                  primary=primary, fallback=fallback)
                self._send_replica_request(coordination_id, pending, fallback,
                                           hint_for=primary if pending.kind == "put" else None)
                return
        # Strict quorum (or ring exhausted): hold the write locally so the
        # primary still converges once it is reachable again.
        if (pending.kind == "put" and env.hinted_handoff_enabled
                and primary != node.node_id):
            self._store_hint_traced(pending, primary, pending.key,
                                    pending.new_state)
        if not pending.done:
            possible = len(pending.replies) + len(pending.deadlines)
            if possible < pending.needed:
                self._fail_request(coordination_id, reason="quorum_unreachable")
                return
        self._cleanup_if_settled(coordination_id, pending)

    def on_request_deadline(self, coordination_id: int) -> None:
        pending = self.sessions.get(coordination_id)
        if pending is None or pending.done:
            return
        # This timer just fired; forget it so _fail_request's timer sweep
        # does not also try to cancel it.
        pending.request_deadline = False
        self._fail_request(coordination_id, reason="request_timeout")

    def _fail_request(self, coordination_id: int, reason: str) -> None:
        """Answer the client with ERROR_REPLY and drop the coordination state.

        The coordinator's local write (and any hints already held) stay in
        place — a failed quorum write may still be partially applied, exactly
        as in Dynamo; anti-entropy and hint replay eventually spread it.
        """
        node = self._node
        pending = self.sessions.pop(coordination_id, None)
        if pending is None or pending.done:
            return
        pending.done = True
        self._cancel_pending_timers(coordination_id, pending)
        self._trace_end_session(pending, reason)
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=pending.client_address,
            msg_type=MessageType.ERROR_REPLY,
            payload={"key": pending.key, "operation": pending.kind,
                     "reason": reason, "coordinator": node.node_id},
            size_bytes=REQUEST_OVERHEAD_BYTES,
            request_id=pending.request_id,
        )))

    def _cancel_pending_timers(self, coordination_id: int,
                               pending: CoordinatorSession) -> None:
        for replica_id in pending.deadlines:
            self._node.emit(ClearTimer(("replica", coordination_id, replica_id)))
        pending.deadlines.clear()
        if pending.request_deadline:
            self._node.emit(ClearTimer(("request", coordination_id)))
            pending.request_deadline = False
        if pending.hedge:
            self._node.emit(ClearTimer(("hedge", coordination_id)))
            pending.hedge = False
        # Replicas no longer awaited (quorum met or request failed): close
        # their spans so the tree has no dangling opens.
        self._trace_end_replicas(pending, "cancelled")

    # ------------------------------------------------------------------ #
    # Replica-side acks
    # ------------------------------------------------------------------ #
    def on_replica_put_ack(self, message: Message) -> None:
        coordination_id = message.payload["coordination_id"]
        pending = self.sessions.get(coordination_id)
        if pending is None or pending.kind != "put":
            return
        if message.sender in pending.replied_nodes:
            return  # duplicate delivery
        self._observe_ack_latency(pending, message.sender)
        self._trace_replica_end(pending, message.sender, "ok")
        if pending.deadlines.pop(message.sender, None):
            self._node.emit(ClearTimer(("replica", coordination_id, message.sender)))
        pending.replied_nodes.append(message.sender)
        if pending.done:
            # A slow replica (or handoff fallback) acked after the quorum was
            # already answered — nothing left to do beyond its bookkeeping.
            self._cleanup_if_settled(coordination_id, pending)
            return
        pending.replies.append((message.sender, True))
        self._maybe_finish_put(coordination_id)

    def _maybe_finish_put(self, coordination_id: int) -> None:
        node = self._node
        pending = self.sessions.get(coordination_id)
        if pending is None or pending.done:
            return
        if len(pending.replies) < pending.needed:
            return
        pending.done = True
        # Only the overall request deadline is disarmed: replicas still
        # outstanding keep their deadlines, so a primary that never acks is
        # still handed off (fallback + hint) even though the client has its
        # answer — Dynamo keeps pushing the write toward all N homes.
        if pending.request_deadline:
            node.emit(ClearTimer(("request", coordination_id)))
            pending.request_deadline = False
        read = node.mechanism.read(node.store.state_of(pending.key))
        context_bytes = node.mechanism.context_bytes(read.context)
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=pending.client_address,
            msg_type=MessageType.PUT_REPLY,
            # The context and the origin dots of the siblings it covers: all
            # a session keeps of a reply.  No sibling body rides back — the
            # client holds the one it sent, and reading values is what GET
            # is for.
            payload={
                "key": pending.key,
                "coordinator": node.node_id,
                "mechanism_context": read.context,
                "read_dots": [s.origin_dot for s in read.siblings],
                "context_bytes": context_bytes,
            },
            size_bytes=context_bytes + REQUEST_OVERHEAD_BYTES,
            request_id=pending.request_id,
        )))
        # The session span closes at quorum; its reference stays on the
        # session so the handoff tail (later fallback promotions, hints)
        # still parents under it — children may outlive the parent span.
        self._trace_end_session(pending, "ok", acks=len(pending.replies))
        self._cleanup_if_settled(coordination_id, pending)

    def _cleanup_if_settled(self, coordination_id: int,
                            pending: CoordinatorSession) -> None:
        """Drop a finished coordination once no replica deadline is armed."""
        if pending.done and not pending.deadlines:
            self._trace_end_replicas(pending, "unawaited")
            self.sessions.pop(coordination_id, None)

    # ------------------------------------------------------------------ #
    # Read repair (coalesced pushes)
    # ------------------------------------------------------------------ #
    def queue_read_repair(self, target_id: str, key: str, state: Any) -> None:
        """Coalesce repair pushes: one READ_REPAIR message per target replica.

        A busy coordinator repairing many keys to the same stale replica pays
        one message (and one per-message overhead) per batch instead of one
        per key — the same amortisation MERKLE_KEY_STATES batching applies to
        sync transfers.  A full batch flushes immediately; otherwise a short
        coalescing window (:data:`READ_REPAIR_BATCH_MS`) gathers repairs from
        nearby reads.  Queued repairs hold the merged state observed at plan
        time; a newer repair for the same key simply replaces it (merges are
        idempotent, so the worst case of losing the race is a second repair
        on a later read).
        """
        node = self._node
        batch = self.repair_queue.setdefault(target_id, {})
        batch[key] = state
        if len(batch) >= SYNC_BATCH_SIZE:
            self.flush_read_repairs(target_id)
        elif not self._repair_flush_scheduled:
            self._repair_flush_scheduled = True
            node.emit(SetTimer(
                ("repair-flush",),
                READ_REPAIR_BATCH_MS,
                kind="task",
                label=f"read-repair-flush:{node.node_id}",
            ))

    def flush_all_read_repairs(self) -> None:
        self._repair_flush_scheduled = False
        if not self._node.env.is_registered(self._node.node_id):
            # The coordinator crashed while the coalescing window was open.
            # The queue is process memory, not disk: it dies with the crash
            # (read repair is opportunistic — a later read repairs again).
            self.repair_queue.clear()
            return
        for target_id in sorted(self.repair_queue):
            self.flush_read_repairs(target_id)

    def flush_read_repairs(self, target_id: str) -> None:
        node = self._node
        states = self.repair_queue.pop(target_id, None)
        if not states:
            return
        self.read_repair_stats.batches_sent += 1
        size = (sum(node.payload_state_size(key, state)
                    for key, state in states.items())
                + REQUEST_OVERHEAD_BYTES)
        node.emit(Send(Message(
            sender=node.node_id,
            receiver=target_id,
            msg_type=MessageType.READ_REPAIR,
            payload={"states": states},
            size_bytes=size,
        )))

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def on_recover(self) -> None:
        """Drop process-memory state that must not survive a crash."""
        self.repair_queue.clear()
