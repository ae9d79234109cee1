"""Client-side state machine: issue requests, fail over, record latencies.

A :class:`ClientProtocol` keeps a
:class:`~repro.kvstore.client.ClientSession` for causal bookkeeping and
records a :class:`RequestRecord` for every completed request.  Requests are
asynchronous: callers pass a callback that receives the
:class:`~repro.kvstore.client.GetResult` /
:class:`~repro.kvstore.client.PutResult` when the reply arrives (or ``None``
on failure).  Like the server-side machines it emits effects and arms named
timers — ``("client", request_id)`` is the per-attempt failover deadline of
async request mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ...network.message import Message, MessageType
from ...obs.trace import NO_TRACER
from ..client import ClientSession, GetResult, PutResult
from .effects import ClearTimer, EffectList, Send, SetTimer
from .util import default_value_size


@dataclass
class RequestRecord:
    """One completed (or failed) client request, for latency analysis."""

    operation: str
    key: str
    client_id: str
    started_at: float
    finished_at: float
    ok: bool
    coordinator: str = ""
    sibling_count: int = 0
    context_bytes: int = 0
    #: Failure reason for ``ok=False`` records ("timeout", "quorum_unreachable", ...).
    error: str = ""

    @property
    def latency_ms(self) -> float:
        """End-to-end latency in milliseconds (simulated or wall-clock)."""
        return self.finished_at - self.started_at


class ClientProtocol:
    """The client half of the protocol, as a transport-agnostic machine."""

    def __init__(self, client_id: str, env) -> None:
        self.client_id = client_id
        self.address = f"client:{client_id}"
        self.env = env
        self.session = ClientSession(client_id)
        self.records: List[RequestRecord] = []
        self.now = 0.0
        self._callbacks: Dict[int, Optional[Callable]] = {}
        self._started: Dict[int, float] = {}
        self._operations: Dict[int, Dict[str, Any]] = {}
        self._deadlines: Dict[int, bool] = {}
        self._out: EffectList = []

    @property
    def tracer(self):
        """The env's span emitter (the inert :data:`NO_TRACER` by default)."""
        return getattr(self.env, "tracer", NO_TRACER)

    # ------------------------------------------------------------------ #
    # Effect plumbing
    # ------------------------------------------------------------------ #
    def emit(self, effect) -> None:
        self._out.append(effect)

    def _drain(self) -> EffectList:
        effects, self._out = self._out, []
        return effects

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def on_message(self, message: Message, now: float) -> EffectList:
        """Entry point for replies from coordinators."""
        self.now = now
        if message.msg_type is MessageType.GET_REPLY:
            self._on_get_reply(message)
        elif message.msg_type is MessageType.PUT_REPLY:
            self._on_put_reply(message)
        elif message.msg_type is MessageType.ERROR_REPLY:
            self._on_error_reply(message)
        return self._drain()

    def on_timer(self, timer_id, now: float) -> EffectList:
        """Entry point for fired timers (client failover deadlines)."""
        self.now = now
        if timer_id[0] == "client":
            self._on_client_deadline(timer_id[1])
        return self._drain()

    def get(self, key: str, callback: Optional[Callable[[GetResult], None]],
            now: float) -> EffectList:
        """Issue a GET for ``key``; ``callback`` fires when the reply arrives.

        In async request mode a failed request (coordinator candidates
        exhausted, or an ``ERROR_REPLY``) invokes the callback with ``None``
        and records an ``ok=False`` :class:`RequestRecord`.
        """
        self.now = now
        self._issue(MessageType.COORDINATE_GET, "get", key,
                    payload={"key": key},
                    size_bytes=self.env.request_overhead_bytes,
                    callback=callback)
        return self._drain()

    def put(self, key: str, value: Any,
            callback: Optional[Callable[[PutResult], None]],
            now: float, use_context: bool = True) -> EffectList:
        """Issue a PUT for ``key``; ``callback`` fires when the reply arrives."""
        self.now = now
        context = self.session.last_context(key) if use_context else None
        sibling = self.session.prepare_write(key, value)
        # The oracle's side channel: this is the one place that holds both
        # the context and a write log (the frame carries neither).
        self.env.write_log.report_parents(
            sibling.origin_dot, context.read_dots if context is not None else ())
        context_bytes = (
            self.env.mechanism.context_bytes(context.mechanism_context)
            if context is not None else 0
        )
        self._issue(MessageType.COORDINATE_PUT, "put", key,
                    payload={
                        "key": key,
                        "sibling": sibling,
                        "context": context,
                        "client_id": self.client_id,
                    },
                    size_bytes=default_value_size(value) + context_bytes
                    + self.env.request_overhead_bytes,
                    callback=callback)
        return self._drain()

    # ------------------------------------------------------------------ #
    # Issuing requests
    # ------------------------------------------------------------------ #
    def _issue(self, msg_type: MessageType, operation: str, key: str,
               payload: Dict[str, Any], size_bytes: int,
               callback: Optional[Callable]) -> None:
        """Send a request to the first coordinator candidate.

        In membership mode the single candidate is the placement service's
        coordinator (first *active* replica).  In async mode the candidate
        list is the full extended preference list, walked with a client-side
        deadline per attempt: an unresponsive coordinator is failed over, and
        exhausting the list records the request as failed.
        """
        if self.env.request_mode == "async":
            candidates = self.env.placement.extended_preference_list(key)
        else:
            candidates = [self.env.placement.coordinator_for(key)]
        message = Message(
            sender=self.address,
            receiver=candidates[0],
            msg_type=msg_type,
            payload=payload,
            size_bytes=size_bytes,
        )
        span = None
        tracer = self.tracer
        if tracer.enabled:
            # The request's root span; the coordinator links under it via the
            # inert ``payload["trace"]`` context, so one trace id covers the
            # whole request across nodes (and across client failovers).
            span = tracer.start(
                f"client.{operation}", self.address, self.now,
                trace=f"{self.address}#{message.msg_id}",
                key=key, coordinator=candidates[0])
            payload["trace"] = span
        self._register(message, operation, key, callback)
        self._operations[message.msg_id].update({
            "candidates": candidates,
            "attempt": 0,
            "msg_type": msg_type,
            "payload": payload,
            "size_bytes": size_bytes,
            "span": span,
        })
        if self.env.request_mode == "async":
            self._arm_client_deadline(message.msg_id)
        self.emit(Send(message))

    def _register(self, message: Message, operation: str, key: str,
                  callback: Optional[Callable]) -> None:
        self._callbacks[message.msg_id] = callback
        self._started[message.msg_id] = self.now
        self._operations[message.msg_id] = {"operation": operation, "key": key}

    def _arm_client_deadline(self, request_id: int) -> None:
        self._deadlines[request_id] = True
        self.emit(SetTimer(
            ("client", request_id),
            self.env.client_timeout_ms,
            label=f"client-deadline:{self.client_id}",
        ))

    def _on_client_deadline(self, request_id: int) -> None:
        """No reply at all: fail over to the next candidate, or give up."""
        info = self._operations.get(request_id)
        self._deadlines.pop(request_id, None)
        if info is None:
            return  # a reply won the race
        attempt = info["attempt"] + 1
        candidates = info["candidates"]
        if attempt >= len(candidates):
            self._finish_failed(request_id, reason="timeout")
            return
        # Re-send the same logical request (same payload/sibling) to the next
        # candidate coordinator.  At-least-once caveat: if the silent
        # coordinator actually applied the put and only its reply was lost,
        # the retry's coordinator mints a second server-side dot over the
        # same causal past, and the value can survive as a duplicate sibling
        # — the standard Dynamo client-retry trade-off; nothing is lost.
        span = info.get("span")
        if span is not None and self.tracer.enabled:
            self.tracer.point("client.failover", self.address, self.now,
                              trace=span[0], parent=span[1],
                              abandoned=candidates[attempt - 1],
                              next=candidates[attempt])
        self._operations.pop(request_id, None)
        callback = self._callbacks.pop(request_id, None)
        started = self._started.pop(request_id, self.now)
        message = Message(
            sender=self.address,
            receiver=candidates[attempt],
            msg_type=info["msg_type"],
            payload=info["payload"],
            size_bytes=info["size_bytes"],
        )
        self._callbacks[message.msg_id] = callback
        self._started[message.msg_id] = started
        retried = dict(info)
        retried["attempt"] = attempt
        self._operations[message.msg_id] = retried
        self._arm_client_deadline(message.msg_id)
        self.emit(Send(message))

    def _finish_failed(self, request_id: int, reason: str, coordinator: str = "") -> None:
        info = self._operations.pop(request_id, None)
        if info is None:
            return
        callback = self._callbacks.pop(request_id, None)
        started = self._started.pop(request_id, self.now)
        if self._deadlines.pop(request_id, None):
            self.emit(ClearTimer(("client", request_id)))
        self._end_root_span(info, status=reason)
        self.records.append(RequestRecord(
            operation=info["operation"],
            key=info["key"],
            client_id=self.client_id,
            started_at=started,
            finished_at=self.now,
            ok=False,
            coordinator=coordinator,
            error=reason,
        ))
        if callback is not None:
            callback(None)

    def _end_root_span(self, info: Optional[Dict[str, Any]],
                       status: str) -> None:
        span = info.get("span") if info else None
        if span is not None and self.tracer.enabled:
            self.tracer.end(span, self.now, status=status)

    def _on_error_reply(self, message: Message) -> None:
        """The coordinator gave up (quorum infeasible / request deadline)."""
        self._finish_failed(
            message.request_id,
            reason=message.payload.get("reason", "error"),
            coordinator=message.payload.get("coordinator", ""),
        )

    # ------------------------------------------------------------------ #
    # Handling replies
    # ------------------------------------------------------------------ #
    def _on_get_reply(self, message: Message) -> None:
        request_id = message.request_id
        info = self._operations.pop(request_id, None)
        if info is None:
            return
        if self._deadlines.pop(request_id, None):
            self.emit(ClearTimer(("client", request_id)))
        self._end_root_span(info, status="ok")
        callback = self._callbacks.pop(request_id, None)
        started = self._started.pop(request_id, self.now)
        key = message.payload["key"]
        siblings = message.payload["siblings"]

        context = self.session.absorb(
            key, message.payload["mechanism_context"],
            [sibling.origin_dot for sibling in siblings],
            self.env.mechanism.name)
        result = GetResult(
            key=key,
            values=[s.value for s in siblings],
            siblings=list(siblings),
            context=context,
        )
        self.records.append(RequestRecord(
            operation="get",
            key=key,
            client_id=self.client_id,
            started_at=started,
            finished_at=self.now,
            ok=True,
            coordinator=message.payload["coordinator"],
            sibling_count=len(siblings),
            context_bytes=message.payload.get("context_bytes", 0),
        ))
        if callback is not None:
            callback(result)

    def _on_put_reply(self, message: Message) -> None:
        request_id = message.request_id
        info = self._operations.pop(request_id, None)
        if info is None:
            return
        if self._deadlines.pop(request_id, None):
            self.emit(ClearTimer(("client", request_id)))
        self._end_root_span(info, status="ok")
        callback = self._callbacks.pop(request_id, None)
        started = self._started.pop(request_id, self.now)
        key = message.payload["key"]

        # The put reply carries the post-write context and the origin dots
        # it covers, not the sibling bodies; absorbing it keeps the session
        # able to chain further writes.  The sibling this request wrote is
        # the one the client sent.
        read_dots = message.payload["read_dots"]
        context = self.session.absorb(
            key, message.payload["mechanism_context"], read_dots,
            self.env.mechanism.name)
        result = PutResult(
            key=key,
            context=context,
            coordinator=message.payload["coordinator"],
            sibling=info["payload"]["sibling"],
        )
        self.records.append(RequestRecord(
            operation="put",
            key=key,
            client_id=self.client_id,
            started_at=started,
            finished_at=self.now,
            ok=True,
            coordinator=message.payload["coordinator"],
            sibling_count=len(read_dots),
            context_bytes=message.payload.get("context_bytes", 0),
        ))
        if callback is not None:
            callback(result)
