"""Client-side state machine: issue requests, fail over, record latencies.

A :class:`ClientProtocol` keeps a
:class:`~repro.kvstore.client.ClientSession` for causal bookkeeping and
records a :class:`RequestRecord` for every completed request.  Requests are
asynchronous: callers pass a callback that receives the
:class:`~repro.kvstore.client.GetResult` /
:class:`~repro.kvstore.client.PutResult` when the reply arrives (or ``None``
on failure).  Like the server-side machines it emits effects and arms named
timers — ``("client", request_id)`` is the per-attempt failover deadline.
Each in-flight request is one :class:`_Request`, filed under the ``msg_id``
of its current attempt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...network.message import Message, MessageType
from ..client import ClientSession, GetResult, PutResult
from .effects import ClearTimer, EffectList, Send, SetTimer
from .env import REQUEST_OVERHEAD_BYTES
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


@dataclass
class _Request:
    """One in-flight request: what a failover re-sends and a reply completes.

    ``started_at`` and ``message`` are the first attempt's; ``attempt``
    indexes ``candidates``; ``span`` is the root span, when tracing.
    """

    __slots__ = ("operation", "key", "callback", "started_at", "candidates",
                 "attempt", "message", "span")

    operation: str
    key: str
    callback: Optional[Callable]
    started_at: float
    candidates: List[str]
    attempt: int
    message: Message
    span: Optional[Tuple]


class ClientProtocol:
    """The client half of the protocol, as a transport-agnostic machine."""

    def __init__(self, client_id: str, env) -> None:
        self.client_id = client_id
        self.address = f"client:{client_id}"
        self.env = env
        self.session = ClientSession(client_id)
        self.records: List[RequestRecord] = []
        self.now = 0.0
        #: In-flight requests, by the ``msg_id`` of their current attempt.
        self._requests: Dict[int, _Request] = {}
        self._out: EffectList = []

    @property
    def tracer(self):
        """The env's span emitter (the inert :data:`NO_TRACER` by default)."""
        return self.env.tracer

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

        A failed request (coordinator candidates exhausted, or an
        ``ERROR_REPLY``) invokes the callback with ``None`` and records an
        ``ok=False`` :class:`RequestRecord`.
        """
        self.now = now
        self._issue(MessageType.COORDINATE_GET, "get", key,
                    payload={"key": key},
                    size_bytes=REQUEST_OVERHEAD_BYTES,
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
                    },
                    size_bytes=default_value_size(value) + context_bytes
                    + REQUEST_OVERHEAD_BYTES,
                    callback=callback)
        return self._drain()

    # ------------------------------------------------------------------ #
    # Issuing requests
    # ------------------------------------------------------------------ #
    def _issue(self, msg_type: MessageType, operation: str, key: str,
               payload: Dict[str, Any], size_bytes: int,
               callback: Optional[Callable]) -> None:
        """Send a request to the first coordinator candidate.

        The candidate list is the key's extended preference list, walked with
        a client-side deadline per attempt: an unresponsive coordinator is
        failed over, and exhausting the list records the request as failed.
        """
        candidates = self.env.placement.extended_preference_list(key)
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
        self._send(message, _Request(operation, key, callback, self.now,
                                     candidates, 0, message, span))

    def _send(self, message: Message, request: _Request) -> None:
        """File ``request`` under ``message``'s id, arm that attempt's
        deadline and send it."""
        self._requests[message.msg_id] = request
        self.emit(SetTimer(("client", message.msg_id),
                           self.env.client_timeout_ms))
        self.emit(Send(message))

    def _on_client_deadline(self, request_id: int) -> None:
        """No reply at all: fail over to the next candidate, or give up."""
        request = self._requests.get(request_id)
        if request is None:
            return  # a reply won the race
        attempt = request.attempt + 1
        candidates = request.candidates
        if attempt >= len(candidates):
            self._finish_failed(request_id, reason="timeout")
            return
        # Re-send the same logical request (same payload/sibling) to the next
        # candidate coordinator.  At-least-once caveat: if the silent
        # coordinator actually applied the put and only its reply was lost,
        # the retry's coordinator mints a second server-side dot over the
        # same causal past, and the value can survive as a duplicate sibling
        # — the standard Dynamo client-retry trade-off; nothing is lost.
        span = request.span
        if span is not None and self.tracer.enabled:
            self.tracer.point("client.failover", self.address, self.now,
                              trace=span[0], parent=span[1],
                              abandoned=candidates[attempt - 1],
                              next=candidates[attempt])
        del self._requests[request_id]
        request.attempt = attempt
        first = request.message
        self._send(Message(
            sender=self.address,
            receiver=candidates[attempt],
            msg_type=first.msg_type,
            payload=first.payload,
            size_bytes=first.size_bytes,
        ), request)

    def _take(self, request_id: int, status: str) -> Optional[_Request]:
        """Stop tracking an answered or failed request: clear its deadline
        (a no-op once it fired) and end its root span."""
        request = self._requests.pop(request_id, None)
        if request is not None:
            self.emit(ClearTimer(("client", request_id)))
            if request.span is not None and self.tracer.enabled:
                self.tracer.end(request.span, self.now, status=status)
        return request

    def _finish(self, request: _Request, result: Any, **fields: Any) -> None:
        """Record ``request`` as answered with ``result`` (or failed, when it
        is ``None``) and hand ``result`` to its callback."""
        self.records.append(RequestRecord(
            operation=request.operation,
            key=request.key,
            client_id=self.client_id,
            started_at=request.started_at,
            finished_at=self.now,
            ok=result is not None,
            **fields,
        ))
        if request.callback is not None:
            request.callback(result)

    def _finish_failed(self, request_id: int, reason: str, coordinator: str = "") -> None:
        request = self._take(request_id, status=reason)
        if request is not None:
            self._finish(request, None, coordinator=coordinator, error=reason)

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
        request = self._take(message.request_id, status="ok")
        if request is None:
            return
        payload = message.payload
        siblings = payload["siblings"]
        context = self.session.absorb(
            payload["key"], payload["mechanism_context"],
            [sibling.origin_dot for sibling in siblings],
            self.env.mechanism.name)
        result = GetResult(
            key=payload["key"],
            values=[s.value for s in siblings],
            siblings=list(siblings),
            context=context,
        )
        self._finish(request, result,
                     coordinator=payload["coordinator"],
                     sibling_count=len(siblings),
                     context_bytes=payload.get("context_bytes", 0))

    def _on_put_reply(self, message: Message) -> None:
        # The origin dots the reply's context covers, which the coordinator
        # noted in the write log (none across processes).  Taken before the
        # request is matched, so a reply that lost the race to a failover or
        # a duplicate does not stay in the log.
        read_dots = self.env.write_log.take_reply(message.msg_id)
        request = self._take(message.request_id, status="ok")
        if request is None:
            return
        payload = message.payload
        # The put reply carries the post-write context, not the sibling
        # bodies; absorbing it keeps the session able to chain further
        # writes.  The sibling this request wrote is the one the client sent.
        context = self.session.absorb(
            payload["key"], payload["mechanism_context"], read_dots,
            self.env.mechanism.name)
        result = PutResult(
            key=payload["key"],
            context=context,
            coordinator=payload["coordinator"],
            sibling=request.message.payload["sibling"],
        )
        self._finish(request, result,
                     coordinator=payload["coordinator"],
                     sibling_count=len(read_dots),
                     context_bytes=payload.get("context_bytes", 0))
