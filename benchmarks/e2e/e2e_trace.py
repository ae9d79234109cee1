"""Instrumentation ``bench_e2e`` installs from outside the program.

Nothing under ``src/`` knows about the benchmark: every number is taken by
wrapping public functions and methods of the live modules and classes, and
every wrapper is removed again when the run ends (:class:`Patches`).

* :func:`count_frame_bytes` is the **only** thing an untraced run installs: a
  wrapper around ``repro.network.asyncio_transport.frame_message`` that adds
  ``len(frame)`` to a counter — real bytes written to sockets, not the
  hand-modelled ``Message.size_bytes``.
* :class:`Tracer` and :func:`install_tracer` are the traced run: one span
  (name, start, end, parent, request id) per call into each layer, kept in
  memory and written as JSONL when the run ends.  A layer's *self time* is
  its span's duration minus the durations of its direct child spans, so self
  times of all spans add up to exactly the time spent under root spans, and
  ``loop.residual`` (traced wall time minus that sum) is what the event
  loop, streams, syscalls and the driver itself cost.

The traced functions are all synchronous and run on one thread, so the open
spans form a stack and a child always closes before its parent.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

_MISSING = object()


class Patches:
    """Attribute replacements that :meth:`undo` restores in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.name = make(current value)``, remembering the original."""
        original = getattr(owner, name)
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, name)   # was inherited, not the owner's own
            else:
                setattr(owner, name, previous)


class FrameBytes:
    """Running total of real frame bytes handed to sockets."""

    def __init__(self) -> None:
        self.total = 0


@contextmanager
def count_frame_bytes() -> Iterator[FrameBytes]:
    """Count ``len(frame)`` of every frame any endpoint writes.

    ``AsyncioEndpoint.send`` calls the module-level ``frame_message`` name of
    ``asyncio_transport``, so replacing that attribute sees every frame —
    client requests, replication, read repair, hints and anti-entropy alike.
    """
    from repro.network import asyncio_transport

    counter = FrameBytes()
    patches = Patches()

    def counting(original):
        def frame_message(message):
            frame = original(message)
            counter.total += len(frame)
            return frame
        return frame_message

    patches.replace(asyncio_transport, "frame_message", counting)
    try:
        yield counter
    finally:
        patches.undo()


class Tracer:
    """In-memory span recorder; inert (one attribute test) until ``active``."""

    def __init__(self) -> None:
        self.active = False
        #: One list per span: [name, start_s, end_s, parent_index, request_id].
        self.spans: List[list] = []
        self._stack: List[int] = []
        # Per-frame facts recorded where the frame is made (traced runs only).
        self.frame_sizes: List[int] = []
        self.modelled_bytes = 0
        self.sync_frame_bytes = 0

    def wrap(self, name: Any, original: Callable,
             request_id: Optional[Callable[[tuple], Any]] = None,
             result_request_id: bool = False) -> Callable:
        """Wrap ``original`` so each call while active records one span.

        ``name`` is the span name or a function of the call's positional
        arguments returning it; ``request_id`` extracts the request id from
        the arguments, ``result_request_id`` reads it off the returned
        message instead (frame decode only learns it by decoding).
        """
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1,
                    request_id(args) if request_id is not None else None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if result_request_id:
                span[4] = result.request_id
            return result

        return traced

    def self_times(self) -> Dict[str, List[float]]:
        """Span name -> [number of spans, total self seconds]."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        totals: Dict[str, List[float]] = {}
        for span, seconds in zip(self.spans, own):
            entry = totals.setdefault(span[0], [0, 0.0])
            entry[0] += 1
            entry[1] += seconds
        return totals

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in start order; times in microseconds
        from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                    "parent": parent if parent >= 0 else None,
                    "request_id": rid,
                }) + "\n")


def _message_request_id(args: tuple) -> Any:
    """Request id of the Message passed as the first non-self argument."""
    return args[1].request_id


@contextmanager
def install_tracer(mechanism: Any) -> Iterator[Tracer]:
    """Wrap every layer boundary; spans are recorded while ``tracer.active``.

    Classes are patched (not instances) so objects the cluster creates later
    — endpoints, runners, per-vnode indexes, the storage a ``wipe()``
    replaces — are covered without the benchmark chasing them.
    """
    from repro.kvstore.merkle_index import MerkleIndex, VnodeIndexSet
    from repro.kvstore.protocol import (
        SYNC_MESSAGE_TYPES, ClientProtocol, EffectRunner, ProtocolNode)
    from repro.kvstore.server import StorageNode
    from repro.network import asyncio_transport, wire
    from repro.network.asyncio_transport import AsyncioEndpoint
    from repro.network.message import MessageType

    tracer = Tracer()
    patches = Patches()

    def span(owner, attribute, name, **options):
        patches.replace(owner, attribute,
                        lambda original: tracer.wrap(name, original, **options))

    # wire: decode on the reader side, encode + framing on the sender side.
    span(wire, "decode_message", "wire.decode", result_request_id=True)
    sync_types = set(SYNC_MESSAGE_TYPES)

    def framing(original):
        traced = tracer.wrap("wire.encode", original,
                             request_id=lambda args: args[0].request_id)

        def frame_message(message):
            frame = traced(message)
            if tracer.active:
                tracer.frame_sizes.append(len(frame))
                tracer.modelled_bytes += message.size_bytes
                if message.msg_type.value in sync_types:
                    tracer.sync_frame_bytes += len(frame)
            return frame
        return frame_message

    # Installed on top of the byte counter, which keeps counting.
    patches.replace(asyncio_transport, "frame_message", framing)

    span(AsyncioEndpoint, "send", "asyncio_transport.send",
         request_id=_message_request_id)
    span(EffectRunner, "run", "effects.run")

    # protocol: server-side handling bucketed by message-type family.
    family = {}
    for message_type in MessageType:
        value = message_type.value
        if value in sync_types:
            family[message_type] = "protocol.anti_entropy"
        elif value.startswith("hint_"):
            family[message_type] = "protocol.hints"
        elif value.startswith("coordinate_") or value in (
                "replica_get_reply", "replica_put_ack"):
            family[message_type] = "protocol.coordinator"
        else:
            family[message_type] = "protocol.replica"
    span(ProtocolNode, "on_message", lambda args: family[args[1].msg_type],
         request_id=_message_request_id)
    span(ProtocolNode, "on_timer", "protocol.timer")
    span(ProtocolNode, "start_merkle_sync_with", "protocol.anti_entropy")
    span(ProtocolNode, "replay_hints", "protocol.hints")
    for attribute in ("on_message", "on_timer", "get", "put"):
        span(ClientProtocol, attribute, "protocol.client")

    # storage: the replica-local steps (self time excludes clocks + index).
    # (the protocol reads through state_of; local_read is the client-facing
    # variant — both are "read this key's state off the replica".)
    span(StorageNode, "local_read", "storage.local_read")
    span(StorageNode, "state_of", "storage.local_read")
    span(StorageNode, "local_write", "storage.local_write")
    span(StorageNode, "local_merge", "storage.local_merge")
    span(StorageNode, "ingest_handoff", "storage.local_merge")

    # clocks: the one mechanism object every server shares.
    for attribute in ("read", "write", "merge"):
        span(type(mechanism), attribute, f"clocks.{attribute}")

    # merkle_index: write-time upkeep vs per-exchange snapshots.
    span(MerkleIndex, "on_state_changed", "merkle_index.update")
    span(MerkleIndex, "flush", "merkle_index.update")
    span(MerkleIndex, "snapshot", "merkle_index.snapshot")
    span(VnodeIndexSet, "snapshot", "merkle_index.snapshot")

    try:
        yield tracer
    finally:
        tracer.active = False
        patches.undo()


#: Every span name; a span's self time is reported as ``<name>_us_per_op``.
SPAN_NAMES = (
    "wire.decode", "wire.encode", "asyncio_transport.send", "effects.run",
    "protocol.coordinator", "protocol.replica", "protocol.anti_entropy",
    "protocol.hints", "protocol.client", "protocol.timer",
    "storage.local_read", "storage.local_write", "storage.local_merge",
    "clocks.read", "clocks.write", "clocks.merge",
    "merkle_index.update", "merkle_index.snapshot",
)


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def latency_metrics(puts_ms: List[float], gets_ms: List[float]) -> Dict[str, float]:
    """The request-latency metrics over a pool of per-op latencies.

    Taken over the ops of *all* repetitions of a run pooled (each already
    scaled by its repetition's machine slowdown).  The tail metric is the mean
    of the slowest tenth rather than a single high percentile: a fixed
    percentile sits on the edge of the stall plateau for one workload or
    another (p99 on 8 hot keys, p95 on 2000 cold ones) and then jumps by 25 %
    from seed to seed, which no bound survives.
    """
    ordered = sorted(puts_ms + gets_ms)
    slowest = ordered[-max(1, len(ordered) // 10):]
    return {"put_p50_ms": statistics.median(puts_ms),
            "get_p50_ms": statistics.median(gets_ms),
            "slowest10_mean_ms": statistics.mean(slowest)}
