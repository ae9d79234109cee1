"""Real-socket transport: the asyncio backend of the protocol machines.

Where the simulator delivers :class:`~repro.network.message.Message` objects
through a virtual-time event queue, an :class:`AsyncioEndpoint` puts the same
messages on actual Unix-domain sockets, using the length-prefixed framing of
:mod:`repro.network.wire`.  One endpoint is one addressable node
(a storage server or a client): it listens on its own address for inbound
frames and lazily opens one persistent outbound connection per peer it sends
to, so the socket topology mirrors the message-passing model the protocol
was written against.

Everything runs on one event loop, and a frame is handled in the callback
that received it: every accepted connection is an
:class:`asyncio.BufferedProtocol` that owns both the chunk the socket is read
into and its receive buffer, and its ``data_received`` cuts each complete
frame off that buffer (:func:`~repro.network.wire.split_frames`), decodes it
and hands the message to the node's handler synchronously, exactly like the
simulator's delivery callback — no stream reader, no task per connection, no
allocation per read.
The clock is ``loop.time()`` — the state machines never notice they moved
from virtual milliseconds to wall-clock milliseconds.  Timers do not each take
a slot in the loop's heap: every timer length has one FIFO queue of timers
(:class:`_TimerQueue`) and one ``loop.call_at`` armed for its head.  Every
timer the machines arm on sockets has one of a handful of constant lengths,
so :meth:`AsyncioEndpoint.schedule` and :meth:`~AsyncioEndpoint.cancel` are
an append and a flag, and the loop's heap holds about one handle per length.
The loop clock is monotonic, so timers of one length fall due in the order
they were armed, and firing a queue's due prefix in order is exact.  The
endpoint does not tell deadlines from tasks: the runner that arms them counts
deadlines in ``stats``.

Failure semantics match the simulated transport's stance: a send toward an
address nobody listens on, or over a connection that breaks, is a counted,
silent drop (``stats.dropped_unknown_destination``).  The protocol already
tolerates lost messages — deadlines, read repair and anti-entropy exist for
exactly that — so the backend never retries or errors a send.  A peer that
closed its end (it restarted, or dropped the connection on a bad frame) closes
the outbound transport — the protocol default on EOF — which the next send
notices: it forgets the dead connection and redials.  What waits toward one
peer is bounded: past :data:`MAX_QUEUED_BYTES` in the transport's write buffer
(a peer that stopped reading) or in the connect backlog, a frame is a counted
drop too (``stats.dropped_backpressure``).

Each endpoint owns the :class:`~repro.network.wire.RecordTable` its inbound
frames are decoded against, so a clock or sibling record this node has already
decoded — on any connection — is not parsed again (``stats.record_hits`` /
``stats.record_misses``).

Inbound faults are contained and counted the same way.  A frame that does not
decode (``stats.decode_errors``) closes the one connection it arrived on — a
byte stream that lost framing cannot be resynchronised — while the listener
and every other connection keep serving.  An exception out of the node's handler
(``stats.handler_errors``) is logged with its traceback and costs that one
message; the connection and the endpoint keep serving.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from ..core.exceptions import SerializationError
from . import wire
from .base import ProtocolTransport
from .message import Message
from .transport import TransportStats
from .wire import MAX_FRAME_BYTES, RecordTable, frame_message, split_frames

#: Where an endpoint listens: the path of its Unix-domain socket.
Address = str

MessageHandler = Callable[[Message], None]

#: Most bytes an endpoint lets wait toward one peer — in the transport's write
#: buffer or, while dialling, in the connect backlog — before it sheds frames.
MAX_QUEUED_BYTES = 2 * MAX_FRAME_BYTES

#: Bytes one socket read can take.  Every inbound connection keeps a chunk of
#: its own, so it starts small — request frames are a few hundred bytes — and
#: doubles each time a read fills it, which only a bulk transfer does.
MIN_READ_CHUNK_BYTES = 4 * 1024
MAX_READ_CHUNK_BYTES = 256 * 1024

logger = logging.getLogger(__name__)


#: Resolution of the loop clock.  asyncio runs a ``call_at`` handle once it is
#: due within this, so a queue is armed this much after its head's due time:
#: the handle then never runs before the head is due, and never has to re-arm
#: for a head it woke up a hair too early for.
CLOCK_RESOLUTION_S = time.get_clock_info("monotonic").resolution


class _Timer:
    """One armed timer: the handle :meth:`AsyncioEndpoint.schedule` returns."""

    __slots__ = ("due", "callback", "cancelled")

    def __init__(self, due: float, callback: Callable[[], None]) -> None:
        self.due = due
        self.callback = callback
        self.cancelled = False


class _TimerQueue:
    """The armed timers of one length, in arming (= due) order, and the one
    loop handle armed for the head.

    Cancelling a timer only flags it; cancelled timers leave from the head,
    when a timer is armed or the queue expires.  What a live head holds back
    was armed within one timer length after it, so a queue holds at most
    arm rate × timer length entries — and about as many as are in flight
    while timers are cancelled roughly in the order they were armed, as
    request deadlines are.
    """

    __slots__ = ("timers", "handle")

    def __init__(self) -> None:
        self.timers: Deque[_Timer] = deque()
        #: The loop handle armed for the head; also set while the queue
        #: expires, so a callback that arms a timer of this length adds no
        #: second one.
        self.handle: Optional[asyncio.TimerHandle] = None


class _Peer(asyncio.Protocol):
    """One lazily-connected outbound connection to a fixed peer address.

    Nothing is ever read from it.  It is its own connection's protocol for the
    default ``eof_received``: a peer that closes its end closes the transport,
    so ``is_closing()`` is how :meth:`AsyncioEndpoint.send` sees a dead peer
    (``write`` on a lost transport does not raise).
    """

    def __init__(self, address: Address) -> None:
        self.address = address
        self.transport: Optional[asyncio.Transport] = None
        self.connect_task: Optional[asyncio.Task] = None
        #: ``(frame, message type, modelled size)`` of every frame queued
        #: while the connection is still being established, and their bytes.
        self.backlog: List[Tuple[bytes, str, int]] = []
        self.backlog_bytes = 0


class _Inbound(asyncio.BufferedProtocol):
    """One accepted connection: owns its receive buffer, cuts frames off it
    and decodes and dispatches each in the callback that received it.

    The socket is read into one chunk the connection keeps for its lifetime
    (``get_buffer`` / ``buffer_updated``), so a read allocates nothing.  A
    plain ``Protocol`` is handed a fresh 256 KiB ``bytes`` per read, which
    malloc serves with ``mmap`` — two page faults and three system calls per
    wake-up whenever nothing else in the process has lately freed a block
    that large, i.e. request latency that depends on what ran before.
    """

    def __init__(self, endpoint: "AsyncioEndpoint") -> None:
        self.endpoint = endpoint
        self.buffer = bytearray()
        self._chunk = memoryview(bytearray(MIN_READ_CHUNK_BYTES))
        self.transport: Optional[asyncio.Transport] = None

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._chunk

    def buffer_updated(self, nbytes: int) -> None:
        chunk = self._chunk
        self.data_received(chunk[:nbytes])
        if nbytes == len(chunk) < MAX_READ_CHUNK_BYTES:
            self._chunk = memoryview(bytearray(2 * nbytes))

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        if self.endpoint._closed:       # accepted just as the endpoint closed
            transport.close()
        else:
            self.endpoint._inbound.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # The peer closed (or died), possibly mid-frame; it will redial if it
        # needs us.
        self.endpoint._inbound.discard(self.transport)

    def data_received(self, data: Union[bytes, memoryview]) -> None:
        endpoint = self.endpoint
        stats, records = endpoint.stats, endpoint._records
        stats.socket_reads += 1
        self.buffer += data
        try:
            for body in split_frames(self.buffer):
                # Looked up on the module at call time: a tracer that wraps
                # ``wire.decode_message`` sees every inbound frame.
                endpoint._deliver(wire.decode_message(body, records))
        except SerializationError as exc:
            stats.decode_errors += 1
            logger.warning("%s: closing connection on undecodable frame: %s",
                           endpoint.node_id, exc)
            self.transport.close()
        stats.record_hits = records.hits
        stats.record_misses = records.misses


class AsyncioEndpoint(ProtocolTransport):
    """One addressable node of the asyncio backend.

    Parameters
    ----------
    node_id:
        The address the protocol knows this node by (``"A"``,
        ``"client:c1"``, ...).
    address_book:
        Shared map from node id to socket path for every node this one
        may talk to (including itself).  Ids absent from the book are
        undeliverable — counted drops, like the simulator's unregistered
        receivers.
    handler:
        Called synchronously with every decoded inbound message.

    The event loop is the one running at :meth:`start` (or at the first
    send or timer, for an endpoint that never listens).
    """

    def __init__(self,
                 node_id: str,
                 address_book: Dict[str, Address],
                 handler: Optional[MessageHandler] = None) -> None:
        self.node_id = node_id
        self.address_book = address_book
        self.handler = handler
        self.stats = TransportStats()
        self._records = RecordTable()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._peers: Dict[str, _Peer] = {}
        self._inbound: Set[asyncio.Transport] = set()
        #: Timer length (ms) → the queue of armed timers of that length.
        self._timers: Dict[float, _TimerQueue] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listen socket and start accepting inbound connections."""
        loop = self._loop = asyncio.get_running_loop()
        self._server = await loop.create_unix_server(
            lambda: _Inbound(self), path=self.address_book[self.node_id])

    async def close(self) -> None:
        """Stop listening, drop every connection, inbound and outbound, and
        disarm every timer."""
        self._closed = True
        for queue in self._timers.values():
            if queue.handle is not None:
                queue.handle.cancel()
        self._timers.clear()
        # Inbound connections first: since 3.12 ``wait_closed`` waits for them.
        for transport in self._inbound:
            transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for peer in self._peers.values():
            if peer.connect_task is not None:
                peer.connect_task.cancel()
            if peer.transport is not None:
                peer.transport.close()
        self._peers.clear()

    # ------------------------------------------------------------------ #
    # Inbound
    # ------------------------------------------------------------------ #
    def _deliver(self, message: Message) -> None:
        self.stats.record_delivered(message.msg_type.value, message.size_bytes)
        if self.handler is not None:
            try:
                self.handler(message)
            except Exception:
                # A handler bug costs this one message: nothing may escape
                # ``data_received``, or asyncio tears the connection down.
                self.stats.handler_errors += 1
                logger.exception(
                    "%s: handler failed on %s from %s", self.node_id,
                    message.msg_type.value, message.sender)

    # ------------------------------------------------------------------ #
    # Outbound (the transport contract)
    # ------------------------------------------------------------------ #
    def send(self, message: Message) -> None:
        """Frame and write toward the receiver's endpoint, best-effort."""
        msg_type = message.msg_type.value
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += message.size_bytes
        stats.record_type(msg_type, message.size_bytes)
        if self._closed or message.receiver not in self.address_book:
            self._drop(msg_type, message.size_bytes)
            return
        peer = self._peers.get(message.receiver)
        if peer is None:
            peer = _Peer(self.address_book[message.receiver])
            self._peers[message.receiver] = peer
        transport = peer.transport
        if transport is not None and transport.is_closing():
            # The peer closed its end: forget the connection, queue, redial.
            transport = peer.transport = None
        queued = (peer.backlog_bytes if transport is None
                  else transport.get_write_buffer_size())
        if queued > MAX_QUEUED_BYTES:
            # The peer is not reading (or not answering the dial): shed.
            stats.dropped_backpressure += 1
            stats.record_dropped(msg_type, message.size_bytes)
            return
        frame = frame_message(message)
        if transport is not None:
            transport.write(frame)
            return
        peer.backlog.append((frame, msg_type, message.size_bytes))
        peer.backlog_bytes += len(frame)
        if peer.connect_task is None:
            peer.connect_task = self._require_loop().create_task(
                self._connect(peer))

    def _drop(self, msg_type: str, size_bytes: int) -> None:
        self.stats.dropped_unknown_destination += 1
        self.stats.record_dropped(msg_type, size_bytes)

    async def _connect(self, peer: _Peer) -> None:
        loop = self._require_loop()
        try:
            transport, _ = await loop.create_unix_connection(
                lambda: peer, path=peer.address)
        except OSError:
            # Nobody listening: everything queued for this peer is a counted
            # drop, and the *next* send attempts a fresh connection.
            transport = None
        peer.connect_task = None
        backlog, peer.backlog, peer.backlog_bytes = peer.backlog, [], 0
        if transport is None:
            for _, msg_type, size_bytes in backlog:
                self._drop(msg_type, size_bytes)
            return
        peer.transport = transport
        for frame, _, _ in backlog:
            transport.write(frame)

    # ------------------------------------------------------------------ #
    # Timers and clock (the transport contract)
    # ------------------------------------------------------------------ #
    def schedule(self, delay_ms: float,
                 callback: Callable[[], None]) -> _Timer:
        loop = self._require_loop()
        timer = _Timer(loop.time() + delay_ms / 1000.0, callback)
        queue = self._timers.get(delay_ms)
        if queue is None:
            queue = self._timers[delay_ms] = _TimerQueue()
        timers = queue.timers
        while timers and timers[0].cancelled:
            timers.popleft()
        timers.append(timer)
        if queue.handle is None:
            queue.handle = loop.call_at(timers[0].due + CLOCK_RESOLUTION_S,
                                        self._expire, delay_ms, queue)
        return timer

    def cancel(self, handle: Optional[_Timer]) -> None:
        if handle is not None:
            handle.cancelled = True

    def _expire(self, delay_ms: float, queue: _TimerQueue) -> None:
        """Fire every due timer of one length in arming order, then re-arm
        the queue's handle for its new head (or drop the emptied queue)."""
        loop = self._loop
        timers = queue.timers
        now = loop.time()
        try:
            while timers:
                timer = timers[0]
                if timer.cancelled:
                    timers.popleft()
                    continue
                if timer.due > now:
                    break
                timers.popleft()
                timer.callback()
        finally:
            # Also after a raising callback: it costs that one timer, and
            # the ones behind it still fire.
            if timers:
                queue.handle = loop.call_at(
                    timers[0].due + CLOCK_RESOLUTION_S, self._expire,
                    delay_ms, queue)
            else:
                del self._timers[delay_ms]

    def now_ms(self) -> float:
        return self._require_loop().time() * 1000.0

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        return self._loop

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"AsyncioEndpoint(id={self.node_id!r}, "
                f"sent={self.stats.sent}, delivered={self.stats.delivered})")
