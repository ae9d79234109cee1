"""Real-socket transport: the asyncio backend of the protocol machines.

Where the simulator delivers :class:`~repro.network.message.Message` objects
through a virtual-time event queue, an :class:`AsyncioEndpoint` puts the same
messages on actual sockets — TCP or Unix-domain — using the length-prefixed
framing of :mod:`repro.network.wire`.  One endpoint is one addressable node
(a storage server or a client): it listens on its own address for inbound
frames and lazily opens one persistent outbound connection per peer it sends
to, so the socket topology mirrors the message-passing model the protocol
was written against.

Everything runs on one event loop; per-connection reader coroutines decode
frames and hand messages to the node's handler synchronously, exactly like
the simulator's delivery callback.  Timers map to ``loop.call_later`` and the
clock to ``loop.time()`` — the state machines never notice they moved from
virtual milliseconds to wall-clock milliseconds.

Failure semantics match the simulated transport's stance: a send toward an
address nobody listens on, or over a connection that breaks, is a counted,
silent drop (``stats.dropped_unknown_destination``).  The protocol already
tolerates lost messages — deadlines, read repair and anti-entropy exist for
exactly that — so the backend never retries or errors a send.  A peer that
closed its end (it restarted, or dropped the connection on a bad frame) is
noticed on the next send, which forgets the dead stream and redials.

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
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.exceptions import SerializationError
from .base import ProtocolTransport
from .message import Message
from .transport import TransportStats
from .wire import RecordTable, frame_message, read_message

#: Where an endpoint listens: ``("tcp", host, port)`` or ``("unix", path)``.
Address = Union[Tuple[str, str, int], Tuple[str, str]]

MessageHandler = Callable[[Message], None]

logger = logging.getLogger(__name__)


class _TimerHandle:
    """Adapter giving ``loop.call_later`` handles the simulator's surface."""

    __slots__ = ("_handle", "cancelled")

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        self._handle.cancel()


class _Peer:
    """One lazily-connected outbound stream to a fixed peer address."""

    def __init__(self, address: Address) -> None:
        self.address = address
        #: Both halves of the outbound stream.  Nothing is ever read from it;
        #: the reader is kept because EOF on it is how a peer that closed its
        #: end shows (``write`` on a lost transport does not raise).
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.connect_task: Optional[asyncio.Task] = None
        #: ``(frame, message type, modelled size)`` of every frame queued
        #: while the connection is still being established.
        self.backlog: List[Tuple[bytes, str, int]] = []


class AsyncioEndpoint(ProtocolTransport):
    """One addressable node of the asyncio backend.

    Parameters
    ----------
    node_id:
        The address the protocol knows this node by (``"A"``,
        ``"client:c1"``, ...).
    address_book:
        Shared map from node id to listen address for every node this one
        may talk to (including itself).  Ids absent from the book are
        undeliverable — counted drops, like the simulator's unregistered
        receivers.
    handler:
        Called synchronously with every decoded inbound message.
    loop:
        Event loop; defaults to the running loop at :meth:`start` time.
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
        self._reader_tasks: List[asyncio.Task] = []
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listen socket and start accepting inbound connections."""
        self._loop = asyncio.get_running_loop()
        address = self.address_book[self.node_id]
        if address[0] == "unix":
            self._server = await asyncio.start_unix_server(
                self._accept, path=address[1])
        elif address[0] == "tcp":
            self._server = await asyncio.start_server(
                self._accept, host=address[1], port=address[2])
        else:
            raise ValueError(f"unknown address kind {address[0]!r}")

    async def close(self) -> None:
        """Stop listening, drop every connection, cancel reader tasks."""
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._reader_tasks:
            task.cancel()
        for task in self._reader_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._reader_tasks.clear()
        for peer in self._peers.values():
            if peer.connect_task is not None:
                peer.connect_task.cancel()
            if peer.writer is not None:
                peer.writer.close()
        self._peers.clear()

    # ------------------------------------------------------------------ #
    # Inbound
    # ------------------------------------------------------------------ #
    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.append(task)
        stats, records = self.stats, self._records
        try:
            while True:
                message = await read_message(reader, records)
                stats.record_hits = records.hits
                stats.record_misses = records.misses
                stats.record_delivered(message.msg_type.value,
                                       message.size_bytes)
                if self.handler is not None:
                    try:
                        self.handler(message)
                    except Exception:
                        # A handler bug must not take the reader task (and
                        # every later frame on this connection) down with it.
                        self.stats.handler_errors += 1
                        logger.exception(
                            "%s: handler failed on %s from %s", self.node_id,
                            message.msg_type.value, message.sender)
        except asyncio.CancelledError:
            pass  # endpoint closing; finish normally so close() can await us
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer closed (or died); it will redial if it needs us
        except SerializationError as exc:
            self.stats.decode_errors += 1
            logger.warning("%s: closing connection on undecodable frame: %s",
                           self.node_id, exc)
        finally:
            writer.close()
            if task is not None and task in self._reader_tasks:
                self._reader_tasks.remove(task)

    # ------------------------------------------------------------------ #
    # Outbound (the transport contract)
    # ------------------------------------------------------------------ #
    def send(self, message: Message) -> None:
        """Frame and write toward the receiver's endpoint, best-effort."""
        msg_type = message.msg_type.value
        self.stats.sent += 1
        self.stats.bytes_sent += message.size_bytes
        self.stats.record_type(msg_type, message.size_bytes)
        if self._closed or message.receiver not in self.address_book:
            self._drop(msg_type, message.size_bytes)
            return
        frame = frame_message(message)
        peer = self._peers.get(message.receiver)
        if peer is None:
            peer = _Peer(self.address_book[message.receiver])
            self._peers[message.receiver] = peer
        writer = peer.writer
        if writer is not None and (writer.is_closing()
                                   or peer.reader.at_eof()):
            # The peer closed its end: forget the stream, queue, redial.
            writer.close()
            writer = peer.reader = peer.writer = None
        if writer is not None:
            try:
                writer.write(frame)
            except (ConnectionError, RuntimeError):
                # Broken pipe: drop this frame, forget the stream so the
                # next send redials.  The protocol tolerates the loss.
                self._drop(msg_type, message.size_bytes)
                peer.reader = peer.writer = None
            return
        peer.backlog.append((frame, msg_type, message.size_bytes))
        if peer.connect_task is None:
            peer.connect_task = self._require_loop().create_task(
                self._connect(message.receiver, peer))

    def _drop(self, msg_type: str, size_bytes: int) -> None:
        self.stats.dropped_unknown_destination += 1
        self.stats.record_dropped(msg_type, size_bytes)

    async def _connect(self, peer_id: str, peer: _Peer) -> None:
        try:
            if peer.address[0] == "unix":
                reader, writer = await asyncio.open_unix_connection(
                    path=peer.address[1])
            else:
                reader, writer = await asyncio.open_connection(
                    host=peer.address[1], port=peer.address[2])
        except OSError:
            # Nobody listening: everything queued for this peer is a counted
            # drop, and the *next* send attempts a fresh connection.
            backlog, peer.backlog = peer.backlog, []
            peer.connect_task = None
            for _, msg_type, size_bytes in backlog:
                self._drop(msg_type, size_bytes)
            return
        peer.reader, peer.writer = reader, writer
        peer.connect_task = None
        backlog, peer.backlog = peer.backlog, []
        for frame, _, _ in backlog:
            writer.write(frame)

    # ------------------------------------------------------------------ #
    # Timers and clock (the transport contract)
    # ------------------------------------------------------------------ #
    def schedule_deadline(self, delay_ms: float, callback: Callable[[], None],
                          label: str = "deadline") -> _TimerHandle:
        self.stats.deadlines_set += 1

        def fire() -> None:
            self.stats.deadlines_fired += 1
            callback()

        return _TimerHandle(
            self._require_loop().call_later(delay_ms / 1000.0, fire))

    def cancel_deadline(self, handle: Optional[_TimerHandle]) -> None:
        if handle is None or handle.cancelled:
            return
        self.stats.deadlines_cancelled += 1
        handle.cancel()

    def schedule_task(self, delay_ms: float, callback: Callable[[], None],
                      label: str = "task") -> _TimerHandle:
        return _TimerHandle(
            self._require_loop().call_later(delay_ms / 1000.0, callback))

    def cancel_task(self, handle: Optional[_TimerHandle]) -> None:
        if handle is None or handle.cancelled:
            return
        handle.cancel()

    def now_ms(self) -> float:
        return self._require_loop().time() * 1000.0

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        return self._loop

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"AsyncioEndpoint(id={self.node_id!r}, "
                f"sent={self.stats.sent}, delivered={self.stats.delivered})")
