"""An ``AsyncioEndpoint`` contains hostile input and handler bugs.

Driven over a real Unix-domain socket with hand-written bytes, so the faults
arrive exactly as a broken or malicious peer would deliver them.
"""

from __future__ import annotations

import asyncio
import logging
import struct

from repro.network.asyncio_transport import AsyncioEndpoint
from repro.network.message import Message, MessageType
from repro.network.wire import frame_message


def ping(tag: str) -> Message:
    return Message(sender="peer", receiver="A", msg_type=MessageType.PING,
                   payload={"tag": tag}, size_bytes=1)


async def _send_raw(path: str, data: bytes) -> bytes:
    """Write ``data`` on a fresh connection; return what the peer sends until
    it closes (empty — the endpoint never writes on inbound connections)."""
    reader, writer = await asyncio.open_unix_connection(path=path)
    writer.write(data)
    await writer.drain()
    try:
        return await asyncio.wait_for(reader.read(), timeout=2.0)
    finally:
        writer.close()


async def _until(predicate, timeout: float = 2.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def test_bad_frame_and_handler_bug_are_counted_and_contained(tmp_path, caplog,
                                                             recwarn):
    path = str(tmp_path / "A.sock")
    delivered = []

    def handler(message: Message) -> None:
        if message.payload["tag"] == "boom":
            raise RuntimeError("handler bug")
        delivered.append(message.payload["tag"])

    loop_errors = []

    async def scenario() -> AsyncioEndpoint:
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: loop_errors.append(context))
        endpoint = AsyncioEndpoint("A", {"A": path}, handler=handler)
        await endpoint.start()
        try:
            # 1. a well-framed body that is not a message: the connection is
            #    closed from the endpoint's side (read() returns at EOF).
            garbage = b"\xff\xfe\xfd not a message"
            assert await _send_raw(
                path, struct.pack(">I", len(garbage)) + garbage) == b""
            await _until(lambda: endpoint.stats.decode_errors == 1)

            # 2. a handler that raises costs one message, not the connection:
            #    the next frame on the *same* connection is delivered.
            _, writer = await asyncio.open_unix_connection(path=path)
            writer.write(frame_message(ping("boom")) + frame_message(ping("after")))
            await writer.drain()
            await _until(lambda: delivered == ["after"])
            assert endpoint.stats.handler_errors == 1
            writer.close()

            # 3. a fresh connection is still served.
            _, writer = await asyncio.open_unix_connection(path=path)
            writer.write(frame_message(ping("fresh")))
            await writer.drain()
            await _until(lambda: delivered == ["after", "fresh"])
            writer.close()
            return endpoint
        finally:
            await endpoint.close()

    with caplog.at_level(logging.DEBUG):
        endpoint = asyncio.run(scenario())

    assert endpoint.stats.decode_errors == 1
    assert endpoint.stats.handler_errors == 1
    assert endpoint.stats.delivered == 3  # boom, after, fresh — not the garbage
    assert loop_errors == []
    assert "Task exception was never retrieved" not in caplog.text
    assert not [w for w in recwarn.list
                if "never retrieved" in str(w.message)]
    # the handler's traceback is logged, not lost
    assert "handler bug" in caplog.text


def test_send_redials_a_peer_that_restarted_on_the_same_address(tmp_path):
    """``write`` on a stream the peer closed does not raise; without a check
    every later frame toward a restarted node would vanish uncounted."""
    book = {"A": str(tmp_path / "A.sock"),
            "B": str(tmp_path / "B.sock")}
    delivered = []

    def to_b(tag: str) -> Message:
        return Message(sender="A", receiver="B", msg_type=MessageType.PING,
                       payload={"tag": tag}, size_bytes=1)

    async def scenario() -> AsyncioEndpoint:
        sender = AsyncioEndpoint("A", book)
        await sender.start()
        first = AsyncioEndpoint(
            "B", book, handler=lambda m: delivered.append(m.payload["tag"]))
        await first.start()
        try:
            sender.send(to_b("before"))
            await _until(lambda: delivered == ["before"])
            await first.close()

            second = AsyncioEndpoint(
                "B", book, handler=lambda m: delivered.append(m.payload["tag"]))
            await second.start()
            try:
                # A frame written before the old listener's EOF reaches the
                # sender is lost on any stream transport; wait for the EOF.
                await _until(
                    lambda: sender._peers["B"].transport.is_closing())
                for index in range(5):
                    sender.send(to_b(f"after-{index}"))
                await _until(lambda: len(delivered) == 6)
            finally:
                await second.close()
            return sender
        finally:
            await sender.close()

    sender = asyncio.run(scenario())
    assert delivered == ["before"] + [f"after-{index}" for index in range(5)]
    assert sender.stats.dropped_unknown_destination == 0


def test_frames_dropped_from_a_connect_backlog_are_counted(tmp_path):
    book = {"A": str(tmp_path / "A.sock"),
            "B": str(tmp_path / "B.sock")}
    delivered = []

    def to_b(tag: str) -> Message:
        return Message(sender="A", receiver="B", msg_type=MessageType.PING,
                       payload={"tag": tag}, size_bytes=7)

    async def scenario() -> AsyncioEndpoint:
        sender = AsyncioEndpoint("A", book)
        await sender.start()
        try:
            # B is in the book but nobody listens there yet: the frames wait
            # in the connect backlog and are dropped when the dial fails.
            for index in range(3):
                sender.send(to_b(f"lost-{index}"))
            await _until(
                lambda: sender.stats.dropped_unknown_destination == 3)
            assert sender.stats.bytes_dropped == 3 * 7
            assert sender.stats.dropped_bytes_per_type == {"ping": 3 * 7}

            listener = AsyncioEndpoint(
                "B", book, handler=lambda m: delivered.append(m.payload["tag"]))
            await listener.start()
            try:
                sender.send(to_b("found"))
                await _until(lambda: delivered == ["found"])
            finally:
                await listener.close()
            return sender
        finally:
            await sender.close()

    sender = asyncio.run(scenario())
    assert sender.stats.sent == 4
    assert sender.stats.dropped_unknown_destination == 3


def test_what_is_queued_toward_a_peer_that_never_reads_is_bounded(tmp_path):
    """Past ``MAX_QUEUED_BYTES`` — in the connect backlog, then in the write
    buffer — frames toward that peer are counted drops; other peers are served."""
    import socket

    from repro.network.asyncio_transport import MAX_QUEUED_BYTES

    book = {name: str(tmp_path / f"{name}.sock") for name in "ABC"}
    blob = b"x" * (4 << 20)
    delivered = []

    def bulk() -> Message:
        return Message(sender="A", receiver="B", payload={"states": blob},
                       msg_type=MessageType.MERKLE_KEY_STATES, size_bytes=11)

    async def scenario() -> AsyncioEndpoint:
        loop = asyncio.get_running_loop()
        listener = socket.socket(socket.AF_UNIX)    # accepts, never reads
        listener.bind(book["B"])
        listener.listen()
        listener.setblocking(False)
        sender = AsyncioEndpoint("A", book)
        reader = AsyncioEndpoint(
            "C", book, handler=lambda m: delivered.append(m.payload["tag"]))
        await sender.start()
        await reader.start()
        accepted = None
        try:
            frame_bytes = len(frame_message(bulk()))
            for _ in range(12):                 # 48 MB at a dial still pending
                sender.send(bulk())
            peer = sender._peers["B"]
            assert peer.transport is None
            assert MAX_QUEUED_BYTES < peer.backlog_bytes \
                <= MAX_QUEUED_BYTES + frame_bytes
            queued = len(peer.backlog)
            assert sender.stats.dropped_backpressure == 12 - queued > 0

            accepted, _ = await loop.sock_accept(listener)
            await _until(lambda: peer.transport is not None)
            assert peer.backlog == [] and peer.backlog_bytes == 0
            # The backlog went into the write buffer (less what the kernel
            # took): at most one more frame fits under the bound.
            for _ in range(3):
                sender.send(bulk())
            assert MAX_QUEUED_BYTES < peer.transport.get_write_buffer_size() \
                <= MAX_QUEUED_BYTES + frame_bytes
            assert sender.stats.dropped_backpressure >= 12 - queued + 2

            sender.send(Message(sender="A", receiver="C", payload={"tag": "ok"},
                                msg_type=MessageType.PING, size_bytes=1))
            await _until(lambda: delivered == ["ok"])
            return sender
        finally:
            if accepted is not None:
                accepted.close()
            listener.close()
            await sender.close()
            await reader.close()

    sender = asyncio.run(scenario())
    shed = sender.stats.dropped_backpressure
    assert sender.stats.sent == 16 and shed >= 6
    assert sender.stats.dropped_bytes_per_type == {"merkle_key_states": shed * 11}
    assert sender.stats.bytes_dropped == shed * 11
    assert sender.stats.dropped_unknown_destination == 0
