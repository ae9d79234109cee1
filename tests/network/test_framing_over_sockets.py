"""Framing under real delivery: ``data_received`` cuts frames however they arrive.

Hand-written bytes over a real Unix-domain socket — one byte at a time, all at
once, around a bulk frame — must come out as the same messages, in order,
exactly once; a corrupt length prefix is refused on its four bytes; a
connection that ends mid-frame is silent; a frame that trickles in is buffered
in place, in time linear in its size.  And the seam the benchmark's tracer
relies on holds: every frame written goes through the module-level
``asyncio_transport.frame_message`` and every frame read through
``wire.decode_message``, looked up at call time.
"""

from __future__ import annotations

import asyncio
import time
import tracemalloc
from typing import List

import pytest

from repro.clocks import create
from repro.cluster import QuorumConfig
from repro.kvstore.asyncio_cluster import AsyncioCluster
from repro.network import asyncio_transport, wire
from repro.network.asyncio_transport import AsyncioEndpoint, _Inbound
from repro.network.message import Message, MessageType
from repro.network.wire import MAX_FRAME_BYTES, frame_message

from test_asyncio_endpoint_faults import _until


def ping(tag: str) -> Message:
    return Message(sender="peer", receiver="A", msg_type=MessageType.PING,
                   payload={"tag": tag}, size_bytes=1)


BULK = Message(sender="peer", receiver="A", size_bytes=2,
               msg_type=MessageType.MERKLE_KEY_STATES,
               payload={"tag": "bulk",
                        "states": {f"key-{i:05d}": "v" * 20 for i in range(9500)}})


def _serve(tmp_path, scenario):
    """Run ``scenario(endpoint, path, delivered)`` against a live endpoint;
    return ``(endpoint, delivered tags, loop exception contexts)``."""
    path = str(tmp_path / "A.sock")
    delivered: List[str] = []
    loop_errors: List[dict] = []

    async def run() -> AsyncioEndpoint:
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: loop_errors.append(context))
        endpoint = AsyncioEndpoint(
            "A", {"A": ("unix", path)},
            handler=lambda message: delivered.append(message.payload["tag"]))
        await endpoint.start()
        try:
            await scenario(endpoint, path, delivered)
        finally:
            await endpoint.close()
        return endpoint

    return asyncio.run(run()), delivered, loop_errors


@pytest.mark.parametrize("delivery", ["byte-by-byte", "single-write"])
@pytest.mark.parametrize("middle", [ping("second"), BULK], ids=["small", "bulk"])
def test_frames_arrive_in_order_exactly_once(tmp_path, delivery, middle):
    frames = [frame_message(ping("first")), frame_message(middle),
              frame_message(ping("third"))]
    assert middle is not BULK or len(frames[1]) > 300_000
    expected = ["first", middle.payload["tag"], "third"]

    async def scenario(endpoint, path, delivered):
        _, writer = await asyncio.open_unix_connection(path=path)
        if delivery == "single-write":
            writer.write(b"".join(frames))
        else:
            for frame in frames:
                # The bulk frame goes in 4 KB pieces, the small ones in bytes.
                step = 4096 if len(frame) > 4096 else 1
                for at in range(0, len(frame), step):
                    writer.write(frame[at:at + step])
                    await writer.drain()
        await writer.drain()
        await _until(lambda: len(delivered) >= 3)
        await asyncio.sleep(0.02)               # nothing arrives twice
        writer.close()

    endpoint, delivered, loop_errors = _serve(tmp_path, scenario)
    assert delivered == expected
    assert endpoint.stats.delivered == 3
    assert endpoint.stats.decode_errors == endpoint.stats.handler_errors == 0
    assert 1 <= endpoint.stats.socket_reads
    if delivery == "single-write" and middle is not BULK:
        assert endpoint.stats.socket_reads <= 3     # several frames per wake-up
    assert loop_errors == []


def test_an_oversized_length_prefix_is_refused_on_its_four_bytes(tmp_path):
    async def scenario(endpoint, path, delivered):
        reader, writer = await asyncio.open_unix_connection(path=path)
        tracemalloc.start()
        try:
            writer.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            # Nothing follows the prefix: the endpoint hangs up on it alone.
            assert await asyncio.wait_for(reader.read(), timeout=2.0) == b""
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            writer.close()
        assert peak < MAX_FRAME_BYTES // 8      # the announced 16 MB never was
        assert endpoint.stats.decode_errors == 1

    endpoint, delivered, loop_errors = _serve(tmp_path, scenario)
    assert delivered == [] and endpoint.stats.delivered == 0
    assert endpoint.stats.decode_errors == 1
    assert loop_errors == []


def test_a_connection_closed_mid_frame_delivers_and_counts_nothing(tmp_path):
    async def scenario(endpoint, path, delivered):
        frame = frame_message(ping("never"))
        for cut in (2, 4, len(frame) - 1):      # in the prefix, after it, in the body
            _, writer = await asyncio.open_unix_connection(path=path)
            writer.write(frame[:cut])
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        await _until(lambda: endpoint.stats.socket_reads == 3)
        await _until(lambda: not endpoint._inbound)

    endpoint, delivered, loop_errors = _serve(tmp_path, scenario)
    assert delivered == []
    assert endpoint.stats.delivered == endpoint.stats.decode_errors == 0
    assert endpoint.stats.handler_errors == 0
    assert loop_errors == []


def test_a_trickling_frame_is_buffered_in_place_in_linear_time():
    """4,096 chunks of a 1 MB frame, then eight times both: a buffer that was
    re-concatenated per chunk would cost 64 times as much, not 8."""
    delivered: List[int] = []

    def arrive(chunks: int) -> float:
        endpoint = AsyncioEndpoint(
            "A", {}, handler=lambda m: delivered.append(len(m.payload["blob"])))
        frame = frame_message(Message(
            sender="peer", receiver="A", msg_type=MessageType.PING,
            payload={"blob": b"x" * (chunks * 256 - 64)}, size_bytes=1))
        connection = _Inbound(endpoint)
        buffer = connection.buffer
        started = time.perf_counter()
        for at in range(0, len(frame), 256):
            connection.data_received(frame[at:at + 256])
            assert connection.buffer is buffer      # grown in place, not rebuilt
        elapsed = time.perf_counter() - started
        assert endpoint.stats.socket_reads == chunks
        assert endpoint.stats.delivered == 1 and buffer == b""
        return elapsed

    small = min(arrive(4096) for _ in range(3))
    large = min(arrive(8 * 4096) for _ in range(2))
    assert delivered == [4096 * 256 - 64] * 3 + [8 * 4096 * 256 - 64] * 2
    assert large < 24 * small


def test_a_connection_reads_into_a_chunk_it_keeps_and_grows_it_only_when_filled():
    """No allocation per read: asyncio fills the connection's own chunk
    (``BufferedProtocol``); only a read that fills it — a bulk transfer —
    doubles it, up to the cap."""
    delivered: List[str] = []
    endpoint = AsyncioEndpoint(
        "A", {}, handler=lambda m: delivered.append(m.payload["tag"]))
    connection = _Inbound(endpoint)
    assert isinstance(connection, asyncio.BufferedProtocol)

    def read(data: bytes) -> memoryview:
        """What the selector transport does with ``recv_into``."""
        chunk = connection.get_buffer(-1)
        chunk[:len(data)] = data
        connection.buffer_updated(len(data))
        return chunk

    small = asyncio_transport.MIN_READ_CHUNK_BYTES
    frames = frame_message(ping("a")) + frame_message(ping("b"))
    first = read(frames[:-3])
    assert len(first) == small
    assert read(frames[-3:]).obj is first.obj          # same chunk, reused
    assert delivered == ["a", "b"]

    stream = frame_message(BULK) + frame_message(ping("after"))
    sizes, at = [], 0
    while at < len(stream):
        size = len(connection.get_buffer(-1))
        sizes.append(size)
        read(stream[at:at + size])
        at += size
    assert delivered == ["a", "b", "bulk", "after"] and connection.buffer == b""
    assert sizes[:3] == [small, 2 * small, 4 * small]
    assert max(sizes) == asyncio_transport.MAX_READ_CHUNK_BYTES
    assert len(connection.get_buffer(-1)) == asyncio_transport.MAX_READ_CHUNK_BYTES


def test_every_frame_crosses_the_two_module_level_seams(monkeypatch):
    """Counting wrappers installed the way ``e2e_trace`` installs its spans."""
    calls = {"frame": 0, "decode": 0}
    frame_message_, decode_message_ = (asyncio_transport.frame_message,
                                       wire.decode_message)

    def counting_frame(message):
        calls["frame"] += 1
        return frame_message_(message)

    def counting_decode(*args, **kwargs):
        calls["decode"] += 1
        return decode_message_(*args, **kwargs)

    monkeypatch.setattr(asyncio_transport, "frame_message", counting_frame)
    monkeypatch.setattr(wire, "decode_message", counting_decode)

    async def scenario():
        cluster = AsyncioCluster(
            create("dvv"), server_ids=("A", "B", "C"),
            quorum=QuorumConfig(n=3, r=2, w=2, sloppy=True))
        async with cluster:
            client = await cluster.client("c1")
            assert await client.put("cart", "beer") is not None
            assert (await client.get("cart")).values == ["beer"]
            endpoints = [server.endpoint for server in cluster.servers.values()]
            endpoints += [c.endpoint for c in cluster.clients.values()]
            sent = sum(endpoint.stats.sent for endpoint in endpoints)
            delivered = sum(endpoint.stats.delivered for endpoint in endpoints)
            return sent, delivered, dict(calls)

    sent, delivered, seen = asyncio.run(scenario())
    assert sent >= delivered >= 10
    assert seen == {"frame": sent, "decode": delivered}
