"""Frames in batches: one read parses every complete frame it holds,
one write answers a connection's turn or a batch cycle.

:class:`~repro.serve.wire.FrameReader` is tested on its own first (fed
by hand, so every read boundary is exact), then through the real server
over localhost sockets, with a raw socket as the client wherever the
test needs to control what one ``write`` carries.
"""

from __future__ import annotations

import asyncio
import socket
from contextlib import asynccontextmanager

import pytest

from repro.errors import ProtocolError
from repro.serve import ServeClient, ServeServer
from repro.serve.wire import (
    MAX_FRAME,
    READ_CHUNK,
    FrameReader,
    encode_frame,
    encode_frame_body,
    read_frame,
)

FRAMES = [
    {"t": "put", "rid": 1, "key": "k", "value": "v"},
    {"t": "get", "rid": 2, "key": "k"},
    {"t": "token", "rid": 3},
]
BLOB = b"".join(encode_frame(frame) for frame in FRAMES)
BODIES = [encode_frame_body(frame) for frame in FRAMES]


def run(coro_fn):
    return asyncio.run(coro_fn())


async def read_until(frames: FrameReader, count: int):
    bodies = []
    while len(bodies) < count:
        batch = await frames.read()
        assert batch is not None, "EOF before every frame arrived"
        bodies.extend(batch)
    return bodies


class TestFrameReader:
    def test_one_read_returns_every_complete_frame(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(BLOB * 20)
            reader.feed_eof()
            frames = FrameReader(reader)
            assert await frames.read() == BODIES * 20
            assert await frames.read() is None

        run(scenario)

    def test_frames_split_at_any_byte_boundary(self):
        async def split_at(split):
            reader = asyncio.StreamReader()
            frames = FrameReader(reader)
            reader.feed_data(BLOB[:split])
            pending = asyncio.ensure_future(read_until(frames, len(FRAMES)))
            for _ in range(3):
                await asyncio.sleep(0)  # the reader consumes the head
            reader.feed_data(BLOB[split:])
            reader.feed_eof()
            assert await pending == BODIES, split
            assert await frames.read() is None

        async def scenario():
            for split in range(1, len(BLOB)):
                await split_at(split)

        run(scenario)

    def test_a_frame_larger_than_one_read(self):
        async def scenario():
            big = encode_frame({"t": "put", "value": "x" * (3 * READ_CHUNK)})
            reader = asyncio.StreamReader()
            frames = FrameReader(reader)
            pending = asyncio.ensure_future(read_until(frames, 2))
            for start in range(0, len(big), 1000):
                reader.feed_data(big[start:start + 1000])
                await asyncio.sleep(0)
            reader.feed_data(BLOB[: len(encode_frame(FRAMES[0]))])
            reader.feed_eof()
            assert await pending == [big[4:], BODIES[0]]

        run(scenario)

    def test_eof_mid_frame_raises_after_the_complete_frames(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(BLOB[:-2])
            reader.feed_eof()
            frames = FrameReader(reader)
            assert await frames.read() == BODIES[:2]
            with pytest.raises(ProtocolError, match="mid-frame"):
                await frames.read()

        run(scenario)

    def test_oversize_prefix_is_refused_without_waiting_for_its_body(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(BLOB + (MAX_FRAME + 1).to_bytes(4, "big") + b"x")
            frames = FrameReader(reader)  # no EOF: nothing more will come
            assert await frames.read() == BODIES
            with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
                await asyncio.wait_for(frames.read(), 1.0)

        run(scenario)


@asynccontextmanager
async def serving(**kwargs):
    srv = ServeServer(shards=2, members_per_shard=3, seed=5, **kwargs)
    await srv.start()
    try:
        yield srv
    finally:
        await srv.shutdown()


@asynccontextmanager
async def raw(srv: ServeServer, session: str, *, rcvbuf: int = 0):
    """A hand-driven connection past its hello: (reader, writer)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.setblocking(False)
    await asyncio.get_event_loop().sock_connect(sock, ("127.0.0.1", srv.port))
    reader, writer = await asyncio.open_connection(sock=sock)
    try:
        writer.write(encode_frame({"t": "hello", "rid": 0, "session": session}))
        assert (await read_frame(reader))["ok"]
        yield reader, writer
    finally:
        writer.transport.abort()


async def replies(reader: asyncio.StreamReader, count: int):
    return [
        await asyncio.wait_for(read_frame(reader), 5.0) for _ in range(count)
    ]


class TestThroughTheServer:
    def test_frames_split_at_every_byte_boundary_across_reads(self):
        async def scenario():
            async with serving() as srv, raw(srv, "s") as (reader, writer):
                writer.write(encode_frame(
                    {"t": "put", "rid": 0, "key": "k", "value": "v"}
                ))
                assert (await read_frame(reader))["ok"]

                def pair(rid):  # rids 1000..1999: every pair is one size
                    return b"".join(
                        encode_frame({"t": "get", "rid": r, "key": "k"})
                        for r in (rid, rid + 1)
                    )

                for split in range(1, len(pair(1000))):
                    rid = 1000 + 2 * split
                    blob = pair(rid)
                    writer.write(blob[:split])
                    await writer.drain()
                    await asyncio.sleep(0.001)  # the server reads the head
                    writer.write(blob[split:])
                    answered = await replies(reader, 2)
                    assert [r["rid"] for r in answered] == [rid, rid + 1]
                    assert all(r["value"] == "v" for r in answered)

        run(scenario)

    def test_many_frames_in_one_read_are_answered_in_one_write(self):
        async def scenario():
            async with serving() as srv, raw(srv, "s") as (reader, writer):
                writer.write(encode_frame(
                    {"t": "put", "rid": 0, "key": "k", "value": "v"}
                ))
                await read_frame(reader)
                counters = srv.metrics.counters
                frames_out, writes = counters["frames_out"], counters["wire_writes"]
                writer.write(b"".join(
                    encode_frame({"t": "get", "rid": rid, "key": "k"})
                    for rid in range(1, 41)
                ))
                answered = await replies(reader, 40)
                assert sorted(r["rid"] for r in answered) == list(range(1, 41))
                assert counters["frames_out"] - frames_out == 40
                assert counters["wire_writes"] - writes <= 4

        run(scenario)

    def test_eof_mid_frame_is_a_protocol_error_and_closes(self):
        async def scenario():
            async with serving() as srv, raw(srv, "s") as (reader, writer):
                closed = srv.metrics.counters["connections_closed"]
                frame = encode_frame({"t": "get", "rid": 1, "key": "k"})
                writer.write(frame[: len(frame) // 2])
                writer.write_eof()
                error = await asyncio.wait_for(read_frame(reader), 5.0)
                assert error["t"] == "error"
                assert "closed mid-frame" in error["error"]
                assert await asyncio.wait_for(read_frame(reader), 5.0) is None
                assert srv.metrics.counters["connections_closed"] == closed + 1

        run(scenario)

    def test_oversize_prefix_is_refused_before_its_body_is_buffered(self):
        async def scenario():
            async with serving() as srv, raw(srv, "s") as (reader, writer):
                # The prefix and a few body bytes; the rest never comes.
                writer.write((MAX_FRAME + 1).to_bytes(4, "big") + b"{" * 16)
                error = await asyncio.wait_for(read_frame(reader), 5.0)
                assert "exceeds MAX_FRAME" in error["error"]
                assert await asyncio.wait_for(read_frame(reader), 5.0) is None

        run(scenario)

    def test_frames_after_a_bye_in_the_same_read_are_not_dispatched(self):
        async def scenario():
            async with serving() as srv, raw(srv, "s") as (reader, writer):
                writer.write(
                    encode_frame({"t": "put", "rid": 1, "key": "k", "value": 1})
                    + encode_frame({"t": "bye"})
                    + encode_frame({"t": "put", "rid": 2, "key": "k", "value": 2})
                )
                # The server closes at the bye; the first put still runs.
                assert await asyncio.wait_for(read_frame(reader), 5.0) is None
                for _ in range(200):
                    if srv.history["s"]:
                        break
                    await asyncio.sleep(0.005)
                await asyncio.sleep(0.05)
                assert [kind for kind, _ in srv.history["s"]] == ["write"]
                assert srv.metrics.counters["puts"] == 1

        run(scenario)

    def test_one_read_past_max_inflight_never_passes_the_cap(self):
        async def scenario():
            async with serving(max_inflight=4) as srv, \
                    raw(srv, "s") as (reader, writer):
                seen = []
                enqueue = srv._enqueue

                def watched(op):
                    seen.append(op.conn.inflight)
                    enqueue(op)

                srv._enqueue = watched
                writer.write(b"".join(
                    encode_frame({"t": "put", "rid": rid, "key": f"k{rid}",
                                  "value": rid})
                    for rid in range(40)
                ))
                answered = await replies(reader, 40)
                assert all(r["ok"] for r in answered)
                assert len(seen) == 40 and max(seen) <= 4
                assert srv.metrics.counters["admission_waits"] > 0

        run(scenario)

    def test_a_client_that_stops_reading_pauses_only_its_own_replies(self):
        """A batch cycle used to ``await drain()`` every connection it
        answered, so one stalled reader parked the cycle — and with it
        every other client's next reply."""

        async def scenario():
            async with serving() as srv:
                async with raw(srv, "slow", rcvbuf=4096) as (reader, writer):
                    big = "x" * (256 * 1024)
                    writer.write(encode_frame(
                        {"t": "put", "rid": 0, "key": "big", "value": big}
                    ))
                    assert (await read_frame(reader))["ok"]
                    writer.transport.pause_reading()
                    # A put first, so the gets behind it ride a cycle:
                    # ~15 MB of replies nobody reads.
                    writer.write(
                        encode_frame({"t": "put", "rid": 1, "key": "k",
                                      "value": 1})
                        + b"".join(
                            encode_frame({"t": "get", "rid": rid, "key": "big"})
                            for rid in range(2, 62)
                        )
                    )
                    await writer.drain()
                    fast = ServeClient("127.0.0.1", srv.port, "fast")
                    await asyncio.wait_for(fast.connect(), 5.0)
                    for i in range(5):
                        await asyncio.wait_for(fast.put_wait(f"j{i}", i), 5.0)
                        assert await asyncio.wait_for(fast.get(f"j{i}"), 5.0) == i
                    (slow,) = [
                        conn for conn in srv._connections
                        if conn.session is not None
                        and conn.session.name == "slow"
                    ]
                    # Its replies wait in its own buffer.
                    assert slow.transport.get_write_buffer_size() > 0
                    await fast.close()

        run(scenario)

    def test_pipelined_gets_leave_several_frames_a_write(self):
        async def scenario():
            async with serving() as srv:
                clients = [
                    ServeClient("127.0.0.1", srv.port, name)
                    for name in ("a", "b")
                ]
                for client in clients:
                    await client.connect()
                    await client.put_wait(client.session, client.session)
                counters = srv.metrics.counters
                frames_out, writes = counters["frames_out"], counters["wire_writes"]
                futures = [
                    client.get_submit(client.session)
                    for client in clients for _ in range(32)
                ]
                answered = await asyncio.gather(*futures)
                assert [r["value"] for r in answered] == ["a"] * 32 + ["b"] * 32
                frames = counters["frames_out"] - frames_out
                assert frames == 64
                assert frames / (counters["wire_writes"] - writes) >= 4
                for client in clients:
                    await client.close()

        run(scenario)
