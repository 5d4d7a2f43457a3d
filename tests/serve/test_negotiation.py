"""Hello-handshake tests: codec requests are refused, not ignored.

JSON is the only wire format.  A ``hello`` may still carry a ``codec``
field (older clients negotiated one): ``"json"`` and an absent field
both succeed, anything else is a clean, parseable ``error`` frame that
leaves the connection usable for a corrected hello — a client speaking
a format the server never reads must fail fast, not hang on its first
frame.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager

from repro.serve import ServeClient, ServeServer, reconnect
from repro.serve.wire import read_frame, write_frame


@asynccontextmanager
async def server(**kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("members_per_shard", 3)
    kwargs.setdefault("seed", 7)
    srv = ServeServer(**kwargs)
    await srv.start()
    try:
        yield srv
    finally:
        await srv.shutdown()


def run(coro_fn):
    return asyncio.run(coro_fn())


class TestNegotiation:
    def test_unknown_codec_rejected_cleanly(self):
        async def refused_then_corrected(srv, requested):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", srv.port
            )
            write_frame(writer, {
                "t": "hello", "rid": 1, "session": "s",
                "codec": requested,
            })
            reply = await read_frame(reader)
            assert reply["t"] == "error"
            assert "unknown codec" in reply["error"]
            assert reply["codecs"] == ["json"]
            # The connection stays up: a corrected hello on the same
            # socket succeeds, and so does the work after it.
            write_frame(writer, {
                "t": "hello", "rid": 2, "session": "s",
                "codec": "json",
            })
            reply = await read_frame(reader)
            assert reply["ok"] is True
            assert "codec" not in reply and "codecs" not in reply
            write_frame(writer, {
                "t": "put", "rid": 3, "key": "k", "value": requested,
            })
            reply = await read_frame(reader)
            assert reply["ok"] is True and reply["rid"] == 3
            write_frame(writer, {"t": "get", "rid": 4, "key": "k"})
            reply = await read_frame(reader)
            assert reply["value"] == requested
            writer.close()

        async def scenario():
            async with server() as srv:
                for requested in ("msgpack", "binary"):
                    await refused_then_corrected(srv, requested)

        run(scenario)

    def test_pr5_client_without_codec_field_stays_json(self):
        """A PR-5 era client: raw JSON frames, no codec field at all."""

        async def scenario():
            async with server() as srv:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port
                )
                write_frame(writer, {"t": "hello", "rid": 1, "session": "old"})
                hello = await read_frame(reader)
                assert hello["ok"] is True
                assert "codec" not in hello
                write_frame(writer, {
                    "t": "put", "rid": 2, "key": "legacy", "value": 41,
                })
                reply = await read_frame(reader)
                assert reply["ok"] is True and reply["rid"] == 2
                write_frame(writer, {"t": "read", "rid": 3})
                reply = await read_frame(reader)
                assert reply["value"]["legacy"] == 41
                writer.close()

        run(scenario)


class TestReconnect:
    def test_reconnect_keeps_token(self):
        async def scenario():
            async with server() as srv:
                cli = ServeClient("127.0.0.1", srv.port, "r")
                await cli.connect()
                try:
                    await cli.put_wait("mine", "before-reconnect")
                    cli = await reconnect(cli)
                    assert cli.token is not None
                    # Read-your-writes survives the reconnect: the new
                    # connection presented the old session's token.
                    assert await cli.get("mine") == "before-reconnect"
                finally:
                    await cli.close()

        run(scenario)
