"""The healing client (``ServeClient(heal=True)``) + server-side
degradation machinery.

Covers the recovery contract end to end: mid-pipeline disconnects with
token-carrying reconnect and opid replay (no put applied twice), load
shedding with parseable overload frames, deadline-aware admission via
the ``ttl`` field, and opid dedupe across connections.
"""

from __future__ import annotations

import asyncio
import socket
from contextlib import asynccontextmanager

import pytest

from repro.serve import ServeClient, ServeError, ServeServer
from repro.serve.client import DEFAULT_OP_ATTEMPTS, GaveUp, ServeOverload
from repro.serve.faults import CLIENTWARD, ChaosProxy
from repro.serve.wire import FRAME_OVERLOAD


@asynccontextmanager
async def server(**kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("members_per_shard", 3)
    kwargs.setdefault("seed", 5)
    srv = ServeServer(**kwargs)
    await srv.start()
    try:
        yield srv
    finally:
        await srv.shutdown()


@asynccontextmanager
async def proxied_server(**kwargs):
    async with server(**kwargs) as srv:
        proxy = ChaosProxy("127.0.0.1", srv.port)
        await proxy.start()
        try:
            yield srv, proxy
        finally:
            await proxy.stop()


def run(coro_fn):
    return asyncio.run(coro_fn())


def free_port() -> int:
    """A localhost port nobody listens on (bound once, then released)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestMidPipelineDisconnect:
    def test_token_reconnect_replays_without_double_apply(self):
        """The satellite scenario, verbatim: kill the connection with
        puts in flight, reconnect with the exported token, replay —
        session guarantees hold and no put is double-applied."""

        async def scenario():
            async with proxied_server() as (srv, proxy):
                cli = ServeClient("127.0.0.1", proxy.port, "pipe")
                await cli.connect()
                await cli.put_wait("base", "v0", opid="pipe#base")
                token = cli.token
                assert token is not None
                # Park the replies so the puts are genuinely in flight
                # (sent, applied server-side, unacknowledged) when the
                # connection dies mid-frame.
                proxy.stall_all(CLIENTWARD)
                futures = [
                    cli.put(f"k{i}", f"v{i}", opid=f"pipe#{i}")
                    for i in range(3)
                ]
                await asyncio.sleep(0.1)
                proxy.cut_all(mid_frame=True)
                proxy.resume_all()  # the stall must not outlive the cut
                for future in futures:
                    with pytest.raises(ServeError):
                        await asyncio.wait_for(future, 5)

                # Reconnect with the last token the client *saw* and
                # replay every ambiguous put with its original opid.
                cli2 = ServeClient(
                    "127.0.0.1", proxy.port, "pipe", token=token
                )
                await cli2.connect()
                for i in range(3):
                    reply = await cli2.put_wait(
                        f"k{i}", f"v{i}", opid=f"pipe#{i}"
                    )
                    assert reply["ok"]
                # Read-your-writes across the disconnect.
                for i in range(3):
                    assert await cli2.get(f"k{i}") == f"v{i}"
                await cli2.close()
                await cli.close()

                # At-most-once: 1 base put + 3 replayed puts = exactly
                # 4 writes in the server-side session history.
                writes = [
                    entry for entry in srv.history["pipe"]
                    if entry[0] == "write"
                ]
                assert len(writes) == 4
                assert srv.metrics.counters["puts_deduped"] >= 1
                assert not srv.session_guarantee_violations()

        run(scenario)

    def test_resilient_client_replays_through_repeated_cuts(self):
        async def scenario():
            async with proxied_server() as (srv, proxy):
                cli = ServeClient(
                    "127.0.0.1", proxy.port, "chop", request_timeout=5.0,
                    heal=True,
                )
                await cli.connect()
                for i in range(6):
                    await cli.put_wait(f"k{i % 2}", f"v{i}")
                    if i % 2 == 1:
                        proxy.cut_all()
                        await asyncio.sleep(0.02)
                assert await cli.get("k1") == "v5"
                await cli.close()
                writes = [
                    entry for entry in srv.history["chop"]
                    if entry[0] == "write"
                ]
                assert len(writes) == 6  # every put applied exactly once
                assert cli.counters["reconnects"] >= 2
                assert not srv.session_guarantee_violations()

        run(scenario)


class TestOverload:
    def test_queue_full_shed_is_parseable_and_retryable(self):
        async def scenario():
            async with server(max_queue=1) as srv:
                cli = ServeClient("127.0.0.1", srv.port, "shed")
                await cli.connect()
                futures = [cli.put(f"k{i}", f"v{i}") for i in range(3)]
                replies = await asyncio.gather(*futures)
                overloads = [
                    r for r in replies if r.get("t") == FRAME_OVERLOAD
                ]
                assert overloads, "queue-full never shed"
                frame = overloads[0]
                assert frame["reason"] == "queue-full"
                assert frame["retry_after"] > 0
                assert frame["queue_depth"] >= 1
                assert srv.metrics.counters["sheds"] >= 1
                ok = [r for r in replies if r.get("ok")]
                assert ok, "the first put should have been admitted"
                reply = await cli.put_wait("k9", "v9")
                assert reply["ok"]
                await cli.close()

        run(scenario)

    def test_overload_raises_typed_error_on_waiting_verbs(self):
        async def scenario():
            # max_queue=0 sheds *everything*: the degenerate server that
            # only ever says "come back later".
            async with server(max_queue=0) as srv:
                cli = ServeClient("127.0.0.1", srv.port, "always")
                await cli.connect()
                with pytest.raises(ServeOverload) as excinfo:
                    await cli.put_wait("k", "v")
                assert excinfo.value.retry_after > 0
                await cli.close()

        run(scenario)

    def test_resilient_client_backs_off_then_gives_up(self):
        async def scenario():
            async with server(
                max_queue=0, overload_retry_after=0.01
            ) as srv:
                cli = ServeClient(
                    "127.0.0.1", srv.port, "stampede", request_timeout=5.0,
                    heal=True,
                )
                await cli.connect()
                with pytest.raises(GaveUp):
                    await asyncio.wait_for(cli.put_wait("k", "v"), 30)
                assert cli.counters["overloads"] == DEFAULT_OP_ATTEMPTS
                assert cli.counters["backoffs"] >= DEFAULT_OP_ATTEMPTS
                await cli.close()

        run(scenario)


class TestDeadlineAdmission:
    def test_expired_ttl_is_shed_not_executed(self):
        async def scenario():
            async with server() as srv:
                cli = ServeClient(
                    "127.0.0.1", srv.port, "ttl", request_timeout=None
                )
                await cli.connect()
                reply = await cli.submit(
                    {"t": "put", "key": "k", "value": "v", "ttl": 1e-6}
                )
                assert reply["t"] == FRAME_OVERLOAD
                assert reply["reason"] == "deadline"
                assert srv.metrics.counters["deadline_drops"] >= 1
                # The shed put must not have reached the session log.
                writes = [
                    entry for entry in srv.history.get("ttl", [])
                    if entry[0] == "write"
                ]
                assert not writes
                await cli.close()

        run(scenario)

    def test_generous_ttl_is_admitted(self):
        async def scenario():
            async with server() as srv:
                cli = ServeClient(
                    "127.0.0.1", srv.port, "ttl2", request_timeout=30.0
                )
                await cli.connect()
                reply = await cli.put_wait("k", "v")
                assert reply["ok"]
                assert srv.metrics.counters.get("deadline_drops", 0) == 0
                await cli.close()

        run(scenario)


class TestOpidDedupe:
    def test_dedupe_across_reconnect_returns_original_label(self):
        async def scenario():
            async with server() as srv:
                cli = ServeClient("127.0.0.1", srv.port, "dd")
                await cli.connect()
                first = await cli.put_wait("k", "v", opid="dd#0")
                token = cli.token
                await cli.close()

                cli2 = ServeClient(
                    "127.0.0.1", srv.port, "dd", token=token
                )
                await cli2.connect()
                second = await cli2.put_wait("k", "v", opid="dd#0")
                assert second.get("deduped") is True
                assert second["label"] == first["label"]
                await cli2.close()

                writes = [
                    entry for entry in srv.history["dd"]
                    if entry[0] == "write"
                ]
                assert len(writes) == 1
                assert srv.metrics.counters["puts_deduped"] == 1

        run(scenario)

    def test_distinct_opids_are_distinct_puts(self):
        async def scenario():
            async with server() as srv:
                cli = ServeClient("127.0.0.1", srv.port, "dd2")
                await cli.connect()
                await cli.put_wait("k", "v1", opid="dd2#0")
                await cli.put_wait("k", "v2", opid="dd2#1")
                assert await cli.get("k") == "v2"
                await cli.close()
                writes = [
                    entry for entry in srv.history["dd2"]
                    if entry[0] == "write"
                ]
                assert len(writes) == 2
                assert srv.metrics.counters["puts_deduped"] == 0

        run(scenario)


class TestHealFlag:
    def test_without_heal_awaited_verbs_fail_on_the_first_fault(self):
        """``heal=False``: one frame, one answer, no retry and no sleep —
        for an overload, an error reply and a dead connection alike."""

        async def scenario():
            async with server(max_queue=0) as srv:
                cli = ServeClient("127.0.0.1", srv.port, "plain")
                await cli.connect()
                before = srv.metrics.counters["frames_in"]
                with pytest.raises(ServeOverload):
                    await cli.put_wait("k", "v")
                assert srv.metrics.counters["frames_in"] - before == 1
                assert srv.metrics.counters["sheds"] == 1
                before = srv.metrics.counters["frames_in"]
                with pytest.raises(ServeError, match="unknown shard"):
                    await cli.chaos("crash", 99)
                assert srv.metrics.counters["frames_in"] - before == 1
                assert srv.metrics.counters["errors"] == 1
                assert cli.counters["attempts"] == 0
                assert cli.counters["backoffs"] == 0
                await cli.close()
            async with proxied_server() as (srv, proxy):
                cli = ServeClient("127.0.0.1", proxy.port, "plain")
                await cli.connect()
                proxy.cut_all()
                await asyncio.sleep(0.02)
                with pytest.raises(ServeError, match="not connected"):
                    await cli.get("k")
                assert proxy.counters["connections"] == 1
                assert cli.counters["reconnects"] == 0
                assert cli.counters["backoffs"] == 0
                await cli.close()

        run(scenario)

    def test_healing_connect_to_a_dead_port_gives_up_on_budget(self):
        async def scenario():
            cli = ServeClient("127.0.0.1", free_port(), "nobody", heal=True)
            with pytest.raises(GaveUp):
                await asyncio.wait_for(cli.connect(), 30)
            assert cli.counters["backoffs"] == DEFAULT_OP_ATTEMPTS
            assert not cli.connected
            await cli.close()

        run(scenario)

    def test_a_refused_hello_is_not_retried(self):
        """The server answered ``hello`` with an error: the token is the
        fault, so healing raises at once instead of backing off."""

        async def scenario():
            async with server() as srv:
                writer = ServeClient("127.0.0.1", srv.port, "w")
                await writer.connect()
                label = (await writer.put_wait("k", "v"))["label"]
                home = srv.cluster.ledger.shard_of(label)
                forged = (
                    '{"v":1,"session":"forger","frontier":{'
                    f'"{1 - home}":[["{label.sender}",{label.seqno}]]}}}}'
                )
                forger = ServeClient(
                    "127.0.0.1", srv.port, "forger", token=forged, heal=True
                )
                with pytest.raises(ServeError, match="belongs to shard") \
                        as refused:
                    await asyncio.wait_for(forger.connect(), 30)
                assert not isinstance(refused.value, GaveUp)
                assert srv.metrics.counters["errors"] == 1  # one hello
                assert forger.counters["backoffs"] == 0
                assert not forger.connected
                await forger.close()
                await writer.close()

        run(scenario)

    def test_reconnect_is_in_place(self):
        """The object, its counters and its rid sequence survive a
        reconnect, and so does the session's read-your-writes."""

        async def scenario():
            async with server() as srv:
                cli = ServeClient("127.0.0.1", srv.port, "inplace")
                await cli.connect()
                counters = cli.counters
                first = await cli.put_wait("k", "mine")
                hello = await cli.reconnect()
                assert hello is cli.hello_reply
                assert hello["token_labels_dropped"] == 0
                assert cli.counters is counters
                assert counters["reconnects"] == 1
                assert srv.metrics.counters["tokens_imported"] == 1
                # rid 0 hello, 1 put, 2 token, 3 hello, 4 this get.
                reply = await cli.get_submit("k")
                assert (first["rid"], reply["rid"]) == (1, 4)
                assert reply["value"] == "mine"
                await cli.close()
                assert srv.session_guarantee_violations() == []

        run(scenario)
