"""The fault-injecting wire proxy: every verb, against a real server.

Each test drives a real :class:`ServeServer` through a
:class:`ChaosProxy` over localhost sockets and asserts the *client-side*
contract: faults surface as clean, bounded failures (never hangs), and
the self-healing pieces — deadlines, reconnects, opid idempotency —
absorb them without breaking the session.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager

import pytest

from repro.serve import ServeClient, ServeError, ServeServer
from repro.serve.faults import CLIENTWARD, ChaosProxy, WireFaultPlan
from repro.serve.resilient import ResilientClient


@asynccontextmanager
async def proxied_server(plan=None, **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("members_per_shard", 3)
    kwargs.setdefault("seed", 5)
    srv = ServeServer(**kwargs)
    await srv.start()
    proxy = ChaosProxy("127.0.0.1", srv.port, plan=plan)
    await proxy.start()
    try:
        yield srv, proxy
    finally:
        await proxy.stop()
        await srv.shutdown()


def run(coro_fn):
    return asyncio.run(coro_fn())


class TestProxyPassThrough:
    def test_clean_forwarding(self):
        async def scenario():
            async with proxied_server() as (srv, proxy):
                cli = ServeClient("127.0.0.1", proxy.port, "pt")
                await cli.connect()
                await cli.put_wait("k", "v")
                assert await cli.get("k") == "v"
                await cli.close()
                assert proxy.counters["frames"] > 0
                assert proxy.counters["connections"] == 1

        run(scenario)


class TestCut:
    def test_cut_all_fails_inflight_cleanly(self):
        async def scenario():
            async with proxied_server() as (srv, proxy):
                cli = ServeClient("127.0.0.1", proxy.port, "cut")
                await cli.connect()
                await cli.put_wait("k", "v0")
                proxy.stall_all(CLIENTWARD)  # park the replies...
                futures = [cli.put(f"k{i}", f"v{i}") for i in range(3)]
                await asyncio.sleep(0.05)
                assert proxy.cut_all(mid_frame=True) == 1
                for future in futures:
                    with pytest.raises(ServeError):
                        await asyncio.wait_for(future, 5)
                with pytest.raises(ServeError, match="not connected"):
                    cli.put("k", "after")
                await cli.close()

        run(scenario)

    def test_resilient_client_survives_cut(self):
        async def scenario():
            async with proxied_server() as (srv, proxy):
                cli = ResilientClient(
                    "127.0.0.1", proxy.port, "heal", request_timeout=5.0
                )
                await cli.connect()
                await cli.put("k", "v1")
                proxy.cut_all()
                await asyncio.sleep(0.02)
                # The next op reconnects (token-carrying) and succeeds;
                # read-your-writes must hold across the cut.
                assert await cli.get("k") == "v1"
                assert cli.counters["reconnects"] >= 1
                await cli.close()

        run(scenario)


class TestStallAndDeadline:
    def test_stalled_reply_hits_client_deadline(self):
        """A stalled (not closed) socket must not hang the caller: the
        per-request deadline fires, raises, and poisons the connection."""

        async def scenario():
            async with proxied_server() as (srv, proxy):
                cli = ServeClient(
                    "127.0.0.1", proxy.port, "stall", request_timeout=0.3
                )
                await cli.connect()
                proxy.stall_all(CLIENTWARD)
                with pytest.raises(ServeError, match="deadline"):
                    await asyncio.wait_for(cli.put_wait("k", "v"), 5)
                assert cli.timeouts == 1
                with pytest.raises(ServeError, match="not connected"):
                    cli.put("k", "again")
                proxy.resume_all()
                await cli.close()

        run(scenario)

    def test_resilient_client_rides_out_stall(self):
        async def scenario():
            async with proxied_server() as (srv, proxy):
                cli = ResilientClient(
                    "127.0.0.1", proxy.port, "ride", request_timeout=0.3
                )
                await cli.connect()
                await cli.put("k", "v1")
                proxy.stall_all(CLIENTWARD)
                asyncio.get_event_loop().call_later(0.5, proxy.resume_all)
                # First attempt times out; a later attempt (after the
                # stall lifts) succeeds on a fresh connection.
                assert await asyncio.wait_for(cli.get("k"), 10) == "v1"
                assert cli.counters["reconnects"] >= 1
                await cli.close()

        run(scenario)


class TestTruncation:
    def test_truncated_frame_is_a_clean_connection_loss(self):
        async def scenario():
            # Grace covers exactly the hello exchange (frame 0 in each
            # direction); the put is frame 1 and gets truncated.
            plan = WireFaultPlan(7, truncate_rate=1.0, grace_frames=1)
            async with proxied_server(plan) as (srv, proxy):
                cli = ServeClient(
                    "127.0.0.1", proxy.port, "trunc", request_timeout=2.0
                )
                await cli.connect()  # hello rides the grace window
                with pytest.raises(ServeError):
                    await asyncio.wait_for(cli.put_wait("k", "v"), 10)
                assert proxy.counters["truncations"] >= 1
                await cli.close()

        run(scenario)


class TestDuplication:
    def test_duplicated_put_applies_once_with_opid(self):
        """The proxy doubles every serverward frame; opid dedupe must
        keep the session history single-application."""

        async def scenario():
            plan = WireFaultPlan(3, dup_rate=1.0, grace_frames=1)
            async with proxied_server(plan) as (srv, proxy):
                cli = ServeClient("127.0.0.1", proxy.port, "dup")
                await cli.connect()
                reply = await cli.put_wait("k", "v1", opid="dup#0")
                assert reply["ok"]
                assert proxy.counters["dups"] >= 1
                writes = [
                    entry for entry in srv.history["dup"]
                    if entry[0] == "write"
                ]
                assert len(writes) == 1
                assert srv.metrics.counters["puts_deduped"] >= 1
                await cli.close()

        run(scenario)
