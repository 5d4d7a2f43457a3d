"""End-to-end serving-layer tests over real localhost sockets."""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager

import pytest

from repro.serve import ServeClient, ServeError, ServeServer, reconnect
from repro.serve.server import _PendingOp
from repro.serve.wire import read_frame, write_frame


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
async def client(srv: ServeServer, name: str = "c", token=None):
    cli = ServeClient("127.0.0.1", srv.port, name, token=token)
    await cli.connect()
    try:
        yield cli
    finally:
        await cli.close()


def run(coro_fn):
    return asyncio.run(coro_fn())


class TestBasics:
    def test_hello_reply_shape(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                reply = cli.hello_reply
                assert reply["wire_version"] == 1
                assert reply["shards"] == 2
                assert reply["token_labels_dropped"] == 0
                assert isinstance(reply["token"], str)

        run(scenario)

    def test_put_returns_label_and_token(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                reply = await cli.put_wait("k", "v")
                assert reply["ok"] and reply["label"] is not None
                assert cli.token == reply["token"]

        run(scenario)

    def test_get_is_read_your_writes(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", "v1")
                assert await cli.get("k") == "v1"
                assert await cli.get("missing") is None

        run(scenario)

    def test_unhashable_value_errors_without_poisoning_batch(self):
        """The black-box auditor keys observations by value, so values
        must be hashable; one bad op must not take down the ops pipelined
        alongside it."""

        async def scenario():
            async with server() as srv, client(srv) as cli:
                good = cli.put("good", "v")
                bad = cli.put("bad", {"nested": "dict"})
                assert (await good)["ok"]
                with pytest.raises(ServeError, match="hashable"):
                    await bad
                assert await cli.get("good") == "v"

        run(scenario)

    def test_barrier_read_spans_shards(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                for i in range(8):  # enough keys to hit both shards
                    await cli.put_wait(f"k{i}", i)
                snapshot = await cli.read()
                assert snapshot["shards"] == [0, 1]
                assert all(
                    snapshot["value"][f"k{i}"] == i for i in range(8)
                )
                assert srv.session_guarantee_violations() == []

        run(scenario)

    def test_pipelined_puts_batch_into_few_cycles(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                futures = [cli.put(f"k{i}", i) for i in range(20)]
                replies = await asyncio.gather(*futures)
                assert all(r["ok"] for r in replies)
                counters = srv.metrics.counters
                assert counters["puts"] == 20
                assert counters["batched_ops"] == 20
                # Pipelined submissions coalesce: far fewer drain cycles
                # than operations.
                assert counters["batches"] < 20

        run(scenario)

    def test_stats_report_graph_gauges(self):
        """`stats` carries the dependency-graph sizes, sampled on demand.

        The gauges count the ledger's graph only: a member's graph is a
        view derived when somebody asks, and a `stats` probe must not be
        what builds it.  Puts alone memoise no reachability closure; the
        first barrier read queries the ledger's graph (and only that one).
        """

        async def scenario():
            async with server() as srv, client(srv) as cli:
                empty = await cli.stats()
                assert (
                    empty["graph_nodes"],
                    empty["graph_closures"],
                    empty["graph_closure_kb"],
                ) == (0, 0, 0)
                await asyncio.gather(*(cli.put(f"k{i}", i) for i in range(40)))
                after_puts = await cli.stats()
                # One ledger insert a put; no member graph was derived.
                assert after_puts["graph_nodes"] == 40
                assert after_puts["graph_closures"] == 0
                assert all(
                    len(stack._graph) == 0
                    for group in srv.cluster.groups.values()
                    for stack in group.stacks.values()
                )
                await cli.read()
                after_read = await cli.stats()
                assert 0 < after_read["graph_closures"] <= 42
                assert all(
                    stack.graph.closure_footprint() == (0, 0)
                    for group in srv.cluster.groups.values()
                    for stack in group.stacks.values()
                )
                assert "graph_closures" in srv.metrics.render()

        run(scenario)

    def test_stats_report_transport_gauges(self):
        """`stats` carries the packing factor and the hold-back peak.

        Puts awaited one by one are cycles of one: every envelope is its
        own frame.  A pipelined burst leaves as one frame per (sender,
        destination), arrives in send order and is held back nowhere.
        """

        async def scenario():
            async with server() as srv, client(srv) as cli:
                empty = await cli.stats()
                assert (
                    empty["net_frames"],
                    empty["net_envelopes"],
                    empty["holdback_peak"],
                ) == (0, 0, 0)
                for i in range(4):
                    await cli.put_wait(f"k{i}", i)
                serial = await cli.stats()
                assert serial["net_envelopes"] == 4 * 3
                assert serial["net_frames"] == serial["net_envelopes"]
                await asyncio.gather(*(cli.put(f"p{i}", i) for i in range(40)))
                burst = await cli.stats()
                envelopes = burst["net_envelopes"] - serial["net_envelopes"]
                frames = burst["net_frames"] - serial["net_frames"]
                assert envelopes == 40 * 3
                cycles = srv.metrics.counters["batches"] - 4
                # One frame per member of each shard a cycle wrote to.
                assert 3 <= frames <= cycles * 2 * 3
                assert frames < envelopes
                assert burst["holdback_peak"] == 1
                assert "net_frames" in srv.metrics.render()

        run(scenario)

    def test_unknown_request_type_errors(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                with pytest.raises(ServeError, match="unknown request"):
                    await cli._request({"t": "teleport"})

        run(scenario)

    def test_read_with_unknown_shard_errors(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", 1)
                with pytest.raises(ServeError, match="unknown shard"):
                    await cli.read(shards=[0, 9])

        run(scenario)

    def test_malformed_read_shards_fail_only_that_read(self):
        """An unhashable ``shards`` entry used to raise inside the cycle,
        and the catch-all answered every op of every client in it with
        ``server error`` — applied puts included."""

        async def scenario():
            async with server() as srv, client(srv, "a") as a, \
                    client(srv, "b") as b:
                put = a.put("k", 1)
                bad = b.submit({"t": "read", "shards": [[0]]})
                reply = await put
                assert reply["ok"] and reply["label"] is not None
                with pytest.raises(ServeError, match="unknown shards"):
                    await bad
                assert await a.get("k") == 1
                assert (await b.read(shards=[0, 1]))["ok"]

        run(scenario)

    def test_boolean_read_shard_is_refused(self):
        """``True == 1``: a ``shards: [true]`` read used to be served as a
        read of shard 1, its reply echoing ``[true]``."""

        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", 1)
                with pytest.raises(ServeError, match="unknown shards"):
                    await cli.submit({"t": "read", "shards": [True]})
                assert await cli.get("k") == 1

        run(scenario)

    def test_boolean_ttl_sets_no_deadline(self):
        assert _PendingOp(None, {"t": "put", "ttl": True}, 5.0).deadline is None
        assert _PendingOp(None, {"t": "put", "ttl": 1}, 5.0).deadline == 6.0

    def test_request_before_hello_rejected(self):
        async def scenario():
            async with server() as srv:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port
                )
                write_frame(writer, {"t": "get", "key": "k", "rid": 0})
                await writer.drain()
                reply = await read_frame(reader)
                assert reply["t"] == "error"
                assert "hello required" in reply["error"]
                writer.close()

        run(scenario)


class TestSessionTokens:
    def test_reconnect_preserves_read_your_writes(self):
        async def scenario():
            async with server() as srv:
                cli = ServeClient("127.0.0.1", srv.port, "alice")
                await cli.connect()
                await cli.put_wait("k", "mine")
                cli = await reconnect(cli)
                assert await cli.get("k") == "mine"
                assert cli.hello_reply["token_labels_dropped"] == 0
                await cli.close()
                assert srv.session_guarantee_violations() == []

        run(scenario)

    def test_token_carries_frontier_to_a_fresh_session_name(self):
        """The token, not the server-side session entry, is the state."""

        async def scenario():
            async with server() as srv:
                async with client(srv, "writer") as writer:
                    await writer.put_wait("k", "from-writer")
                    token = await writer.fetch_token()
                async with client(srv, "heir", token=token) as heir:
                    assert await heir.get("k") == "from-writer"

        run(scenario)

    def test_malformed_token_is_an_error_reply(self):
        async def scenario():
            async with server() as srv:
                cli = ServeClient(
                    "127.0.0.1", srv.port, "x", token="{not json"
                )
                with pytest.raises(ServeError):
                    await cli.connect()
                await cli.close()

        run(scenario)

    def test_forged_token_is_refused_at_hello(self):
        """A token filing a label under the wrong shard used to be
        accepted; the session's first put then raised out of the batch
        cycle (every client's op in it answered ``server error``) and
        out of every repair round after it."""

        async def scenario():
            async with server() as srv, client(srv, "w") as writer:
                label = (await writer.put_wait("k", "v"))["label"]
                home = srv.cluster.ledger.shard_of(label)
                forged = (
                    '{"v":1,"session":"forger","frontier":{'
                    f'"{1 - home}":[["{label.sender}",{label.seqno}]]}}}}'
                )
                forger = ServeClient(
                    "127.0.0.1", srv.port, "forger", token=forged
                )
                with pytest.raises(ServeError, match="belongs to shard"):
                    await forger.connect()
                assert srv.cluster.router.session("forger").frontier == {}
                # The refusal is per request: a corrected hello on the
                # same connection is accepted, and its put shares a
                # cycle with another client's without harming it.
                await forger.submit({"t": "hello", "session": "forger"})
                mine, theirs = forger.put("k", "v2"), writer.put("j", "v3")
                assert (await mine)["ok"] and (await theirs)["ok"]
                srv._repair_round()
                assert srv.check_invariants() == []
                await forger.close()

        run(scenario)


class TestSessionLog:
    def test_a_read_pipelined_ahead_of_a_put_is_recorded_in_issue_order(self):
        """The read used to reach the history when its reply was built —
        after the put behind it had issued — so the white-box audit
        reported a read-your-writes violation for a correct run."""

        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", "v1")
                read, put = cli.submit({"t": "read"}), cli.put("k", "v2")
                assert (await read)["value"] == {"k": "v1"}
                assert (await put)["ok"]
                assert [kind for kind, _ in srv.history["c"]] == [
                    "write", "read", "write",
                ]
                assert srv.session_guarantee_violations() == []

        run(scenario)


class TestAdmissionControl:
    def test_small_cap_stalls_but_completes(self):
        async def scenario():
            async with server(max_inflight=2) as srv:
                async with client(srv) as cli:
                    futures = [cli.put(f"k{i}", i) for i in range(20)]
                    replies = await asyncio.gather(*futures)
                    assert all(r["ok"] for r in replies)
                    assert srv.metrics.counters["admission_waits"] > 0
                    assert srv.metrics.counters["puts"] == 20

        run(scenario)


class TestChaosOverTheWire:
    def test_crash_mid_run_keeps_guarantees(self):
        async def scenario():
            async with server() as srv:
                async with client(srv) as cli:
                    for i in range(6):
                        await cli.put_wait(f"k{i}", i)
                    crashed = await cli.chaos("crash", shard=0)
                    assert crashed["member"].startswith("s0")
                    for i in range(6, 12):
                        await cli.put_wait(f"k{i}", i)
                    snapshot = await cli.read()
                    assert all(
                        snapshot["value"][f"k{i}"] == i for i in range(12)
                    )
                assert srv.session_guarantee_violations() == []
            # Graceful shutdown healed the crash before the audit.
            assert srv.heal_violations == []
            assert srv.check_invariants() == []

        run(scenario)

    def test_refuses_to_crash_last_member(self):
        async def scenario():
            async with server() as srv:
                async with client(srv) as cli:
                    first = await cli.chaos("crash", shard=1)
                    second = await cli.chaos("crash", shard=1)
                    assert first["member"] != second["member"]
                    with pytest.raises(ServeError, match="last member"):
                        await cli.chaos("crash", shard=1)

        run(scenario)

    @pytest.mark.parametrize("frame", [
        {"action": "crash", "shard": 0, "member": "nope"},
        {"action": "restart", "shard": 0, "member": "nope"},
        {"action": "crash", "shard": 0, "member": ["s0n0"]},
        {"action": "crash", "shard": [0]},
        {"action": "crash", "shard": True},
    ], ids=[
        "crash-unknown-member", "restart-unknown-member",
        "unhashable-member", "unhashable-shard", "boolean-shard",
    ])
    def test_malformed_chaos_frame_is_a_per_request_error(self, frame):
        """A member the shard does not have, or an unhashable field, used
        to raise out of the handler and drop the connection with every
        request pipelined on it."""

        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", "v")
                behind = cli.put("k2", "v2")
                with pytest.raises(ServeError, match="unknown (shard|member)"):
                    await cli._request({"t": "chaos", **frame})
                assert (await behind)["ok"]
                assert await cli.get("k") == "v"
                assert all(
                    not stack.crashed
                    for group in srv.cluster.groups.values()
                    for stack in group.stacks.values()
                )

        run(scenario)

    def test_restart_rejoins_traffic(self):
        async def scenario():
            async with server() as srv:
                async with client(srv) as cli:
                    crashed = await cli.chaos("crash", shard=0)
                    await cli.put_wait("k", "while-down")
                    await cli.chaos(
                        "restart", shard=0, member=crashed["member"]
                    )
                    await cli.put_wait("k2", "after-restart")
                    assert await cli.get("k") == "while-down"
                assert srv.session_guarantee_violations() == []

        run(scenario)


class TestGracefulDrain:
    def test_shutdown_says_bye_and_audits_clean(self):
        async def scenario():
            srv = ServeServer(shards=2, members_per_shard=3, seed=5)
            await srv.start()
            cli = ServeClient("127.0.0.1", srv.port, "s")
            await cli.connect()
            await cli.put_wait("k", 1)
            await srv.shutdown()
            # The recv loop saw the server-initiated bye frame.
            for _ in range(50):
                if cli.server_said_bye:
                    break
                await asyncio.sleep(0.01)
            assert cli.server_said_bye
            assert srv.heal_violations == []
            assert srv.check_invariants() == []
            with pytest.raises(ServeError):
                await cli.put_wait("k", 2)
            await cli.close()

        run(scenario)

    def test_requests_during_drain_are_rejected(self):
        async def scenario():
            async with server() as srv:
                async with client(srv) as cli:
                    await cli.put_wait("k", 1)
                    srv._draining = True
                    with pytest.raises(ServeError, match="draining"):
                        await cli.put_wait("k", 2)
                    srv._draining = False

        run(scenario)
