"""Replica-routed gets: issue order, eligibility gating, spread, failover.

A ``get`` is a session verb: the server hands it to its session in wire
order, and the session serves it — behind its earlier operations, ahead
of its later ones — from any up member of the key's shard whose settled
prefix covers the session token's projection onto that shard, round-
robin over the covering set.  With nobody covering, the get waits a
bounded time and is then refused with a parseable ``error``.  These
tests drive the whole stack over localhost sockets.
"""

from __future__ import annotations

import asyncio
import inspect
import random
import time
from collections import deque
from contextlib import asynccontextmanager

import pytest

from repro.analysis.wire_history import (
    WireHistory,
    WireRecorder,
    check_wire_history,
    corrupt_stale_read,
)
from repro.serve import ServeClient, ServeError, ServeServer


@asynccontextmanager
async def server(**kwargs):
    kwargs.setdefault("shards", 1)
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


def replica_counters(srv) -> dict:
    return {
        key: value
        for key, value in srv.metrics.counters.items()
        if key.startswith("replica_reads_")
    }


def test_option_surface_is_pinned():
    """The read path takes no options: one rule, nothing to select."""
    parameters = list(inspect.signature(ServeServer.__init__).parameters)
    assert parameters == [
        "self", "cluster", "shards", "members_per_shard", "seed", "host",
        "port", "max_inflight", "repair_interval", "max_queue",
        "overload_retry_after",
    ]
    for removed in (
        {"read_policy": "replica"},
        {"read_fallback": "forward"},
        {"retry_after": 0.1},
    ):
        with pytest.raises(TypeError):
            ServeServer(**removed)
    with pytest.raises(TypeError):
        ServeClient("127.0.0.1", 1, "c").get("k", retries=1)


class TestDirectGets:
    def test_direct_get_names_its_replica(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", "v")
                reply = await cli.get_submit("k")
                assert reply["value"] == "v"
                assert isinstance(reply["replica"], str)
                assert reply["shard"] in srv.cluster.groups
                assert srv.metrics.counters["gets_direct"] == 1
                assert srv.session_guarantee_violations() == []

        run(scenario)

    def test_round_robin_spreads_over_covering_replicas(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", "v")
                served = set()
                for _ in range(6):
                    # The cursor walks the whole eligible set.
                    reply = await cli.submit({"t": "get", "key": "k"})
                    assert reply["value"] == "v"
                    served.add(reply["replica"])
                assert len(served) == 3
                assert set(replica_counters(srv)) == {
                    f"replica_reads_{member}" for member in served
                }

        run(scenario)

    @pytest.mark.parametrize("hint", ["unknown", "crashed", "non-covering"])
    def test_replica_field_from_old_clients_is_ignored(self, hint):
        """Clients that still echo a ``replica`` hint are served normally."""

        async def scenario():
            async with server(repair_interval=0) as srv, client(srv) as cli:
                await cli.put_wait("k", "v")
                (shard, group), = srv.cluster.groups.items()
                # Not the write's origin: a restarted origin replays its
                # outbox and would cover the floor again at once.
                named = group.members[1]
                if hint == "unknown":
                    named = "no-such-member"
                elif hint == "crashed":
                    group.crash(named)
                else:
                    group.crash(named)
                    group.restart(named)
                    session = srv.cluster.router.session("c")
                    _shard, _slot, floor = session.read_floor("k")
                    assert not srv.cluster.covers(shard, named, floor)
                for _ in range(4):
                    reply = await cli.submit(
                        {"t": "get", "key": "k", "replica": named}
                    )
                    assert reply["value"] == "v"
                    assert reply["replica"] in group.members
                    assert reply["replica"] != named
                assert srv.session_guarantee_violations() == []

        run(scenario)

    def test_pipelined_put_then_get_keeps_issue_order(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                # The get is submitted while the put is still in flight:
                # the direct path must decline (ops pending in the batch
                # pipeline) and the cycle path must observe the put.
                put = cli.put("k", "pipelined")
                get = cli.get_submit("k")
                assert (await put)["ok"]
                assert (await get)["value"] == "pipelined"
                assert srv.metrics.counters.get("gets_direct", 0) == 0
                assert srv.metrics.counters["gets_cycle"] == 1
                assert srv.session_guarantee_violations() == []

        run(scenario)

    def test_get_never_sees_a_put_pipelined_behind_it(self):
        """Regression: the burst put(other); get(k); put(k, "v2").

        The get used to join the batch cycle and be answered after the
        cycle's drain, by which time the put behind it had landed.
        """

        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", "v1")
                other = cli.put("other", "x")
                get = cli.get_submit("k")
                later = cli.put("k", "v2")
                assert (await get)["value"] == "v1"
                assert (await other)["ok"] and (await later)["ok"]
                assert await cli.get("k") == "v2"
                assert srv.cluster.ledger.get_violations() == []

        run(scenario)

    def test_non_string_key_is_a_per_op_error(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                with pytest.raises(ServeError, match="get needs a string key"):
                    await cli.submit({"t": "get", "key": 7})
                assert (await cli.put_wait("k", "v"))["ok"]

        run(scenario)


async def drive_mixed(cli: ServeClient, recorder: WireRecorder, seed: int):
    """400 ops at depth 32, 70 % get / 30 % put over 4 private keys.

    No key avoidance: a put may follow a still-unanswered get of the
    same key.  The recorder is fed in issue order, whatever order the
    replies resolve in.
    """
    rng = random.Random(seed)
    keys = [f"{cli.session}.k{i}" for i in range(4)]
    inflight = deque()

    async def settle():
        kind, key, value, future = inflight.popleft()
        reply = await future
        if kind == "put":
            recorder.put(key, value)
        else:
            recorder.get(key, reply["value"])

    for index in range(400):
        key = rng.choice(keys)
        if rng.random() < 0.3:
            value = f"{cli.session}:{index}"
            inflight.append(("put", key, value, cli.put(key, value)))
        else:
            inflight.append(("get", key, None, cli.get_submit(key)))
        if len(inflight) == 32:
            await settle()
    while inflight:
        await settle()


class TestIssueOrder:
    def test_pipelined_same_key_traffic_is_causally_consistent(self):
        """Regression: black-box ``cyclic-co`` the white-box audit missed.

        A get answered after its cycle's drain returned a put the same
        session pipelined behind it; the server's own audit recorded
        gets in answer order and so saw nothing.
        """

        async def scenario():
            async with server() as srv:
                async with client(srv, "a") as a, client(srv, "b") as b:
                    recorders = [WireRecorder("a"), WireRecorder("b")]
                    await asyncio.gather(
                        drive_mixed(a, recorders[0], 1),
                        drive_mixed(b, recorders[1], 2),
                    )
                history = WireHistory.merge(recorders)
                assert len(history) == 800
                assert check_wire_history(
                    history, levels=("CC", "CCv")
                ) == []
                assert srv.session_guarantee_violations() == []
                # Non-vacuity: the same check flags a planted stale read.
                assert check_wire_history(
                    corrupt_stale_read(history), levels=("CC", "CCv")
                )
                counters = srv.metrics.counters
                assert counters["gets_direct"] and counters["gets_cycle"]
                assert (
                    counters["gets_direct"] + counters["gets_cycle"]
                    == counters["gets"]
                )
                assert len(replica_counters(srv)) >= 2

        run(scenario)


def orphan_the_write(srv):
    """Leave no up replica covering the session's floor.

    The write's origin goes down (its outbox replay would self-recover
    it); the other two members restart amnesiac — up, in view, but with
    empty settled prefixes that cover nothing.
    """
    (group,) = srv.cluster.groups.values()
    origin, *others = group.members
    group.crash(origin)
    for member in others:
        group.crash(member)
        group.restart(member)
    return group, origin


class TestUncoveredFloor:
    def test_uncovered_floor_is_a_bounded_wait_then_a_refusal(self):
        """Never an answer no replica holds: wait, then a parseable error."""

        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", "v")
                group, origin = orphan_the_write(srv)
                started = time.perf_counter()
                with pytest.raises(ServeError, match="get aborted"):
                    await cli.get("k")
                assert time.perf_counter() - started < 1.0
                assert (await cli.stats())["read_misses"] >= 1
                # The refusal is per-op: the connection stays usable.
                assert (await cli.put_wait("k2", "w"))["ok"]
                # Recovery: the origin comes back, replays its outbox,
                # and anti-entropy refills the amnesiacs.
                group.restart(origin)
                srv._repair_round()
                reply = await cli.get_submit("k")
                assert reply["value"] == "v"
                assert reply["replica"] in group.members
                assert srv.session_guarantee_violations() == []

        run(scenario)


class TestReadMisses:
    def test_in_cycle_miss_is_counted(self):
        """Regression: only misses at dispatch reached ``read_misses``.

        A get pipelined behind its session's put joins that put's cycle;
        handed over before the drain, it finds the put still corked, no
        member covers its floor, and it waits on the sim-time retry.  The
        decision is ``read_replica``'s, so the miss is counted there.
        """

        async def scenario():
            async with server() as srv, client(srv) as cli:
                put = cli.put("k", "v")
                get = cli.get_submit("k")
                assert (await put)["ok"]
                assert (await get)["value"] == "v"
                stats = await cli.stats()
                assert stats["gets_cycle"] == 1
                assert stats["read_misses"] >= 1
                assert "read_misses" in srv.metrics.render()

        run(scenario)


class TestFailover:
    def test_killing_the_serving_replica_reroutes(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", "v")
                target = (await cli.get_submit("k"))["replica"]
                (shard,) = srv.cluster.groups
                await cli.chaos("crash", shard, target)
                # Every later get is rerouted to a covering survivor.
                for _ in range(3):
                    reply = await cli.get_submit("k")
                    assert reply["value"] == "v"
                    assert reply["replica"] != target
                assert srv.session_guarantee_violations() == []

        run(scenario)


class TestGetAudit:
    def test_clean_run_has_no_get_violations(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", "v1")
                await cli.put_wait("k", "v2")
                assert await cli.get("k") == "v2"
                assert srv.cluster.ledger.get_violations() == []

        run(scenario)

    def test_stale_serve_is_flagged(self):
        async def scenario():
            async with server() as srv, client(srv) as cli:
                await cli.put_wait("k", "v1")
                await cli.put_wait("k", "v2")
                first, _second = srv.cluster.ledger.issue_order
                (shard,) = srv.cluster.groups
                # Fabricate the bug the audit exists for: a get answered
                # with the older write after the session issued a newer
                # one.
                srv.history["c"].append(("get", ("k", shard, first, "s0n0")))
                violations = srv.cluster.ledger.get_violations()
                assert len(violations) == 1
                assert violations[0].guarantee == "get-freshness"
                assert violations[0].session == "c"

        run(scenario)
