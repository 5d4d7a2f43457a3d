"""The serving heap is frozen at each batch cycle, and handed back.

The served path makes no reference cycles: a full collection after a
script of every verb finds no unreachable object.  So the collector's
walks over retained history are pure overhead, and each batch cycle
ends with ``gc.freeze()`` (:meth:`ServeServer._cycle`): the collector
only ever walks what the current cycle allocated.  Nothing frozen is
ever collected, so two release points give the heap back — a close
once the closes since the last reclaim outnumber the open connections
(``gc.unfreeze(); gc.collect()`` after asyncio has let go of the
transport, which on 3.10 / 3.11 is a reference cycle, skipped when no
cycle froze anything since the last one) and
:meth:`ServeServer.shutdown`.  The fixture in ``conftest.py`` unfreezes
after each test.
"""

from __future__ import annotations

import asyncio
import gc
import re
import weakref
from typing import Any, Dict, List

from repro.serve import ServeClient, ServeServer
from repro.serve.driver import FakeTransport, connect, frames, serving
from repro.serve.server import _Connection

SESSIONS = 2
DEPTH = 32


def put(rid: int, key: str, value: Any, **extra: Any) -> Dict[str, Any]:
    return {"t": "put", "rid": rid, "key": key, "value": value, **extra}


def put_frames(cycle: int, session: int) -> bytes:
    return frames(*(
        put(op, f"c{session}:k{op % 97}", f"c{session}:{op}", ttl=30.0)
        for op in range(cycle * DEPTH, (cycle + 1) * DEPTH)
    ))


def test_the_served_path_makes_no_reference_cycles():
    gc.disable()
    srv, loop = serving()
    a, ta = connect(srv, "a")
    b, tb = connect(srv, "b")
    replies: List[Dict[str, Any]] = []

    def step(reads: Dict[_Connection, bytes]) -> None:
        loop.now += 0.25
        for conn, data in reads.items():
            conn.data_received(data)
        loop.run_soon()

    for cycle in range(4):
        step({a: put_frames(cycle, 0), b: put_frames(cycle, 1)})
    step({
        a: frames(
            {"t": "get", "rid": 500, "key": "c0:k1"},
            put(501, "k", "x", opid="o1"),
            put(502, "k", "x", opid="o1"),  # a duplicate in the batch
            {"t": "read", "rid": 503},
            {"t": "stats", "rid": 504},
        ),
        b: frames(
            {"t": "chaos", "rid": 600, "action": "crash", "shard": 0,
             "member": "s0n0"},
            {"t": "get", "rid": 601, "key": "c1:k2"},
            put(602, 7, "no key"),  # refused per request
        ),
    })
    step({a: frames(put(505, "k", "x", opid="o1"))})  # a later duplicate
    step({b: frames(
        {"t": "chaos", "rid": 603, "action": "restart", "shard": 0,
         "member": "s0n0"},
        {"t": "read", "rid": 604, "shards": [0, 1]},
    )})
    for _ in range(3):
        srv._repair_round()
    # A reconnect: the old connection is lost, a new one presents the
    # session's token.
    b.data_received(frames({"t": "token", "rid": 605}))
    replies += tb.replies()
    token = replies[-1]["token"]
    b.connection_lost(None)
    b, tb = _Connection(srv), FakeTransport()
    b.connection_made(tb)
    step({b: frames(
        {"t": "hello", "rid": 0, "session": "b", "token": token},
        put(606, "c1:k1", "again"), {"t": "get", "rid": 607, "key": "c1:k1"},
    )})
    # A malformed frame fails its own connection, nobody else's.
    bad, bad_transport = connect(srv, "c")
    bad.data_received(b"\x00\x00\x00\x05{oops")
    step({a: put_frames(4, 0)})
    replies += ta.replies() + tb.replies()
    assert bad_transport.events()[-1] == "close"
    assert sum(1 for reply in replies if reply.get("deduped")) == 2
    assert {reply.get("action") for reply in replies} >= {"crash", "restart"}
    assert any(reply.get("error") == "put needs a string key"
               for reply in replies)
    assert srv._connections == {a, b}
    gc.unfreeze()
    assert gc.collect() == 0


def test_a_cycle_freezes_what_it_leaves_behind():
    srv, loop = serving()
    conns = [connect(srv, f"c{session}") for session in range(SESSIONS)]
    for cycle in range(3):
        for session, (conn, _transport) in enumerate(conns):
            conn.data_received(put_frames(cycle, session))
        before = gc.get_freeze_count()
        loop.run_soon()
        assert gc.get_freeze_count() - before >= SESSIONS * DEPTH
    for _conn, transport in conns:
        assert all(reply["ok"] for reply in transport.replies())


def test_stats_report_the_collector():
    srv, loop = serving()
    conn, transport = connect(srv, "a")
    conn.data_received(put_frames(0, 0))
    loop.run_soon()
    conn.data_received(frames({"t": "stats", "rid": 1}))
    reply = transport.replies()[-1]
    # The wire reply is a function of the frames and the seed: process
    # state stays out of it.
    assert "gc_frozen" not in reply["stats"]
    collector = srv.metrics.collector()
    assert collector["gc_frozen"] == gc.get_freeze_count() > 0
    assert len(collector["gc_collections"]) == 3
    frozen, full = collector["gc_frozen"], collector["gc_collections"][2]
    conn.data_received(frames({"t": "bye"}))
    loop.run_soon()  # the last client left: one full collection
    collector = srv.metrics.collector()
    # From 3.12 a collection parks immortal objects among the frozen.
    assert collector["gc_frozen"] < frozen
    assert collector["gc_collections"][2] == full + 1
    asyncio.run(srv.shutdown(heal=False))
    rendered = srv.metrics.render()
    assert re.search(r"^ +gc_frozen +0$", rendered, re.MULTILINE)
    assert "gc_collections" in rendered


def test_a_reclaim_collects_only_after_a_freeze():
    """One cycle, then two closes: the first close reclaims what the
    cycle froze; nothing was frozen since, so the second collects
    nothing (a full collection there cost 21-25 ms at each
    ``serial_crash`` wave end, and found nothing)."""
    gc.disable()
    srv, loop = serving()
    collections: List[int] = []

    def count(phase: str, info: Dict[str, int]) -> None:
        if phase == "start" and info["generation"] == 2:
            collections.append(1)

    conn, _transport = connect(srv, "a")
    conn.data_received(put_frames(0, 0))
    gc.callbacks.append(count)
    try:
        loop.run_soon()  # the cycle freezes the heap
        for session in "ab":
            if session != "a":
                conn, _transport = connect(srv, session)
            conn.connection_lost(None)
            loop.run_soon()
    finally:
        gc.callbacks.remove(count)
    assert srv._connections == set()
    assert len(collections) == 1


def test_the_served_path_makes_no_reference_cycles_over_real_sockets():
    """The premise holds for asyncio's own part of the served path too.

    The clients share the process, so their garbage would count as well.
    No client closes: on 3.10 / 3.11 a closed transport is a cycle, which
    the release points below collect.
    """
    async def main() -> int:
        srv = ServeServer(shards=2, repair_interval=0)
        await srv.start()
        clients = [ServeClient("127.0.0.1", srv.port, n) for n in "ab"]
        for client in clients:
            await client.connect()
        for op in range(40):
            await asyncio.gather(*(
                client.put_wait(f"{client.session}:{op % 5}", op)
                for client in clients
            ))
        assert await clients[0].get("a:1") == 36
        await clients[1].read()
        await clients[1].stats()
        await clients[0].chaos("crash", 0, "s0n0")
        await clients[0].put_wait("a:1", "while s0n0 is down")
        await clients[0].chaos("restart", 0, "s0n0")
        gc.unfreeze()
        unreachable = gc.collect()
        gc.enable()
        for client in clients:
            await client.close()
        await srv.shutdown()
        return unreachable

    gc.disable()
    assert asyncio.run(main()) == 0


def test_the_release_points_over_real_sockets():
    """A long-lived client stays connected while short ones connect, put
    and close.  A reclaim runs once the closes since the last one
    outnumber the open connections, so the closed server-side transports
    still alive never outnumber the open ones, and the last close leaves
    none.  After shutdown nothing is frozen."""
    async def main() -> List[weakref.ref]:
        srv = ServeServer(shards=2, repair_interval=0)
        await srv.start()
        monitor = ServeClient("127.0.0.1", srv.port, "monitor")
        await monitor.connect()
        clients = [ServeClient("127.0.0.1", srv.port, n) for n in "ab"]
        transports: List[weakref.ref] = []

        def alive() -> int:
            return sum(ref() is not None for ref in transports)

        async def settle(open_: int) -> None:
            for _ in range(500):
                if len(srv._connections) == open_ and alive() <= open_:
                    return
                await asyncio.sleep(0.01)

        for round_ in range(6):
            client = clients[round_ % 2]
            before = set(srv._connections)
            await (client.reconnect() if round_ >= 2 else client.connect())
            transports += [
                weakref.ref(conn.transport)
                for conn in srv._connections - before
            ]
            for op in range(8):
                await asyncio.gather(
                    client.put_wait(f"{client.session}:{op}", round_),
                    monitor.put_wait("monitor", op),
                )
            await client.close()
            await settle(1)
            assert alive() <= len(srv._connections) == 1
        await monitor.close()
        await settle(0)
        assert alive() == 0
        await srv.shutdown()
        assert gc.get_freeze_count() == 0
        return transports

    assert len(asyncio.run(main())) == 6
