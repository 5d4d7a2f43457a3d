"""What a barrier read costs, in Python calls, and that it asks no graph.

A barrier read is one non-commutative broadcast per shard whose cut is
what its contact had settled (the paper's Section 4 stable point), so
the server's work on it is its stamp, its closure check, its fold and
the session's absorb — each sized by what changed since the last read,
none a question to the ledger's dependency graph.  The loop-free driver
(:mod:`repro.serve.driver`) feeds the real server ``barrier_mix``-shaped
cycles — two sessions, puts on shared keys, a read ending each window —
and a ``sys.setprofile`` hook counts every Python ``call`` event of the
read-only cycles between them, from the frames going in to the replies
coming out.  A count, not a time, so a busy host cannot make it flake.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List

from repro.serve.driver import connect, frames, serving

SESSIONS = 2
#: Puts a session sends before each read: ``barrier_mix`` is 90 / 10.
PUTS = 9
KEYS = 64
WARM_CYCLES = 20
COUNTED_CYCLES = 10

#: Calls a read may make, its share of the drive included.  Cuts kept
#: as masks over the ledger graph made 724.3 a read on 3.11, and left a
#: memoised closure per ledger record; the graph-free read makes 480.5,
#: and the bound is that plus 10 %.
MAX_CALLS_PER_READ = 529.0


def put_frames(cycle: int, session: int) -> bytes:
    documents: List[Dict[str, Any]] = []
    for op in range(cycle * PUTS, (cycle + 1) * PUTS):
        documents.append({
            "t": "put", "key": f"k{(op * 7 + session) % KEYS}",
            "value": f"c{session}:{op}", "rid": op, "ttl": 30.0,
        })
    return frames(*documents)


def read_frame(cycle: int) -> bytes:
    return frames({"t": "read", "rid": 10_000 + cycle, "ttl": 30.0})


def test_a_barrier_read_makes_few_calls_and_builds_no_graph():
    srv, loop = serving()
    conns = [connect(srv, f"c{session}") for session in range(SESSIONS)]

    def run(reads: List[bytes]) -> None:
        for (conn, _transport), data in zip(conns, reads):
            conn.data_received(data)
        loop.run_soon()

    for cycle in range(WARM_CYCLES):
        run([put_frames(cycle, s) for s in range(SESSIONS)])
        run([read_frame(cycle)] * SESSIONS)
    for _conn, transport in conns:
        replies = transport.replies()
        assert len(replies) == WARM_CYCLES * (PUTS + 1)
        assert all(reply["ok"] for reply in replies)
    calls = 0

    def profile(_frame, event, _arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    for cycle in range(WARM_CYCLES, WARM_CYCLES + COUNTED_CYCLES):
        run([put_frames(cycle, s) for s in range(SESSIONS)])
        data = [read_frame(cycle)] * SESSIONS
        sys.setprofile(profile)
        try:
            run(data)
        finally:
            sys.setprofile(None)
    reads = COUNTED_CYCLES * SESSIONS
    for _conn, transport in conns:
        replies = [r for r in transport.replies() if "value" in r]
        assert len(replies) == COUNTED_CYCLES
        assert all(reply["ok"] and len(reply["value"]) == KEYS for reply in replies)
    assert calls / reads <= MAX_CALLS_PER_READ, calls / reads
    gauges = srv.cluster.gauges()
    assert (gauges["graph_closures"], gauges["graph_catchups"]) == (0, 0)
