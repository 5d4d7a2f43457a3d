"""What a pipelined put costs, in Python calls, from its frame to its reply.

A put is one stamped broadcast (the paper's ``OSend``), so what the
server spends on it beyond the stamp is layering.  The loop-free driver
(:mod:`repro.serve.driver`) feeds the real server the frames a pipelined
load generator sends — two sessions, 32 puts each a cycle, ``ttl`` set —
and a ``sys.setprofile`` hook counts every Python ``call`` event between
the frames going in and the replies coming out: the read, the cycle, the
drive that delivers the puts and the reply encode.  A count, not a
time, so a busy host cannot make it flake.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List

from repro.serve.driver import connect, frames, serving

SESSIONS = 2
DEPTH = 32
WARM_CYCLES = 20
COUNTED_CYCLES = 10

#: Calls a put may make.  The layered path made 76; the lean pass
#: makes 42.92 on 3.10 and 3.11 and 42.88 on 3.12 (a put corks its
#: network with one call), and the bound is the largest plus 2.
MAX_CALLS_PER_PUT = 44.92


def put_frames(cycle: int, session: int) -> bytes:
    """One cycle's pipelined puts of one session, as the load generator
    shapes them (``rid`` then ``ttl`` after the payload)."""
    documents: List[Dict[str, Any]] = []
    for op in range(cycle * DEPTH, (cycle + 1) * DEPTH):
        documents.append({
            "t": "put", "key": f"c{session}:k{op % 97}",
            "value": f"c{session}:{op}", "rid": op, "ttl": 30.0,
        })
    return frames(*documents)


def test_a_pipelined_put_makes_few_calls():
    srv, loop = serving()
    conns = [connect(srv, f"c{session}") for session in range(SESSIONS)]

    def run(cycle: int, reads: List[bytes]) -> None:
        for (conn, _transport), data in zip(conns, reads):
            conn.data_received(data)
        loop.run_soon()

    for cycle in range(WARM_CYCLES):
        run(cycle, [put_frames(cycle, s) for s in range(SESSIONS)])
    for _conn, transport in conns:
        assert all(reply["ok"] for reply in transport.replies())
    counted = range(WARM_CYCLES, WARM_CYCLES + COUNTED_CYCLES)
    reads = [[put_frames(c, s) for s in range(SESSIONS)] for c in counted]
    calls = 0

    def profile(_frame, event, _arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        for cycle, data in zip(counted, reads):
            run(cycle, data)
    finally:
        sys.setprofile(None)
    puts = COUNTED_CYCLES * SESSIONS * DEPTH
    for _conn, transport in conns:
        replies = transport.replies()
        assert len(replies) == COUNTED_CYCLES * DEPTH
        assert all(reply["ok"] and reply["label"] for reply in replies)
    assert calls / puts <= MAX_CALLS_PER_PUT, calls / puts
