"""A seeded served workload writes the same bytes in every process.

The loop-free driver (:mod:`repro.serve.driver`) runs one scripted
workload against the real server — pipelined puts, gets and barrier
reads from two sessions over a scripted clock, with ``s0n0`` crashed and
later restarted through ``chaos`` frames — in two fresh interpreters
under ``PYTHONHASHSEED=0``.  Every write, pause and resume each
transport saw must be byte-identical across the two: the put path
(sender choice, stamps, corked frames, filing, replies) reads no
hash order and no clock but the driver's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

SCRIPT = textwrap.dedent("""
    import hashlib, json
    from repro.serve.driver import connect, frames, serving

    def put(rid, key, value):
        return {"t": "put", "key": key, "value": value, "rid": rid, "ttl": 30.0}

    srv, loop = serving(seed=3)
    (a, ta), (b, tb) = connect(srv, "a"), connect(srv, "b")
    for step in range(12):
        loop.now = 1.0 + step * 0.5
        base = step * 100
        a.data_received(frames(
            *(put(base + i, f"k{(step * 8 + i) % 11}", f"a{step}.{i}")
              for i in range(8)),
            {"t": "get", "rid": base + 50, "key": f"k{step % 11}"},
        ))
        b.data_received(frames(
            {"t": "get", "rid": base + 60, "key": f"k{(step + 5) % 11}"},
            put(base + 61, f"k{step % 11}", f"b{step}"),
            {"t": "read", "rid": base + 62},
        ))
        if step in (3, 8):
            action = "crash" if step == 3 else "restart"
            b.data_received(frames({
                "t": "chaos", "rid": base + 70, "action": action,
                "shard": 0, "member": "s0n0",
            }))
        loop.now += 0.25
        loop.run_soon()
    logs = [ta.log, tb.log]
    replies = ta.replies() + tb.replies()
    print(json.dumps({
        "digest": hashlib.sha256(repr(logs).encode()).hexdigest(),
        "writes": [sum(1 for e in log if e[0] == "write") for log in logs],
        "ok": sorted(r["rid"] for r in replies if r.get("ok")),
        "chaos": sorted(r["action"] for r in replies if "action" in r),
    }))
""")


def served_run() -> str:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = str(REPO / "src")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, cwd=str(REPO),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_seeded_served_workload_writes_the_same_bytes_twice():
    first, second = served_run(), served_run()
    assert first == second
    result = json.loads(first)
    assert result["chaos"] == ["crash", "restart"]
    ok = set(result["ok"])
    # Every put, every get and every read was answered.
    for step in range(12):
        base = step * 100
        assert {base + i for i in range(8)} <= ok
        assert {base + 50, base + 60, base + 61, base + 62} <= ok
