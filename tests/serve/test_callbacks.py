"""The server's semantics with no event loop and no ports.

:class:`ServeServer` is driven here the way asyncio drives it: through
its connections' ``asyncio.Protocol`` callbacks, each a synchronous
step.  A :class:`FakeTransport` records what the server writes and when
it pauses or resumes reading; a :class:`FakeLoop` stands in for what
the server asks of the event loop when it is not started: ``time``,
which the test sets, and ``call_soon``, whose callbacks run only when
the test says so.  Only ``shutdown``, a coroutine, runs under
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.serve import ServeServer
from repro.serve.server import _Connection
from repro.serve.wire import (
    MAX_FRAME, decode_frame, encode_frame, split_frames,
)


class FakeLoop:
    def __init__(self) -> None:
        self.now = 0.0
        self.soon: List[Tuple[Any, tuple]] = []

    def time(self) -> float:
        return self.now

    def call_soon(self, callback, *args) -> None:
        self.soon.append((callback, args))

    def run_soon(self) -> None:
        """Run the scheduled callbacks, and any they schedule."""
        while self.soon:
            callback, args = self.soon.pop(0)
            callback(*args)


class FakeTransport:
    def __init__(self) -> None:
        #: ("write", bytes) / ("pause",) / ("resume",) / ("close",) /
        #: ("abort",), in call order.
        self.log: List[tuple] = []
        self.buffered = 0
        self._read = 0

    def write(self, data: bytes) -> None:
        self.log.append(("write", data))

    def pause_reading(self) -> None:
        self.log.append(("pause",))

    def resume_reading(self) -> None:
        self.log.append(("resume",))

    def get_write_buffer_size(self) -> int:
        return self.buffered

    def close(self) -> None:
        self.log.append(("close",))

    def abort(self) -> None:
        self.log.append(("abort",))

    def events(self) -> List[str]:
        return [entry[0] for entry in self.log]

    def replies(self) -> List[Dict[str, Any]]:
        """Every frame written since the last call, decoded."""
        blob = bytearray(b"".join(
            entry[1] for entry in self.log[self._read:] if entry[0] == "write"
        ))
        self._read = len(self.log)
        frames = [decode_frame(body) for body in split_frames(blob)]
        assert not blob, "a write ended mid-frame"
        return frames


def serving(**kwargs) -> Tuple[ServeServer, FakeLoop]:
    srv = ServeServer(shards=2, members_per_shard=3, seed=5, **kwargs)
    loop = srv._loop = FakeLoop()
    return srv, loop


def connect(
    srv: ServeServer, session: str
) -> Tuple[_Connection, FakeTransport]:
    conn, transport = _Connection(srv), FakeTransport()
    conn.connection_made(transport)
    conn.data_received(frames({"t": "hello", "rid": 0, "session": session}))
    assert transport.replies()[0]["ok"]
    return conn, transport


def frames(*documents: Dict[str, Any]) -> bytes:
    return b"".join(encode_frame(document) for document in documents)


def put(rid: int, key: str, value: Any, **extra: Any) -> Dict[str, Any]:
    return {"t": "put", "rid": rid, "key": key, "value": value, **extra}


class TestOneStepAtATime:
    def test_hello_put_cycle_get(self):
        srv, loop = serving()
        conn, transport = connect(srv, "s")
        conn.data_received(frames(put(1, "k", "v"), put(2, "j", "w")))
        assert transport.replies() == []  # queued for the cycle
        assert len(loop.soon) == 1  # one call_soon a cycle
        loop.run_soon()
        first, second = transport.replies()
        assert (first["rid"], second["rid"]) == (1, 2)
        assert first["ok"] and first["label"] is not None
        assert srv.metrics.counters["batches"] == 1
        conn.data_received(frames({"t": "get", "rid": 3, "key": "k"}))
        (reply,) = transport.replies()  # answered on the spot
        assert reply["value"] == "v" and loop.soon == []
        assert srv.metrics.counters["gets_direct"] == 1

    def test_one_read_past_max_inflight_parks_and_resumes(self):
        srv, loop = serving(max_inflight=4)
        conn, transport = connect(srv, "s")
        seen = []
        enqueue = srv._enqueue

        def watched(op):
            seen.append(op.conn.inflight)
            enqueue(op)

        srv._enqueue = watched
        conn.data_received(frames(*(put(r, f"k{r}", r) for r in range(40))))
        assert conn.inflight == 4 and transport.events()[-1] == "pause"
        loop.run_soon()
        answered = transport.replies()
        assert [reply["rid"] for reply in answered] == list(range(40))
        assert all(reply["ok"] for reply in answered)
        assert len(seen) == 40 and max(seen) == 4
        # Parked at frames 4, 8, ..., 36: each park pauses reading, and
        # the cycle that frees a slot resumes it.
        assert srv.metrics.counters["admission_waits"] == 9
        flow = [event for event in transport.events() if event != "write"]
        assert flow == ["pause", "resume"] * 9
        assert srv.metrics.counters["wire_writes"] == 1 + 10

    def test_reading_resumes_only_when_no_park_and_no_lag_holds_it(self):
        srv, loop = serving(max_inflight=1)
        conn, transport = connect(srv, "s")
        conn.data_received(frames(put(0, "a", 0), put(1, "b", 1)))  # parks
        conn.pause_writing()
        conn.resume_writing()  # still parked: still paused
        conn.pause_writing()
        loop.run_soon()  # unparked while the peer lags: still paused
        assert [r["rid"] for r in transport.replies()] == [0, 1]
        conn.resume_writing()
        flow = [event for event in transport.events() if event != "write"]
        assert flow == ["pause", "pause", "pause", "resume"]

    def test_pause_writing_parks_reading_while_cycles_answer(self):
        srv, loop = serving()
        slow, slow_transport = connect(srv, "slow")
        fast, fast_transport = connect(srv, "fast")
        slow.data_received(frames(put(1, "a", 1)))
        slow.pause_writing()
        assert slow_transport.events() == ["write", "pause"]
        fast.data_received(frames(put(1, "b", 2)))
        loop.run_soon()
        # One cycle answered both; the paused peer's reply is buffered by
        # its transport, and reading stays paused.
        assert [r["ok"] for r in fast_transport.replies()] == [True]
        assert [r["ok"] for r in slow_transport.replies()] == [True]
        assert srv.metrics.counters["batches"] == 1
        assert "resume" not in slow_transport.events()
        slow.resume_writing()
        assert slow_transport.events()[-1] == "resume"

    def test_frames_after_a_bye_in_one_read_are_not_dispatched(self):
        srv, loop = serving()
        conn, transport = connect(srv, "s")
        conn.data_received(
            frames(put(1, "k", 1), {"t": "bye"}, put(2, "k", 2))
        )
        assert transport.events()[-1] == "close"
        assert srv.metrics.counters["frames_in"] == 1 + 3
        loop.run_soon()
        assert [kind for kind, _ in srv.history["s"]] == ["write"]
        assert srv.metrics.counters["puts"] == 1
        assert transport.replies() == []  # the connection is gone
        assert srv.metrics.counters["connections_closed"] == 1

    def test_oversize_prefix_after_complete_frames(self):
        srv, _loop = serving()
        conn, transport = connect(srv, "s")
        conn.data_received(
            frames({"t": "token", "rid": 1}, {"t": "token", "rid": 2})
            + (MAX_FRAME + 1).to_bytes(4, "big") + b"{" * 16
        )
        first, second, error = transport.replies()
        assert (first["rid"], second["rid"]) == (1, 2)
        assert error["t"] == "error" and "exceeds MAX_FRAME" in error["error"]
        assert transport.events()[-2:] == ["write", "close"]
        assert transport.events().count("write") == 2  # hello, then one

    def test_eof_mid_frame(self):
        srv, _loop = serving()
        conn, transport = connect(srv, "s")
        frame = encode_frame({"t": "get", "rid": 1, "key": "k"})
        conn.data_received(frame[: len(frame) // 2])
        assert transport.replies() == []
        conn.eof_received()
        (error,) = transport.replies()
        assert error["t"] == "error" and "closed mid-frame" in error["error"]
        assert transport.events()[-1] == "close"
        conn.connection_lost(None)
        assert srv.metrics.counters["connections_closed"] == 1
        assert srv._connections == set()

    def test_ttl_deadline_is_read_against_now(self):
        srv, loop = serving()
        conn, transport = connect(srv, "s")
        loop.now = 10.0
        conn.data_received(
            frames(put(1, "k", 1, ttl=1.0), put(2, "j", 2, ttl=5.0))
        )
        loop.now = 12.0  # past the first deadline, inside the second
        loop.run_soon()
        shed, applied = transport.replies()
        assert shed["t"] == "overload" and shed["reason"] == "deadline"
        assert applied["ok"]
        assert srv.metrics.counters["deadline_drops"] == 1
        assert [kind for kind, _ in srv.history["s"]] == ["write"]

    def test_a_duplicated_opid_in_one_batch_applies_once(self):
        srv, loop = serving()
        conn, transport = connect(srv, "s")
        conn.data_received(
            frames(put(1, "k", 1, opid="o1"), put(2, "k", 1, opid="o1"))
        )
        loop.run_soon()
        first, second = transport.replies()
        assert first["ok"] and second["ok"] and second["deduped"]
        assert first["label"] == second["label"]
        assert srv.metrics.counters["puts_deduped"] == 1
        assert [kind for kind, _ in srv.history["s"]] == ["write"]

    def test_shutdown_answers_queued_work_then_byes_without_waiting(self):
        srv, _loop = serving()
        a, a_transport = connect(srv, "a")
        b, b_transport = connect(srv, "b")
        a.data_received(frames(put(1, "k", 1)))  # queued, cycle not run
        b_transport.buffered = 1 << 20  # b stopped reading
        asyncio.run(srv.shutdown(heal=False))
        reply, bye = a_transport.replies()
        assert reply["ok"] and bye["t"] == "bye"
        assert a_transport.events()[-2:] == ["write", "close"]
        # b's bye cannot flush: it is aborted rather than waited on.
        assert b_transport.events()[-3:] == ["write", "abort", "close"]
        assert srv._connections == set()


def scripted_run(seed: int) -> List[List[tuple]]:
    """Three connections, every kind of step, scripted clock values."""
    srv = ServeServer(shards=2, members_per_shard=3, seed=seed, max_inflight=3)
    loop = srv._loop = FakeLoop()
    conns = []
    for name in ("a", "b", "c"):
        conn, transport = _Connection(srv), FakeTransport()
        conn.connection_made(transport)
        conn.data_received(frames({"t": "hello", "rid": 0, "session": name}))
        conns.append((conn, transport))
    (a, _), (b, _), (c, _) = conns
    for step in range(6):
        loop.now = 1.0 + step * 0.25
        rids = range(step * 5, step * 5 + 5)
        a.data_received(frames(*(put(r, f"k{r % 4}", r) for r in rids)))
        b.data_received(frames(
            {"t": "get", "rid": step, "key": f"k{step % 4}"},
            {"t": "read", "rid": 100 + step},
            put(200 + step, f"k{step}", f"b{step}", opid=f"b{step // 2}"),
        ))
        if step == 2:
            c.pause_writing()
        c.data_received(
            frames({"t": "stats", "rid": step}, put(300 + step, "k0", step))
        )
        loop.now += 0.125
        loop.run_soon()
    c.resume_writing()
    a.data_received(frames({"t": "token", "rid": 99}, {"t": "bye"}))
    b.eof_received()
    return [transport.log for _, transport in conns]


def test_same_seed_same_callbacks_same_bytes():
    first, second = scripted_run(7), scripted_run(7)
    assert first == second
    written = [b"".join(e[1] for e in log if e[0] == "write") for log in first]
    assert all(len(blob) > 1000 for blob in written)


def test_every_verb_runs_on_what_was_loaded_before_the_first_hello():
    # A module imported by a verb's first use would be imported inside
    # the first timed wave that uses it.  A fresh interpreter, since
    # this process has long since loaded everything.
    repo = Path(__file__).resolve().parents[2]
    script = textwrap.dedent("""
        import json, sys
        from tests.serve.test_callbacks import connect, frames, put, serving

        srv, loop = serving()
        before = set(sys.modules)
        conn, transport = connect(srv, "a")
        conn.data_received(frames(
            put(1, "k", "v"), {"t": "get", "rid": 2, "key": "k"},
        ))
        loop.run_soon()  # a get served during its cycle's drive
        conn.data_received(frames(
            {"t": "get", "rid": 3, "key": "k"},  # served on the spot
            {"t": "read", "rid": 4},
            {"t": "token", "rid": 5},
        ))
        loop.run_soon()
        replies = transport.replies()
        token = next(r["token"] for r in replies if r["rid"] == 5)
        other, other_transport = connect(srv, "b")
        other.data_received(frames(
            {"t": "hello", "rid": 6, "session": "b", "token": token},
            {"t": "stats", "rid": 7},
            {"t": "chaos", "rid": 8, "action": "crash", "shard": 0, "member": "s0n1"},
            {"t": "chaos", "rid": 9, "action": "restart", "shard": 0, "member": "s0n1"},
        ))
        replies += other_transport.replies()
        print(json.dumps({
            "ok": sorted(r["rid"] for r in replies if r.get("ok")),
            "loaded": sorted(set(sys.modules) - before),
        }))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(repo / "src"), str(repo)))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=str(repo),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["ok"] == list(range(1, 10))
    assert result["loaded"] == []
