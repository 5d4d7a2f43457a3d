"""The server with no event loop and no ports.

:class:`~repro.serve.server.ServeServer` is callbacks, not coroutines:
each connection is an ``asyncio.Protocol`` whose callbacks are
synchronous server steps.  This module drives them the way asyncio
does.  A :class:`FakeTransport` records what the server writes and
when it pauses or resumes reading; a :class:`FakeLoop` stands in for
what the server asks of the event loop when it is not started: ``time``,
which the caller sets, and ``call_soon``, whose callbacks run only when
the caller says so (:meth:`FakeLoop.run_soon`).  A run is a function of
its inputs and the cluster seed, so two runs of one script write the
same bytes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.serve.server import ServeServer, _Connection
from repro.serve.wire import decode_frame, encode_frame, split_frames


class FakeLoop:
    """``time`` and ``call_soon``: what an unstarted server asks of its loop."""

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
    """A transport that records every call the server makes on it."""

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
        if blob:
            raise ValueError("a write ended mid-frame")
        return frames


def serving(**kwargs: Any) -> Tuple[ServeServer, FakeLoop]:
    """A 2 × 3 server (seed 5 unless ``kwargs`` says otherwise) bound
    to a :class:`FakeLoop`."""
    kwargs = {"shards": 2, "members_per_shard": 3, "seed": 5, **kwargs}
    srv = ServeServer(**kwargs)
    loop = srv._loop = FakeLoop()
    return srv, loop


def connect(
    srv: ServeServer, session: str
) -> Tuple[_Connection, FakeTransport]:
    """Open a connection to ``srv`` and say hello as ``session``."""
    conn, transport = _Connection(srv), FakeTransport()
    conn.connection_made(transport)
    conn.data_received(frames({"t": "hello", "rid": 0, "session": session}))
    reply = transport.replies()[0]
    if not reply.get("ok"):
        raise ValueError(f"hello refused: {reply}")
    return conn, transport


def frames(*documents: Dict[str, Any]) -> bytes:
    """``documents`` as the bytes of one read."""
    return b"".join(encode_frame(document) for document in documents)
