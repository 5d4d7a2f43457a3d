"""The one asyncio client of the serving layer: pipelined, healing on request.

:class:`ServeClient` speaks the length-prefixed frame protocol
(:mod:`repro.serve.wire`).  Requests are *pipelined*: :meth:`put` sends
the frame immediately and returns an awaitable future, so a caller can
keep many operations in flight on one connection and await them in any
order — a background reader task matches replies to futures by ``rid``.

Causal continuity across connections is one line: every reply carries
the session's current token, the client remembers the newest one, and
:meth:`~ServeClient.reconnect` presents it in ``hello`` on a connection
reopened in place.  The server folds the token's frontier back into the
(possibly fresh) session state, so read-your-writes and monotonic order
survive disconnects — the token *is* the session, the TCP connection is
just a vehicle.

With ``heal=True`` the awaited verbs ride through a faulty network: a
dead connection (EOF, reset, deadline poison) is reopened in place with
capped exponential backoff and full jitter; an overload frame sleeps for
the server's jittered ``retry_after``; and a put carries a
session-unique ``opid``, which the server applies at most once, so a put
whose fate is unknown is *retried verbatim*.  ``DEFAULT_OP_ATTEMPTS``
bounds the loop (:class:`GaveUp`).  An error reply to ``hello`` is not
retried: the token is the fault, not the wire.  The pipelined
primitives (:meth:`~ServeClient.submit`, :meth:`~ServeClient.put`,
:meth:`~ServeClient.get_submit`) never heal — pipelining plus
transparent replay is a recipe for reordering writes.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, Optional, Sequence

from repro.errors import ProtocolError
from repro.serve.wire import (
    DEFAULT_OVERLOAD_RETRY_AFTER,
    FRAME_OVERLOAD,
    FrameReader,
    decode_frame,
    write_frame,
)

#: Default per-request deadline, in seconds.  Generous on purpose: it is
#: a hang-breaker, not a latency target — a stalled (but open) socket
#: must never hang a caller forever.  Pass ``request_timeout=None`` to
#: disable, or a smaller value for fault-injection tests.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Attempt budget of one healing verb (first try + retries).
DEFAULT_OP_ATTEMPTS = 6

#: Reconnect backoff base / cap, in seconds.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0


class ServeError(ProtocolError):
    """An error reply (or a dead connection) surfaced to the caller."""


class ServeOverload(ServeError):
    """The server shed this request (queue full or deadline passed).

    Carries the server-suggested ``retry_after`` so callers can back off
    intelligently rather than hammering an overloaded server.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class GaveUp(ServeError):
    """A healing verb exhausted its attempt budget without an answer."""


def _raise_if_overload(reply: Dict[str, Any]) -> Dict[str, Any]:
    if reply.get("t") == FRAME_OVERLOAD:
        raise ServeOverload(
            f"server overloaded: {reply.get('reason') or 'load shed'}",
            float(reply.get("retry_after") or DEFAULT_OVERLOAD_RETRY_AFTER),
        )
    return reply


class ServeClient:
    """One session, over one connection at a time, to a
    :class:`~repro.serve.server.ServeServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        session: str,
        token: Optional[str] = None,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        heal: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.session = session
        self.token = token
        #: Per-request deadline in seconds (``None`` disables).  A
        #: request still unanswered when its deadline fires raises
        #: :class:`ServeError` *and poisons the connection*: replies are
        #: matched by rid on one ordered stream, so after abandoning one
        #: we could mis-trust the stream's timing for every later reply.
        self.request_timeout = request_timeout
        #: Whether the awaited verbs heal through faults (module doc).
        self.heal = heal
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._recv_task: Optional[asyncio.Task] = None
        self._waiting: Dict[int, asyncio.Future] = {}
        self._next_rid = 0
        self._recv_dead = False
        self.server_said_bye = False
        self.hello_reply: Optional[Dict[str, Any]] = None
        self._deadlines: Dict[int, asyncio.TimerHandle] = {}
        self._connect_lock = asyncio.Lock()
        self._next_opid = 0
        self._rng = random.Random(session)
        #: What the wire cost this session, across reconnects: requests
        #: past their deadline and connections reopened; with ``heal``
        #: also attempts, replays, overloads, backoff sleeps and verbs
        #: given up on.
        self.counters: Dict[str, int] = {
            "attempts": 0,
            "timeouts": 0,
            "reconnects": 0,
            "replays": 0,
            "overloads": 0,
            "backoffs": 0,
            "errors": 0,
        }

    # -- connection lifecycle ----------------------------------------------

    @property
    def connected(self) -> bool:
        """Whether a reply can still arrive on the current connection."""
        return self._writer is not None and not self._recv_dead

    async def connect(self) -> Optional[Dict[str, Any]]:
        """Open the connection and perform the hello handshake.

        With ``heal``, a connection-level failure is retried with backoff
        until :class:`GaveUp`, and an already live connection is kept.
        """
        if not self.heal:
            return await self._open()
        await self._ensure_connected()
        return self.hello_reply

    async def reconnect(self) -> Optional[Dict[str, Any]]:
        """Reopen the connection in place, resuming the session.

        While the old connection is still alive we ask the server for a
        fresh token rather than trusting the last reply's: the ``token``
        verb returns the session's frontier as the server holds it now,
        including operations whose replies this connection never saw.
        The new ``hello`` presents it, so the resumed session's causal
        floor covers everything the old one did — the reconnect is
        invisible to the session guarantees.
        """
        if self.connected:
            try:
                # The reply's token lands in ``self.token`` on dispatch.
                await self.submit({"t": "token"})
            except ServeError:
                pass
        await self.close()
        return await self.connect()

    async def close(self) -> None:
        """Polite close: say bye, then tear the connection down."""
        if self._writer is not None and not self._writer.is_closing():
            try:
                write_frame(self._writer, {"t": "bye"})
                await self._writer.drain()
            except (ConnectionError, RuntimeError):
                pass
            self._writer.close()
        if self._recv_task is not None:
            self._recv_task.cancel()
            try:
                await self._recv_task
            except asyncio.CancelledError:
                pass
            self._recv_task = None
        self._recv_dead = True
        self._fail_outstanding("connection closed")

    async def _open(self) -> Dict[str, Any]:
        """Open a fresh connection and bind it to the session."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._recv_dead = False
        self.server_said_bye = False
        self._recv_task = asyncio.ensure_future(self._recv_loop())
        reply = await self.submit({
            "t": "hello", "session": self.session, "token": self.token,
        })
        if self.hello_reply is not None:
            self.counters["reconnects"] += 1
        self.hello_reply = reply
        return reply

    async def _ensure_connected(self) -> None:
        """Keep a live connection, reopening it in place with backoff."""
        if self.connected:
            return
        async with self._connect_lock:
            # Another waiter may have reconnected while we queued.
            if self.connected:
                return
            await self.close()  # what is left of the dead connection
            last_error: Optional[Exception] = None
            for attempt in range(DEFAULT_OP_ATTEMPTS):
                try:
                    await self._open()
                    return
                except (ServeError, ConnectionError, OSError) as exc:
                    # An error *reply* to hello leaves the connection up:
                    # the server refused the session or its token, which
                    # no retry changes.
                    refused = self.connected
                    await self.close()
                    if refused:
                        raise
                    last_error = exc
                    await self._backoff(attempt)
            raise GaveUp(
                f"could not reconnect after {DEFAULT_OP_ATTEMPTS} attempts: "
                f"{last_error}"
            )

    async def _backoff(self, attempt: int) -> None:
        """Exponential backoff with full jitter, capped."""
        ceiling = min(DEFAULT_BACKOFF_CAP, DEFAULT_BACKOFF_BASE * 2 ** attempt)
        self.counters["backoffs"] += 1
        await asyncio.sleep(self._rng.uniform(ceiling / 2, ceiling))

    # -- the pipeline ------------------------------------------------------

    def submit(self, document: Dict[str, Any]) -> "asyncio.Future[Dict[str, Any]]":
        """Send one request frame now; resolve its reply later.

        The returned future raises :class:`ServeError` for error replies.
        This is the pipelining primitive — callers that want one-at-a-time
        semantics just await it immediately.
        """
        if self._writer is None or self._recv_dead:
            # Once the reader loop has exited (bye, EOF, or error) no
            # reply can ever arrive — failing fast beats a future that
            # nothing will resolve.
            raise ServeError("not connected")
        rid = self._next_rid
        self._next_rid += 1
        document = dict(document)
        document["rid"] = rid
        if self.request_timeout is not None and "ttl" not in document:
            # Tell the server how long this request is worth executing:
            # queued work whose client deadline already fired gets shed
            # with an ``overload`` frame instead of burning a cycle.
            document["ttl"] = self.request_timeout
        loop = asyncio.get_event_loop()
        future: asyncio.Future = loop.create_future()
        self._waiting[rid] = future
        try:
            write_frame(self._writer, document)
        except (ConnectionError, RuntimeError) as exc:
            self._waiting.pop(rid, None)
            raise ServeError(f"send failed: {exc}") from exc
        if self.request_timeout is not None:
            self._deadlines[rid] = loop.call_later(
                self.request_timeout, self._on_deadline, rid
            )
        return future

    async def _request(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """One awaited request; with ``heal``, run to an answer through faults.

        Healing reopens a dead or poisoned connection in place
        (token-carrying) and replays the request; on overload it sleeps
        for the server-suggested interval, jittered.
        """
        if not self.heal:
            return _raise_if_overload(await self.submit(document))
        last_error: Optional[Exception] = None
        for attempt in range(DEFAULT_OP_ATTEMPTS):
            self.counters["attempts"] += 1
            await self._ensure_connected()
            try:
                reply = _raise_if_overload(await self.submit(document))
            except ServeOverload as exc:
                self.counters["overloads"] += 1
                last_error = exc
                self.counters["backoffs"] += 1
                await asyncio.sleep(
                    exc.retry_after * (0.5 + self._rng.random())
                )
            except (ServeError, ConnectionError, OSError) as exc:
                # A cut, a poisoned stream or an error reply: the op's
                # fate is unknown, so reconnect if need be and replay —
                # safe, as a put carries an opid and reads are idempotent.
                last_error = exc
                await self._backoff(attempt)
            else:
                if attempt:
                    self.counters["replays"] += 1
                return reply
        self.counters["errors"] += 1
        raise GaveUp(
            f"{document['t']}: gave up after {DEFAULT_OP_ATTEMPTS} "
            f"attempts ({last_error})"
        )

    async def _recv_loop(self) -> None:
        assert self._reader is not None
        frames = FrameReader(self._reader)
        try:
            while True:
                bodies = await frames.read()
                if bodies is None:
                    break
                for body in bodies:
                    frame = decode_frame(body)
                    if frame.get("t") == "bye":
                        self.server_said_bye = True
                        return
                    self._dispatch_reply(frame)
        except (ProtocolError, ConnectionError):
            pass
        finally:
            self._recv_dead = True
            self._fail_outstanding("connection lost")

    def _on_deadline(self, rid: int) -> None:
        """A request outlived its deadline: fail it and poison the wire."""
        self._deadlines.pop(rid, None)
        future = self._waiting.pop(rid, None)
        if future is None or future.done():
            return
        self.counters["timeouts"] += 1
        future.set_exception(ServeError(
            f"request rid={rid} exceeded deadline of "
            f"{self.request_timeout}s"
        ))
        self._poison("deadline exceeded")

    def _poison(self, reason: str) -> None:
        """Tear the connection down without waiting on the peer.

        Used when the stream can no longer be trusted (deadline fired).
        Outstanding futures fail immediately; the reader task dies on the
        aborted transport.
        """
        self._recv_dead = True
        self._fail_outstanding(reason)
        if self._writer is not None:
            try:
                self._writer.transport.abort()
            except RuntimeError:
                pass

    def _dispatch_reply(self, frame: Dict[str, Any]) -> None:
        rid = frame.get("rid")
        future = self._waiting.pop(rid, None)
        handle = self._deadlines.pop(rid, None)
        if handle is not None:
            handle.cancel()
        if future is None or future.done():
            return
        token = frame.get("token")
        if token is not None:
            self.token = token
        if frame.get("t") == "error":
            future.set_exception(ServeError(str(frame.get("error"))))
        else:
            future.set_result(frame)

    def _fail_outstanding(self, reason: str) -> None:
        for handle in self._deadlines.values():
            handle.cancel()
        self._deadlines.clear()
        for future in self._waiting.values():
            if not future.done():
                future.set_exception(ServeError(reason))
        self._waiting.clear()

    # -- convenience API ---------------------------------------------------

    def put(
        self, key: str, value: object, *, opid: Optional[str] = None
    ) -> "asyncio.Future[Dict[str, Any]]":
        """Pipelined write; the reply carries the label and a fresh token.

        ``opid`` is an optional client-chosen idempotency id: the server
        remembers which opids a session has applied, so a put retried
        after an ambiguous failure (connection lost between send and
        reply) is applied **at most once** — the duplicate just gets the
        original's label back.
        """
        document: Dict[str, Any] = {"t": "put", "key": key, "value": value}
        if opid is not None:
            document["opid"] = opid
        return self.submit(document)

    async def put_wait(
        self, key: str, value: object, *, opid: Optional[str] = None
    ) -> Dict[str, Any]:
        """Awaited write.  With ``heal`` it always carries an ``opid``
        (a session-unique one unless the caller gave one), so a replay
        is applied at most once."""
        if not self.heal:
            return _raise_if_overload(await self.put(key, value, opid=opid))
        if opid is None:
            opid = f"{self.session}#{self._next_opid}"
            self._next_opid += 1
        return await self._request(
            {"t": "put", "key": key, "value": value, "opid": opid}
        )

    def get_submit(self, key: str) -> "asyncio.Future[Dict[str, Any]]":
        """Pipelined get: send the frame now, resolve the reply later.

        The reply names the ``replica`` and ``shard`` that served it.
        """
        return self.submit({"t": "get", "key": key})

    async def get(self, key: str) -> Optional[object]:
        """Causally gated read (read-your-writes; no global snapshot).

        Served in session order by a replica covering the session's
        causal floor; raises :class:`ServeError` (``get aborted``) if no
        up replica covers it within the server's bounded wait.
        """
        reply = await self._request({"t": "get", "key": key})
        return reply.get("value")

    async def read(
        self, shards: Optional[Sequence[int]] = None
    ) -> Dict[str, Any]:
        """Consistent multi-shard barrier read; reply carries the values."""
        document: Dict[str, Any] = {"t": "read"}
        if shards is not None:
            document["shards"] = list(shards)
        return await self._request(document)

    async def fetch_token(self) -> str:
        reply = await self._request({"t": "token"})
        return reply["token"]

    async def stats(self) -> Dict[str, Any]:
        reply = await self._request({"t": "stats"})
        return reply["stats"]

    async def chaos(
        self,
        action: str,
        shard: int,
        member: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Ask the server to crash/restart a replica (demos and tests)."""
        return await self._request({
            "t": "chaos", "action": action, "shard": shard, "member": member,
        })
