"""Self-healing wrapper around :class:`~repro.serve.client.ServeClient`.

:class:`ResilientClient` is what a real application would run against a
faulty network: it owns a plain :class:`ServeClient` underneath and adds
the recovery loop the inner client deliberately does not have —

* **token-carrying reconnect**: when the connection dies (EOF, reset,
  deadline poison), a fresh connection is opened presenting the newest
  causal token, so the resumed session's floor covers everything already
  acknowledged; the reconnect is invisible to the session guarantees;
* **exponential backoff with jitter** on reconnect and on server
  overload frames, capped, so a flapping server sees a thinning herd
  rather than a synchronized stampede;
* **safe replay**: every put carries a session-unique ``opid``, and the
  server applies each opid at most once — so a put whose fate is unknown
  (connection lost between send and ack) can be *retried verbatim*
  without risking double-application.  Reads are idempotent and are
  simply retried.
* **degradation counters** (timeouts, reconnects, replays, overloads,
  backoff sleeps) so campaigns and load generators can report how much
  healing the wire demanded.

Every verb resolves or raises within a bounded time: per-attempt
deadlines come from the inner client, and the attempt budget
(``op_attempts``) bounds the healing loop.  The wrapper is one-op-at-a-
time by design — pipelining plus transparent replay is a recipe for
reordering writes; callers that want pipelining use ``ServeClient``
directly and do their own bookkeeping.

If a :class:`~repro.analysis.wire_history.WireRecorder` is attached, the
client records exactly what it *observed*: puts on ack only (a put whose
reply never arrived may or may not have happened — recording it would
assert knowledge the client does not have), gets and barrier reads on
completion.  Those recordings are what the black-box auditor checks.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, Optional, Sequence

from repro.serve.client import (
    DEFAULT_REQUEST_TIMEOUT,
    ServeClient,
    ServeError,
    ServeOverload,
)

#: Default attempt budget per operation (first try + retries).
DEFAULT_OP_ATTEMPTS = 6

#: Default backoff base / cap, in seconds.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0


class GaveUp(ServeError):
    """An operation exhausted its attempt budget without an answer."""


class ResilientClient:
    """A serve client that survives cuts, stalls, and overload."""

    def __init__(
        self,
        host: str,
        port: int,
        session: str,
        *,
        token: Optional[str] = None,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        op_attempts: int = DEFAULT_OP_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        seed: Optional[int] = None,
        recorder: Optional[Any] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.session = session
        self.request_timeout = request_timeout
        self.op_attempts = op_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.recorder = recorder
        self._token = token
        self._inner: Optional[ServeClient] = None
        self._connect_lock = asyncio.Lock()
        self._ever_connected = False
        self._rng = random.Random(
            seed if seed is not None else f"resilient:{session}"
        )
        self._next_opid = 0
        #: How much healing this client had to do.
        self.counters: Dict[str, int] = {
            "attempts": 0,
            "timeouts": 0,
            "reconnects": 0,
            "replays": 0,
            "overloads": 0,
            "backoffs": 0,
            "errors": 0,
        }

    # -- connection management ---------------------------------------------

    @property
    def token(self) -> Optional[str]:
        inner = self._inner
        if inner is not None and inner.token is not None:
            return inner.token
        return self._token

    @property
    def connected(self) -> bool:
        inner = self._inner
        return (
            inner is not None
            and not inner._recv_dead
            and inner._writer is not None
        )

    async def connect(self) -> None:
        await self._ensure_connected()

    async def close(self) -> None:
        inner = self._inner
        self._inner = None
        if inner is not None:
            if inner.token is not None:
                self._token = inner.token
            await inner.close()

    async def _ensure_connected(self) -> ServeClient:
        """Return a live inner client, (re)connecting with backoff."""
        inner = self._inner
        if inner is not None and not inner._recv_dead:
            return inner
        async with self._connect_lock:
            # Another waiter may have reconnected while we queued.
            inner = self._inner
            if inner is not None and not inner._recv_dead:
                return inner
            if inner is not None:
                if inner.token is not None:
                    self._token = inner.token
                await inner.close()
                self._inner = None
            last_error: Optional[Exception] = None
            for attempt in range(self.op_attempts):
                fresh = ServeClient(
                    self.host, self.port, self.session,
                    token=self._token,
                    request_timeout=self.request_timeout,
                )
                try:
                    await fresh.connect()
                except (ServeError, ConnectionError, OSError) as exc:
                    last_error = exc
                    try:
                        await fresh.close()
                    except (ServeError, ConnectionError, OSError):
                        pass
                    await self._backoff(attempt)
                    continue
                self._inner = fresh
                if self._ever_connected:
                    self.counters["reconnects"] += 1
                self._ever_connected = True
                return fresh
            raise GaveUp(
                f"could not reconnect after {self.op_attempts} attempts: "
                f"{last_error}"
            )

    async def _backoff(self, attempt: int) -> None:
        """Exponential backoff with full jitter, capped."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        self.counters["backoffs"] += 1
        await asyncio.sleep(self._rng.uniform(ceiling / 2, ceiling))

    # -- the healing loop --------------------------------------------------

    async def _call(self, make_call, *, describe: str) -> Dict[str, Any]:
        """Run one operation to completion through faults.

        ``make_call`` receives the live inner client and returns an
        awaitable for one attempt.  On a dead/poisoned connection the
        loop reconnects (token-carrying) and replays; on overload it
        backs off for the server-suggested interval (jittered).
        """
        last_error: Optional[Exception] = None
        for attempt in range(self.op_attempts):
            self.counters["attempts"] += 1
            try:
                inner = await self._ensure_connected()
            except GaveUp as exc:
                raise GaveUp(f"{describe}: {exc}") from exc
            try:
                result = await make_call(inner)
                if attempt:
                    self.counters["replays"] += 1
                return result
            except ServeOverload as exc:
                self.counters["overloads"] += 1
                last_error = exc
                self.counters["backoffs"] += 1
                await asyncio.sleep(
                    exc.retry_after * (0.5 + self._rng.random())
                )
            except (ServeError, ConnectionError, OSError) as exc:
                # Connection-level failure (cut, poison, deadline) — the
                # op's fate is unknown; reconnect and replay.  Safe for
                # puts because of opid idempotency; reads are idempotent.
                last_error = exc
                if inner.timeouts:
                    self.counters["timeouts"] += inner.timeouts
                    inner.timeouts = 0
                await self._backoff(attempt)
        self.counters["errors"] += 1
        raise GaveUp(
            f"{describe}: gave up after {self.op_attempts} attempts "
            f"({last_error})"
        )

    # -- verbs -------------------------------------------------------------

    async def put(self, key: str, value: object) -> Dict[str, Any]:
        """At-most-once write, retried until acknowledged or budget spent."""
        opid = f"{self.session}#{self._next_opid}"
        self._next_opid += 1
        reply = await self._call(
            lambda inner: inner.put_wait(key, value, opid=opid),
            describe=f"put {key!r}",
        )
        if self.recorder is not None:
            self.recorder.put(key, value)
        return reply

    async def get(self, key: str) -> Optional[object]:
        """Causally gated read through faults."""
        value = await self._call(
            lambda inner: inner.get(key),
            describe=f"get {key!r}",
        )
        if self.recorder is not None:
            self.recorder.get(key, value)
        return value

    async def read(
        self, shards: Optional[Sequence[int]] = None
    ) -> Dict[str, Any]:
        """Consistent barrier read through faults."""
        reply = await self._call(
            lambda inner: inner.read(shards),
            describe="read",
        )
        if self.recorder is not None:
            values = reply.get("value")
            if isinstance(values, dict):
                self.recorder.read(values)
        return reply

    async def fetch_token(self) -> str:
        token = await self._call(
            lambda inner: inner.fetch_token(),
            describe="token",
        )
        self._token = token
        return token

    async def stats(self) -> Dict[str, Any]:
        return await self._call(
            lambda inner: inner.stats(),
            describe="stats",
        )

    async def chaos(
        self, action: str, shard: int, member: Optional[str] = None
    ) -> Dict[str, Any]:
        return await self._call(
            lambda inner: inner.chaos(action, shard, member),
            describe=f"chaos {action}",
        )
