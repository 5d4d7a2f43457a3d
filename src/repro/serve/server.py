"""Wire-facing server fronting the sharded causal object space.

:class:`ServeServer` is the paper's Section 6.1 front-end manager made
real: external clients connect over TCP, issue ``put``/``read``
requests, and the server turns them into ``Occurs-After``-annotated
broadcasts on the sharded cluster (:mod:`repro.shard`).  The causal
session state lives in the router's :class:`~repro.shard.router.Session`
objects; clients carry it across connections as opaque tokens
(:meth:`Session.export_token`), so a client may disconnect and reconnect
without losing read-your-writes or monotonic causal order.

Execution model
---------------

The object space runs on the deterministic simulator; the wire runs on
asyncio.  The server bridges them with a *batch cycle*: requests that
arrive while a cycle is in flight accumulate, then one cycle issues
every queued write through the session layer (grouped per shard) and
drives the simulator to quiescence **once** for the whole batch.  The
simulator drive is the expensive part, so batching amortises it across
every pipelined request in the cycle — the same lesson as the paper's
message-packing ablation, applied at the serving edge.

A ``get`` takes one path: the server hands it to its session in wire
order and the session serves it, in issue order, from a replica that
covers the session's causal floor (:meth:`Session.get`).  An idle
session with a covered floor is answered on the spot, without a cycle;
any other get rides its cycle and is served during the drive, behind the
session's earlier operations and ahead of its later ones.

The server is callbacks, not coroutines.  Each connection is an
:class:`asyncio.Protocol`; every callback is one synchronous step of the
server, stamped with the loop's clock.  The frames one read holds are
dispatched in order and their replies leave in one ``write``; a batch
cycle answers each connection it touched with one ``write``.  The first
op queued schedules the cycle with ``call_soon``, so every frame read
before it runs joins it.  Given a stand-in for the loop's ``time`` /
``call_soon`` and a transport that records writes, the semantics run
with no event loop (``tests/serve/test_callbacks.py``).

Flow control is ``pause_reading``.  **Admission**: the op that would
pass ``max_inflight`` unanswered requests on its connection parks, with
the frames read behind it, and the connection is not read until a cycle
frees a slot — TCP backpressure reaches the client before memory does.
**Slow clients**: a connection past its transport's high-water mark
(``pause_writing``) is not read until it drains.  Cycles only write,
never wait on a socket, so a client that stopped reading cannot wedge
the cycle for everyone else.

Shutdown waits on no peer: stop accepting, run the queued cycles, say
``bye`` on every connection and close it — aborting one whose ``bye``
cannot flush — then (optionally) heal the cluster: restart crashed
replicas and run repair rounds to convergence.

Every operation that takes effect is recorded per session, by its
``Session``, in the cluster's ledger (:mod:`repro.shard.ledger`), which
checks that history against the four session guarantees
(:mod:`repro.analysis.session_guarantees`) — over a causal broadcast
substrate with correct ``Occurs-After`` stamping, all four hold even
with replicas crashing mid-run, and the serve test suite and CI smoke
assert exactly that.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.serve.metrics import ServeMetrics
from repro.serve.wire import (
    DEFAULT_OVERLOAD_RETRY_AFTER,
    FRAME_OVERLOAD,
    SERVE_WIRE_VERSION,
    decode_frame,
    encode_frame,
    split_frames,
)
from repro.shard.cluster import ShardedCluster
from repro.shard.router import Served, Session
from repro.types import EntityId, MessageId, Violation

#: Default cap on unanswered requests per connection.
MAX_INFLIGHT = 64

#: Wall-clock seconds between background repair rounds (anti-entropy +
#: stability gossip at every up replica) while the server is idle.
REPAIR_INTERVAL = 0.25


class _Connection(asyncio.Protocol):
    """One connection: asyncio's callbacks, and what the server keeps for
    it.  Each callback is one synchronous step of :class:`ServeServer`;
    replies are queued by :meth:`send` and leave by :meth:`flush`, one
    ``write`` for everything a read or a batch cycle earned.
    """

    def __init__(self, server: "ServeServer") -> None:
        self.server = server
        self.transport: Any = None
        self.session: Optional[Session] = None
        self.inflight = 0
        self.closed = False
        #: Bytes received but not yet split: the tail of one frame.
        self.buffer = bytearray()
        #: The dispatched op waiting for a slot under ``max_inflight``,
        #: the frame bodies read behind it, and when they were read.
        self.parked: Optional[_PendingOp] = None
        self.backlog: Deque[bytes] = deque()
        self.read_at = 0.0
        self.write_paused = False
        self._out: List[bytes] = []
        self._counters = server.metrics.counters

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.server._opened(self)

    def data_received(self, data: bytes) -> None:
        self.server._received(self, data, self.server._loop.time())

    def eof_received(self) -> None:
        self.server._eof(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.close()

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        if self.parked is None:
            self.transport.resume_reading()

    def send(self, document: Dict[str, Any]) -> None:
        if not self.closed:
            self._out.append(encode_frame(document))

    def flush(self) -> None:
        out = self._out
        if not out or self.closed:
            return
        self._out = []
        self._counters["frames_out"] += len(out)
        self._counters["wire_writes"] += 1
        try:
            self.transport.write(b"".join(out))
        except (ConnectionError, RuntimeError):
            self.close()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.server._connections.discard(self)
        self._counters["connections_closed"] += 1
        self.transport.close()


#: Sentinel recorded under an opid before its put issues — an opid whose
#: value is still this sentinel after the drain means the original was
#: dropped, so a duplicate must report the drop, not invent a label.
_PUT_PENDING = object()


class _PendingOp:
    """One admitted request waiting for (or resolved by) a batch cycle."""

    __slots__ = (
        "conn", "session", "frame", "started", "label", "read", "served",
        "handed", "error", "deadline", "shed", "opid", "dup",
    )

    def __init__(
        self,
        conn: _Connection,
        session: Session,
        frame: Dict[str, Any],
        now: float,
    ):
        self.conn = conn
        #: The session the op was sent under, bound at dispatch: a later
        #: ``hello`` on the same connection rebinds the connection, not
        #: the ops already read ahead of it.
        self.session = session
        self.frame = frame
        self.started = now
        self.label: Optional[MessageId] = None
        self.read = None
        #: What the session's replica read delivered for a get; still
        #: ``None`` after the cycle's drain means the get was aborted.
        self.served: Optional[Served] = None
        #: True once a get has been handed to its session.
        self.handed = False
        self.error: Optional[str] = None
        #: Absolute loop time past which executing this op is pointless
        #: (the client's deadline will already have fired) — from the
        #: request's optional ``ttl`` field.
        self.deadline: Optional[float] = None
        ttl = frame.get("ttl")
        # `type`, not `isinstance`: JSON `true` is an int equal to 1.
        if type(ttl) in (int, float) and ttl > 0:
            self.deadline = now + float(ttl)
        self.shed = False
        opid = frame.get("opid")
        self.opid: Optional[str] = opid if isinstance(opid, str) else None
        #: True when this put's opid was already applied by this session —
        #: answer from the idempotency record instead of re-applying.
        self.dup = False


class ServeServer:
    """Asyncio TCP server over a :class:`ShardedCluster`."""

    def __init__(
        self,
        cluster: Optional[ShardedCluster] = None,
        *,
        shards: int = 2,
        members_per_shard: int = 3,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = MAX_INFLIGHT,
        repair_interval: float = REPAIR_INTERVAL,
        max_queue: Optional[int] = None,
        overload_retry_after: float = DEFAULT_OVERLOAD_RETRY_AFTER,
    ) -> None:
        # Serving-path clusters skip per-hop trace events: nothing on
        # the serve path reads them, and the hot delivery loop would pay
        # for assembling one per network hop.
        self.cluster = cluster if cluster is not None else ShardedCluster(
            shards=shards, members_per_shard=members_per_shard, seed=seed,
            hop_events="off",
        )
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.repair_interval = repair_interval
        #: Load shedding: with a batch queue at or past this depth, new
        #: work is answered with a parseable ``overload`` frame instead
        #: of being admitted — the server degrades loudly, not silently.
        #: ``None`` (the default) disables shedding; per-connection
        #: admission still applies.
        self.max_queue = max_queue
        self.overload_retry_after = overload_retry_after
        self.metrics = ServeMetrics(gauges=self.cluster.gauges)
        #: session name -> opid -> issued label (or the pending
        #: sentinel): the at-most-once memory behind put idempotency.
        self._applied_puts: Dict[str, "OrderedDict[str, object]"] = {}
        #: session name -> ops of that session still inside the batch
        #: pipeline; a get handed to the session at dispatch would
        #: overtake them.
        self._session_pending: Dict[str, int] = {}
        self._pending: List[_PendingOp] = []
        #: What the server asks of the event loop: ``time``, ``call_soon``
        #: and (for repair) ``call_later``.  Bound by :meth:`start`.
        self._loop: Any = None
        self._repair_handle: Optional[asyncio.TimerHandle] = None
        self._connections: Set[_Connection] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self.heal_violations: List[Violation] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves ``self.port`` if it was 0."""
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.repair_interval > 0:
            self._repair_handle = self._loop.call_later(
                self.repair_interval, self._repair_tick
            )

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, *, heal: bool = True) -> None:
        """Graceful drain: answer admitted work, bye, optionally heal.

        No step waits on a peer.  With ``heal=True`` every crashed in-view
        replica is restarted and repair rounds run to convergence;
        liveness failures land in ``self.heal_violations`` instead of
        raising, so callers can fold them into their own report.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._repair_handle is not None:
            self._repair_handle.cancel()
            self._repair_handle = None
        # Each cycle frees slots, and a parked op it admits queues the
        # next; frames behind it are refused, so this ends.
        while self._pending:
            try:
                self._cycle()
            except Exception as exc:  # noqa: BLE001 - answered in _cycle
                self._loop.call_exception_handler(
                    {"message": "batch cycle failed", "exception": exc}
                )
        for conn in list(self._connections):
            self._say_bye(conn)
        if self._server is not None:
            # Since Python 3.12.1 this also waits for every connection
            # to be gone: all were just closed or aborted.
            await self._server.wait_closed()
        if heal:
            for group in self.cluster.groups.values():
                group.revive()
            self.cluster.drain()
            self.heal_violations, _rounds = self.cluster.settle()

    # -- background repair -------------------------------------------------

    def _repair_tick(self) -> None:
        self._repair_handle = self._loop.call_later(
            self.repair_interval, self._repair_tick
        )
        if not self._pending:
            self._repair_round()

    def _repair_round(self) -> None:
        """One anti-entropy + gossip round at every up replica.

        Fills gaps crashed-and-dropped deliveries left behind (a restarted
        replica catches up here) without touching membership — a replica
        killed over the wire stays down until asked to restart.
        """
        for group in self.cluster.groups.values():
            group.repair_round()
        self.cluster.router.kick()
        self.cluster.drain()

    # -- connections: one synchronous step per transport callback ----------

    def _opened(self, conn: _Connection) -> None:
        self._connections.add(conn)
        self.metrics.bump("connections_opened")
        if self._draining:
            self._say_bye(conn)  # accepted after the bye round

    def _received(self, conn: _Connection, data: bytes, now: float) -> None:
        conn.buffer += data
        if conn.parked is None:
            conn.read_at = now
            self._pump(conn)

    def _pump(self, conn: _Connection) -> None:
        """Dispatch ``conn``'s frames in order; the replies leave in one
        write.  Stops at a ``bye`` (the frames behind it are not
        dispatched) and at an op that would pass ``max_inflight``: it
        parks and reading pauses until a cycle frees a slot and pumps
        again.  Ops are stamped with ``conn.read_at``, when their frame
        was read.
        """
        backlog = conn.backlog
        started = conn.read_at
        direct = 0  # gets answered on the spot, counted when the pump ends
        closing = False
        try:
            if conn.parked is not None:
                self._admit(conn.parked)
                conn.parked = None
                if not conn.write_paused:
                    conn.transport.resume_reading()
            while True:
                if not backlog:
                    bodies = split_frames(conn.buffer)
                    if not bodies:
                        break
                    self.metrics.counters["frames_in"] += len(bodies)
                    backlog.extend(bodies)
                frame = decode_frame(backlog.popleft())
                if frame.get("t") == "bye":
                    backlog.clear()
                    closing = True
                    break
                op = self._dispatch(conn, frame, started)
                if op is None:
                    continue
                if op.served is not None:
                    direct += 1
                    continue
                if conn.inflight >= self.max_inflight:
                    conn.parked = op
                    self.metrics.bump("admission_waits")
                    conn.transport.pause_reading()
                    break
                self._admit(op)
        except ProtocolError as exc:
            backlog.clear()
            closing = True
            self._send_error(conn, None, str(exc))
        finally:
            if direct:  # they leave in this pump's write
                counters = self.metrics.counters
                counters["ops"] += direct
                counters["gets"] += direct
                counters["gets_direct"] += direct
                samples = [(self._loop.time() - started) * 1000.0] * direct
                self.metrics.record_latencies("get", samples)
                self.metrics.record_latencies("op", samples)
        conn.flush()
        if closing:
            conn.close()

    def _admit(self, op: _PendingOp) -> None:
        op.conn.inflight += 1
        self.metrics.inflight += 1
        self._enqueue(op)

    def _eof(self, conn: _Connection) -> None:
        if conn.buffer:
            self._send_error(conn, None, "connection closed mid-frame")
        conn.flush()
        conn.close()

    def _say_bye(self, conn: _Connection) -> None:
        conn.send({"t": "bye"})
        conn.flush()
        if conn.transport.get_write_buffer_size():
            # The peer is not reading: ``close`` would wait for it.
            conn.transport.abort()
        conn.close()

    def _send_error(
        self, conn: _Connection, rid: Optional[int], message: str
    ) -> None:
        self.metrics.bump("errors")
        conn.send({"t": "error", "rid": rid, "error": message})

    def _overload_frame(
        self, rid: Optional[int], reason: str
    ) -> Dict[str, Any]:
        self.metrics.bump("sheds")
        return {
            "t": FRAME_OVERLOAD, "rid": rid, "reason": reason,
            "retry_after": self.overload_retry_after,
            "queue_depth": len(self._pending),
        }

    # -- request dispatch --------------------------------------------------

    def _dispatch(
        self, conn: _Connection, frame: Dict[str, Any], now: float
    ) -> Optional[_PendingOp]:
        """Handle one frame, queueing its reply on ``conn`` if it has one.

        Returns the ``put`` / ``get`` / ``read`` op it made: a get served
        on the spot (``served`` set, reply queued), or an op to admit
        into the batch pipeline.
        """
        kind = frame.get("t")
        rid = frame.get("rid")
        if kind == "hello":
            self._handle_hello(conn, frame)
            return None
        if conn.session is None:
            self._send_error(conn, rid, "hello required first")
            return None
        if kind in ("put", "read", "get"):
            if self._draining:
                self._send_error(conn, rid, "server is draining")
                return None
            if (
                self.max_queue is not None
                and len(self._pending) >= self.max_queue
            ):
                # Shed before admitting: a parseable refusal now beats a
                # reply that arrives after the client gave up.  Nothing
                # was applied — the frame is safe to retry.
                conn.send(self._overload_frame(rid, "queue-full"))
                return None
            op = _PendingOp(conn, conn.session, frame, now)
            if kind == "get" and not self._session_pending.get(
                conn.session.name
            ):
                # Nothing of this session is inside the batch pipeline,
                # so session order lets the get go to its session now;
                # served on the spot, it is answered off the cycle path.
                self._hand_get(op)
                if op.served is not None:
                    conn.send(self._get_reply(op))
            return op
        if kind == "token":
            conn.send({
                "t": "reply", "rid": rid, "ok": True,
                "token": conn.session.export_token(),
            })
        elif kind == "stats":
            self.metrics.queue_depth = len(self._pending)
            conn.send({
                "t": "reply", "rid": rid, "ok": True,
                "stats": self.metrics.snapshot(),
            })
        elif kind == "chaos":
            self._handle_chaos(conn, frame)
        else:
            self._send_error(conn, rid, f"unknown request type: {kind!r}")
        return None

    def _handle_hello(
        self, conn: _Connection, frame: Dict[str, Any]
    ) -> None:
        rid = frame.get("rid")
        name = frame.get("session")
        if not isinstance(name, str) or not name:
            self._send_error(conn, rid, "hello needs a session name")
            return
        requested = frame.get("codec", "json")
        if requested != "json":
            # JSON is the only wire format.  A client asking for any
            # other gets a parseable refusal and may send a corrected
            # hello, instead of hanging on its first frame in a format
            # nobody here reads.
            self.metrics.bump("errors")
            conn.send({
                "t": "error", "rid": rid,
                "error": f"unknown codec: {requested!r}",
                "codecs": ["json"],
            })
            return
        session = self.cluster.router.session(name)
        token = frame.get("token")
        dropped: int = 0
        if token is not None:
            try:
                dropped = len(session.import_token(token))
            except ProtocolError as exc:
                self._send_error(conn, rid, str(exc))
                return
            self.metrics.bump("tokens_imported")
            self.metrics.bump("token_labels_dropped", dropped)
        conn.session = session
        conn.send({
            "t": "reply", "rid": rid, "ok": True,
            "wire_version": SERVE_WIRE_VERSION,
            "session": name,
            "shards": len(self.cluster.shard_ids),
            "token": session.export_token(),
            "token_labels_dropped": dropped,
        })

    def _handle_chaos(
        self, conn: _Connection, frame: Dict[str, Any]
    ) -> None:
        """Fault injection over the wire (demos, CI smoke, soak tests)."""
        rid = frame.get("rid")
        action = frame.get("action")
        shard = frame.get("shard")
        if type(shard) is not int or shard not in self.cluster.groups:
            self._send_error(conn, rid, f"unknown shard: {shard!r}")
            return
        group = self.cluster.groups[shard]
        member: Optional[EntityId] = frame.get("member")
        if member is not None and (
            not isinstance(member, str) or member not in group.stacks
        ):
            self._send_error(
                conn, rid, f"unknown member of shard {shard}: {member!r}"
            )
            return
        if action == "crash":
            up = group.up_members()
            if member is None and up:
                member = up[0]
            if member not in up:
                self._send_error(conn, rid, "no up member to crash")
                return
            if len(up) <= 1:
                self._send_error(
                    conn, rid, f"refusing to crash the last member of shard {shard}"
                )
                return
            group.crash(member)
            self.cluster.drain()
        elif action == "restart":
            if member is None or not group.stacks[member].crashed:
                self._send_error(conn, rid, "member is not crashed")
                return
            group.restart(member)
            self._repair_round()
        else:
            self._send_error(conn, rid, f"unknown chaos action: {action!r}")
            return
        conn.send({
            "t": "reply", "rid": rid, "ok": True,
            "action": action, "shard": shard, "member": member,
        })

    # -- gets: one read path ------------------------------------------------

    def _hand_get(self, op: _PendingOp) -> None:
        """Hand a get to its session, which serves it in session order.

        Called when the get's turn comes on the wire: at dispatch if the
        session has nothing in the batch pipeline, else at the op's own
        position in its cycle.  A replica covering the session's causal
        floor answers it (:meth:`Session.get`) — synchronously when one
        already does, else during the cycle's drain, behind the session's
        earlier operations and ahead of its later ones.
        """
        op.handed = True
        key = op.frame.get("key")
        if not isinstance(key, str):
            op.error = "get needs a string key"
            return
        op.session.get(
            key, lambda served, op=op: setattr(op, "served", served)
        )

    def _get_reply(self, op: _PendingOp) -> Dict[str, Any]:
        if op.served is None:
            self.metrics.bump("errors")
            return {
                "t": "error", "rid": op.frame.get("rid"),
                "error": "get aborted: no replica covers the session floor",
            }
        value, _label, member, shard = op.served
        counters = self.metrics.counters
        name = "replica_reads_" + member
        counters[name] = counters.get(name, 0) + 1
        return {
            "t": "reply", "rid": op.frame.get("rid"), "ok": True,
            "key": op.frame["key"], "value": value,
            "shard": shard, "replica": member,
            "token": op.session.export_token(),
        }

    # -- the batch cycle ---------------------------------------------------

    def _enqueue(self, op: _PendingOp) -> None:
        self._pending.append(op)
        name = op.session.name
        self._session_pending[name] = self._session_pending.get(name, 0) + 1
        self.metrics.queue_depth = len(self._pending)
        if len(self._pending) == 1:
            # The first op queued schedules the cycle, and every frame
            # read before it runs joins it — this is where pipelining
            # turns into batching.
            self._loop.call_soon(self._cycle)

    def _op_done(self, op: _PendingOp) -> None:
        """Release one batch op's admission slot and pipeline count."""
        op.conn.inflight -= 1
        self.metrics.inflight -= 1
        name = op.session.name
        count = self._session_pending.get(name, 0)
        if count > 1:
            self._session_pending[name] = count - 1
        else:
            self._session_pending.pop(name, None)

    def _cycle(self) -> None:
        """One batch cycle over every op queued since the last one."""
        batch, self._pending = self._pending, []
        if not batch:
            return  # shutdown ran it already
        self.metrics.queue_depth = 0
        try:
            self._run_cycle(batch, self._loop.time())
        except Exception as exc:  # noqa: BLE001 - cycle must not die silently
            # A failed cycle still answers (with errors) and still
            # releases admission slots — a wedged pipeline would
            # otherwise deadlock every client on the connection.
            for op in batch:
                self._op_done(op)
                self._send_error(
                    op.conn, op.frame.get("rid"), f"server error: {exc}"
                )
            raise
        finally:
            # Each connection's replies leave in one write.  Slots are
            # free: an op parked on the cap is admitted and the frames
            # read behind it are dispatched.
            for conn in dict.fromkeys(op.conn for op in batch):
                conn.flush()
                if conn.parked and conn.inflight < self.max_inflight:
                    self._pump(conn)

    def _run_cycle(self, batch: List[_PendingOp], now: float) -> None:
        per_shard: Dict[int, int] = {}
        for op in batch:
            frame = op.frame
            kind = frame.get("t")
            session = op.session
            if op.deadline is not None and now > op.deadline:
                # Deadline-aware admission: the client's deadline has
                # already fired, so executing would waste a simulator
                # drive on an answer nobody is waiting for — shed it
                # loudly instead.
                op.shed = True
                self.metrics.bump("deadline_drops")
                continue
            if kind == "put":
                key = frame.get("key")
                if not isinstance(key, str):
                    op.error = "put needs a string key"
                    continue
                if op.opid is not None and self._register_opid(op):
                    continue  # duplicate: answered from the record
                try:
                    # The black-box auditor keys observations by value
                    # (repro.analysis.wire_history), so values must be
                    # hashable; reject per-op here.
                    hash(frame.get("value"))
                except TypeError:
                    op.error = (
                        "put value must be hashable "
                        "(use scalars, tuples, or labels — not dicts/lists)"
                    )
                    continue
                shard = self.cluster.shard_map.shard_of(key)
                per_shard[shard] = per_shard.get(shard, 0) + 1
                session.put(
                    key,
                    frame.get("value"),
                    on_issued=lambda label, op=op: self._put_issued(op, label),
                )
            elif kind == "read":
                shards = frame.get("shards")
                if shards is not None and (
                    not isinstance(shards, list)
                    or any(
                        type(s) is not int or s not in self.cluster.groups
                        for s in shards
                    )
                ):
                    op.error = f"read names unknown shards: {shards!r}"
                    continue
                session.read(
                    shards=shards,
                    callback=lambda read, op=op: setattr(op, "read", read),
                )
            elif kind == "get" and not op.handed:
                self._hand_get(op)
        self.metrics.record_batch(len(batch))
        for shard, count in sorted(per_shard.items()):
            self.metrics.bump(f"shard{shard}_batch_puts", count)
        # One simulator drive for the whole cycle: every queued write
        # issues (or exhausts its retries), every barrier completes (or
        # aborts), every delivery lands.
        self.cluster.drain()
        # Every reply is built now, so the cycle's ops share one clock
        # read; they leave in one write a connection, and nothing waits
        # on a socket — a client that stopped reading stops being read,
        # never stalls the cycle.
        ended = self._loop.time()
        self.metrics.counters["ops"] += len(batch)
        latencies: Dict[str, List[float]] = {}
        for op in batch:
            reply = self._build_reply(op)
            latencies.setdefault(op.frame.get("t", "op"), []).append(
                (ended - op.started) * 1000.0
            )
            op.conn.send(reply)
            self._op_done(op)
        for kind, samples in latencies.items():
            self.metrics.record_latencies(kind, samples)
            self.metrics.record_latencies("op", samples)

    #: Idempotency memory per session, in applied opids.  Bounds the
    #: at-most-once window: a put retried more than this many acked puts
    #: later could re-apply — far beyond any sane replay horizon.
    OPID_MEMORY = 1024

    def _register_opid(self, op: _PendingOp) -> bool:
        """Record ``op``'s opid; True if it was already applied (dup).

        The pending sentinel goes in *before* ``session.put`` so a
        duplicate in the same batch (e.g. a duplicated frame) dedupes
        too; :meth:`_put_issued` overwrites it with the real label.
        """
        session = op.session
        applied = self._applied_puts.setdefault(session.name, OrderedDict())
        if op.opid in applied:
            op.dup = True
            self.metrics.bump("puts_deduped")
            return True
        applied[op.opid] = _PUT_PENDING
        while len(applied) > self.OPID_MEMORY:
            applied.popitem(last=False)
        return False

    def _put_issued(self, op: _PendingOp, label: Optional[MessageId]) -> None:
        op.label = label
        if label is not None and op.opid is not None:
            applied = self._applied_puts.get(op.session.name)
            if applied is not None and op.opid in applied:
                applied[op.opid] = label

    def _build_reply(self, op: _PendingOp) -> Dict[str, Any]:
        frame = op.frame
        rid = frame.get("rid")
        kind = frame.get("t")
        session = op.session
        counters = self.metrics.counters
        if op.shed:
            return self._overload_frame(rid, "deadline")
        if op.error is not None:
            self.metrics.bump("errors")
            return {"t": "error", "rid": rid, "error": op.error}
        if kind == "put":
            label = op.label
            if op.dup:
                # The opid was applied before (possibly in this very
                # batch): answer with the original's label, apply nothing
                # twice.
                label = self._applied_puts.get(session.name, {}).get(op.opid)
                label = None if label is _PUT_PENDING else label
            else:
                counters["puts"] += 1
                if label is None and op.opid is not None:
                    # Nothing was applied, so forget the opid: a retry
                    # of this put must be a real re-attempt, not a
                    # replay of this failure.
                    self._applied_puts.get(session.name, {}).pop(op.opid, None)
            if label is None:
                self.metrics.bump("puts_dropped")
                self.metrics.bump("errors")
                return {
                    "t": "error", "rid": rid,
                    "error": "put was dropped (shard unreachable)",
                }
            reply = {"t": "reply", "rid": rid, "ok": True, "label": label}
            if op.dup:
                counters["puts"] += 1
                reply["deduped"] = True
            reply["token"] = session.export_token()
            return reply
        if kind == "get":
            counters["gets"] += 1
            if op.served is not None:
                counters["gets_cycle"] += 1
            return self._get_reply(op)
        counters["reads"] += 1
        read = op.read
        if read is None:
            self.metrics.bump("reads_failed")
            self.metrics.bump("errors")
            return {
                "t": "error", "rid": rid,
                "error": "barrier read aborted",
            }
        return {
            "t": "reply", "rid": rid, "ok": True,
            "value": dict(read.value),
            "shards": list(read.shards),
            "rounds": read.rounds,
            "barrier_labels": {
                str(shard): list(labels)
                for shard, labels in read.barrier_labels.items()
            },
            "token": session.export_token(),
        }

    # -- auditing ----------------------------------------------------------

    @property
    def history(self) -> Dict[str, List[Tuple[str, object]]]:
        """session name -> its log in the ledger (the live lists)."""
        return self.cluster.ledger.history

    def session_guarantee_violations(self) -> list:
        """The ledger's white-box audit of every session's log."""
        return self.cluster.ledger.session_guarantee_violations()

    def check_invariants(self) -> List[Violation]:
        """Full cluster battery + cross-shard audit + wire guarantees."""
        violations = list(self.cluster.check_invariants())
        violations.extend(
            Violation("session-guarantee", None, str(v))
            for v in self.session_guarantee_violations()
        )
        return violations
