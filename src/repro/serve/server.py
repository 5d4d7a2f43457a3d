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
arrive while a cycle is in flight accumulate, then one flush issues
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

Frames move in batches at this edge too.  A connection's *turn* is one
read of its socket: every complete frame the read holds is parsed and
dispatched in order, and the replies the turn earns leave in one
``write``; a batch cycle likewise answers each connection it touched
with one ``write``.  Counters are added per turn and per cycle.

Flow control, both directions:

* **admission** — at most ``max_inflight`` unanswered requests per
  connection; past that the turn flushes what it has answered and parks
  until the pipeline drains below the cap, reading nothing more from the
  socket, so TCP backpressure reaches the client before memory does;
* **slow clients** — each turn ends in one ``writer.drain()``, so a
  client that stops reading parks its own connection (and stops being
  read); batch cycles only write, never wait on a socket, so it cannot
  wedge the cycle for everyone else.

Shutdown is a graceful drain: stop accepting, answer everything already
admitted, say ``bye`` on every connection, then (optionally) heal the
cluster — restart crashed replicas and run repair rounds to convergence.

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
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.invariants import Violation
from repro.errors import ProtocolError
from repro.serve.metrics import ServeMetrics
from repro.serve.wire import (
    DEFAULT_OVERLOAD_RETRY_AFTER,
    FRAME_OVERLOAD,
    SERVE_WIRE_VERSION,
    FrameReader,
    decode_frame,
    encode_frame,
)
from repro.shard.cluster import ShardedCluster
from repro.shard.router import Served, Session
from repro.types import EntityId, MessageId

#: Default cap on unanswered requests per connection.
MAX_INFLIGHT = 64

#: Wall-clock seconds between background repair rounds (anti-entropy +
#: stability gossip at every up replica) while the server is idle.
REPAIR_INTERVAL = 0.25


class _Connection:
    """Per-connection state: session binding, admission, replies, liveness.

    Replies are queued by :meth:`send` and leave by :meth:`flush`: one
    ``write`` for everything a dispatch turn or a batch cycle earned.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        counters: Dict[str, int],
    ) -> None:
        self.frames = FrameReader(reader)
        self.writer = writer
        self.session: Optional[Session] = None
        self.inflight = 0
        self.can_admit = asyncio.Event()
        self.can_admit.set()
        self.closed = False
        self._out: List[bytes] = []
        self._counters = counters

    def release(self) -> None:
        self.inflight -= 1
        if not self.can_admit.is_set():
            self.can_admit.set()

    def send(self, document: Dict[str, Any]) -> None:
        if not self.closed:
            self._out.append(encode_frame(document))

    def flush(self) -> None:
        out = self._out
        if not out:
            return
        self._out = []
        if self.closed:
            return
        self._counters["frames_out"] += len(out)
        self._counters["wire_writes"] += 1
        try:
            self.writer.write(b"".join(out))
        except (ConnectionError, RuntimeError):
            self.close()

    async def drain(self) -> None:
        if self.closed:
            return
        try:
            await self.writer.drain()
        except (ConnectionError, RuntimeError):
            self.close()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._counters["connections_closed"] += 1
        try:
            self.writer.close()
        except RuntimeError:
            pass


#: Sentinel recorded under an opid before its put issues — an opid whose
#: value is still this sentinel after the drain means the original was
#: dropped, so a duplicate must report the drop, not invent a label.
_PUT_PENDING = object()


class _PendingOp:
    """One admitted request waiting for (or resolved by) a batch cycle."""

    __slots__ = (
        "conn", "frame", "started", "label", "read", "served", "handed",
        "error", "deadline", "shed", "opid", "dup",
    )

    def __init__(self, conn: _Connection, frame: Dict[str, Any], now: float):
        self.conn = conn
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
        self._flush_task: Optional[asyncio.Task] = None
        self._repair_task: Optional[asyncio.Task] = None
        self._connections: Set[_Connection] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self.heal_violations: List[Violation] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves ``self.port`` if it was 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.repair_interval > 0:
            self._repair_task = asyncio.ensure_future(self._repair_loop())

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, *, heal: bool = True) -> None:
        """Graceful drain: answer admitted work, bye, optionally heal.

        With ``heal=True`` every crashed in-view replica is restarted and
        repair rounds run to convergence; liveness failures land in
        ``self.heal_violations`` instead of raising, so callers can fold
        them into their own report.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while self._pending or (
            self._flush_task is not None and not self._flush_task.done()
        ):
            await asyncio.sleep(0.005)
        if self._repair_task is not None:
            self._repair_task.cancel()
            try:
                await self._repair_task
            except asyncio.CancelledError:
                pass
            self._repair_task = None
        for conn in list(self._connections):
            conn.send({"t": "bye"})
            conn.flush()
            await conn.drain()
            self._close_connection(conn)
        if heal:
            for group in self.cluster.groups.values():
                group.revive()
            self.cluster.drain()
            self.heal_violations, _rounds = self.cluster.settle()

    # -- background repair -------------------------------------------------

    async def _repair_loop(self) -> None:
        while True:
            await asyncio.sleep(self.repair_interval)
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

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer, self.metrics.counters)
        self._connections.add(conn)
        self.metrics.bump("connections_opened")
        try:
            while True:
                bodies = await conn.frames.read()
                if bodies is None or not await self._turn(conn, bodies):
                    break
        except ProtocolError as exc:
            self._send_error(conn, None, str(exc))
        except ConnectionError:
            pass
        finally:
            conn.flush()
            self._close_connection(conn)

    async def _turn(self, conn: _Connection, bodies: List[bytes]) -> bool:
        """Dispatch one read's frames in order; answer them in one write.

        False once the peer said ``bye``: the frames behind it are not
        dispatched.  Every op of the turn is stamped with the turn's
        start, the moment its frame was read.
        """
        loop = asyncio.get_event_loop()
        started = loop.time()
        self.metrics.counters["frames_in"] += len(bodies)
        direct = 0  # gets answered on the spot, counted when the turn ends
        try:
            for body in bodies:
                frame = decode_frame(body)
                if frame.get("t") == "bye":
                    return False
                op = self._dispatch(conn, frame, started)
                if op is None:
                    continue
                if op.served is not None:
                    direct += 1
                    continue
                if conn.inflight >= self.max_inflight:
                    await self._admit(conn)
                conn.inflight += 1
                self.metrics.inflight += 1
                self._enqueue(op)
        finally:
            if direct:
                self._count_direct_gets(
                    direct, (loop.time() - started) * 1000.0
                )
        conn.flush()
        await conn.drain()
        return True

    async def _admit(self, conn: _Connection) -> None:
        """Admission control: stop reading this socket until the pipeline
        drains below the cap — the client feels it as TCP backpressure,
        not an error.  What the turn answered so far leaves first."""
        conn.flush()
        while conn.inflight >= self.max_inflight:
            self.metrics.bump("admission_waits")
            conn.can_admit.clear()
            await conn.can_admit.wait()

    def _close_connection(self, conn: _Connection) -> None:
        self._connections.discard(conn)
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
            op = _PendingOp(conn, frame, now)
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
        op.conn.session.get(
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
            "token": op.conn.session.export_token(),
        }

    def _count_direct_gets(self, count: int, millis: float) -> None:
        """Count one turn's on-the-spot gets; they left in one write."""
        counters = self.metrics.counters
        counters["ops"] += count
        counters["gets"] += count
        counters["gets_direct"] += count
        samples = [millis] * count
        self.metrics.record_latencies("get", samples)
        self.metrics.record_latencies("op", samples)

    # -- the batch cycle ---------------------------------------------------

    def _enqueue(self, op: _PendingOp) -> None:
        self._pending.append(op)
        name = op.conn.session.name
        self._session_pending[name] = self._session_pending.get(name, 0) + 1
        self.metrics.queue_depth = len(self._pending)
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = asyncio.ensure_future(self._flush())

    def _op_done(self, op: _PendingOp) -> None:
        """Release one batch op's admission slot and pipeline count."""
        op.conn.release()
        self.metrics.inflight -= 1
        name = op.conn.session.name
        count = self._session_pending.get(name, 0)
        if count > 1:
            self._session_pending[name] = count - 1
        else:
            self._session_pending.pop(name, None)

    async def _flush(self) -> None:
        # Yield once so every request already parsed in this loop tick
        # joins the same cycle — this is where pipelining turns into
        # batching.
        await asyncio.sleep(0)
        while self._pending:
            batch, self._pending = self._pending, []
            self.metrics.queue_depth = 0
            try:
                self._run_cycle(batch)
            except Exception as exc:  # noqa: BLE001 - cycle must not die silently
                # A failed cycle still answers (with errors) and still
                # releases admission slots — a wedged pipeline would
                # otherwise deadlock every client on the connection.
                for op in batch:
                    self._op_done(op)
                    self._send_error(
                        op.conn, op.frame.get("rid"), f"server error: {exc}"
                    )
                for conn in dict.fromkeys(op.conn for op in batch):
                    conn.flush()
                raise

    def _run_cycle(self, batch: List[_PendingOp]) -> None:
        per_shard: Dict[int, int] = {}
        now = asyncio.get_event_loop().time()
        for op in batch:
            frame = op.frame
            kind = frame.get("t")
            session = op.conn.session
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
        # read; each connection gets its replies in one write, and
        # nothing here waits on a socket — a client that stopped reading
        # parks its own turn, never the cycle.
        ended = asyncio.get_event_loop().time()
        self.metrics.counters["ops"] += len(batch)
        latencies: Dict[str, List[float]] = {}
        touched = []
        for op in batch:
            reply = self._build_reply(op)
            latencies.setdefault(op.frame.get("t", "op"), []).append(
                (ended - op.started) * 1000.0
            )
            op.conn.send(reply)
            touched.append(op.conn)
            self._op_done(op)
        for conn in dict.fromkeys(touched):
            conn.flush()
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
        session = op.conn.session
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
            applied = self._applied_puts.get(op.conn.session.name)
            if applied is not None and op.opid in applied:
                applied[op.opid] = label

    def _build_reply(self, op: _PendingOp) -> Dict[str, Any]:
        frame = op.frame
        rid = frame.get("rid")
        kind = frame.get("t")
        session = op.conn.session
        counters = self.metrics.counters
        if op.shed:
            return self._overload_frame(rid, "deadline")
        if op.error is not None:
            self.metrics.bump("errors")
            return {"t": "error", "rid": rid, "error": op.error}
        if kind == "put" and op.dup:
            # The opid was applied before (possibly in this very batch):
            # answer with the original's label, apply nothing twice.
            applied = self._applied_puts.get(session.name, {})
            recorded = applied.get(op.opid)
            if recorded is _PUT_PENDING or recorded is None:
                self.metrics.bump("puts_dropped")
                self.metrics.bump("errors")
                return {
                    "t": "error", "rid": rid,
                    "error": "put was dropped (shard unreachable)",
                }
            counters["puts"] += 1
            return {
                "t": "reply", "rid": rid, "ok": True,
                "label": recorded, "deduped": True,
                "token": session.export_token(),
            }
        if kind == "put":
            counters["puts"] += 1
            if op.label is None:
                if op.opid is not None:
                    # Nothing was applied, so forget the opid: a retry
                    # of this put must be a real re-attempt, not a
                    # replay of this failure.
                    applied = self._applied_puts.get(session.name)
                    if applied is not None:
                        applied.pop(op.opid, None)
                self.metrics.bump("puts_dropped")
                self.metrics.bump("errors")
                return {
                    "t": "error", "rid": rid,
                    "error": "put was dropped (shard unreachable)",
                }
            return {
                "t": "reply", "rid": rid, "ok": True,
                "label": op.label,
                "token": session.export_token(),
            }
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
