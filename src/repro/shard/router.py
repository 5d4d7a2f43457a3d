"""Client-side routing with per-session cross-shard dependency tracking.

The paper's ``OSend`` lets the *application* declare causal precedence
(Section 3.1); this layer is that application.  Each :class:`Session`
keeps a per-shard *frontier* — the maximal labels its causal past
projects onto each shard — and stamps every write with:

* ``occurs_after`` = the frontier of the destination shard (in-group
  labels the group's own delivery predicate can enforce), plus the
  slot's migration-handoff label if the key's slot ever moved — the
  envelope's predicate;
* ``cross_deps``   = the frontiers of every *other* shard, unpruned
  (foreign labels; filed in the ledger for audit, never on the envelope
  — their in-group projection is what ``occurs_after`` already carries).
  Since the frontier is the session's whole causal past, a write's past
  on another shard is the closure of its ``cross_deps`` there: what a
  barrier read's closure check reads off it.

Each is the frontier's own frozenset whenever no handoff or second other
shard has to be folded in: one put's stamp is built once and shared by
the session, the ledger and the envelope.

Observing a label (a write a get returned, a token's labels, a barrier
label from a completed read) *absorbs* its full transitive causal past
into the frontier, per shard.  That is what makes the scheme sound: if
``put1(A)`` ≺ ``put2(B)`` ≺ ``barrier(B)`` was observed, a later write to
shard A depends on ``put1`` even though the session never touched A
before.  The absorb walks the ledger's stamps, both edge kinds, down to
the session's past — kept per shard as a :class:`~repro.broadcast.cut.Cut`
— so it costs what the labels add, not the history, and asks the
ledger's graph nothing.

Sessions are FIFO: an operation is issued only after every earlier one
(writes issue, gets are served, barrier reads complete).  A write whose
slot is frozen by an in-flight rebalance, or a get whose floor no up
replica covers yet, waits at the head of the queue — preserving session
order through the cutover or the catch-up.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import chain
from typing import TYPE_CHECKING, Callable, Deque, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.broadcast.cut import Cut
from repro.compact_json import dumps
from repro.errors import ProtocolError
from repro.shard.barrier import BarrierRead, StablePointBarrier
from repro.types import EntityId, MessageId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.cluster import ShardedCluster

#: One-second retries an operation survives before being dropped — the
#: contact may be crashed, flush-frozen, or the slot frozen mid-move;
#: bounded so campaign settling always terminates.
PUT_ATTEMPTS = 240

#: Version tag carried by serialized session tokens.  Bump when the
#: token schema changes; importers reject tags they do not understand
#: rather than silently misreading a newer layout.
TOKEN_VERSION = 1


#: The frontier of a shard the session has no causal past on.
_NO_LABELS: FrozenSet[MessageId] = frozenset()
_NO_CUT = Cut()
_NO_CUTS: Mapping[int, Cut] = {}

#: What a served get hands its callback: (value, label of the write it
#: came from — ``None`` for a never-written key —, serving member, shard).
Served = Tuple[Optional[object], Optional[MessageId], EntityId, int]


class Session:
    """One client session: FIFO keyed writes, gets and barrier reads."""

    def __init__(self, router: "ShardRouter", name: str) -> None:
        self.router = router
        self.name = name
        #: shard -> maximal labels of this session's causal past there.
        self.frontier: Dict[int, FrozenSet[MessageId]] = {}
        #: shard -> part of the closure of ``frontier`` there under
        #: ``deps``, as the last absorb left it: where the walks of
        #: `_absorbed` stop.  Puts since then are not in it.
        self._past: Dict[int, Cut] = {}
        #: `export_token`'s last result; dropped wherever ``frontier`` is
        #: assigned, so the replies of one cycle share one encoding.
        self._token: Optional[str] = None
        self._queue: Deque[list] = deque()
        self._reading = False
        self._retry_armed = False
        self.ops_issued = 0
        self.ops_skipped = 0
        self.reads_failed = 0
        #: This session's log in the ledger, appended here and nowhere
        #: else, the moment a write or a read takes effect in session
        #: order.  A served get is audited on the spot and logs nothing.
        self.log = router.cluster.ledger.history.setdefault(name, [])

    # -- public API --------------------------------------------------------

    def put(
        self,
        key: str,
        value: object,
        on_issued: Optional[Callable[[Optional[MessageId]], None]] = None,
    ) -> None:
        """Queue a keyed write; issues as soon as the session's turn comes.

        ``on_issued`` (if given) fires exactly once: with the assigned
        label when the write broadcasts, or with ``None`` if the write
        exhausts its retry budget and is dropped.  The serving layer uses
        it to answer wire requests with the label the put became.
        An idle session issues it at once; a first attempt that fails
        waits at the head of the queue, charged as :meth:`pump` charges.
        """
        entry = ["put", (key, value), on_issued, PUT_ATTEMPTS]
        if self._queue or self._reading:
            self._queue.append(entry)  # `pump` issues it in its turn
            return
        label = self._issue_put(key, value)
        if label is None and self._charge(entry):
            self._queue.append(entry)
        elif on_issued is not None:
            on_issued(label)

    def get(
        self, key: str, on_served: Callable[[Optional[Served]], None]
    ) -> None:
        """Queue a causally gated read of ``key``, served in session order.

        When the get reaches the head of the queue it is answered by one
        replica of the key's shard that has settled :meth:`read_floor`
        (:meth:`ShardedCluster.read_replica` picks it), and the served
        write is folded into the frontier before any later operation of
        this session issues — so the get sees every earlier put of the
        session and none of the later ones.  ``on_served`` fires exactly
        once: with ``(value, label, member, shard)``, or with ``None``
        if no up replica covered the floor within the retry budget a put
        gets.  While it waits, only this session's later operations are
        held back.
        """
        self._enqueue(["get", (key,), on_served, PUT_ATTEMPTS])

    def read(
        self,
        shards: Optional[Sequence[int]] = None,
        callback: Optional[Callable[["BarrierRead"], None]] = None,
    ) -> None:
        """Queue a consistent multi-shard read (all shards by default).

        An empty selection raises :class:`ValueError`: a barrier over no
        shard never completes, and the session's later operations would
        wait behind it forever.
        """
        chosen = tuple(shards) if shards is not None else None
        if chosen == ():
            raise ValueError("a read needs at least one shard")
        self._enqueue(["read", (chosen,), callback])

    @property
    def idle(self) -> bool:
        return not self._queue and not self._reading

    @property
    def reads(self) -> List["BarrierRead"]:
        """The barrier reads this session completed, in order."""
        return [entry for kind, entry in self.log if kind == "read"]

    # -- causal session tokens ---------------------------------------------

    def export_token(self) -> str:
        """Serialize this session's per-shard frontier as an opaque token.

        The token is self-contained: a client can disconnect, hand the
        token to any server fronting the same object space, and
        :meth:`import_token` restores the causal floor under which its
        next operations issue — read-your-writes and monotonic order
        survive the reconnect.  Version-tagged so the schema can evolve
        (importers reject tags they do not know).
        """
        if self._token is None:
            self._token = dumps(
                {
                    "v": TOKEN_VERSION,
                    "session": self.name,
                    "frontier": {
                        str(shard): sorted(
                            [label.sender, label.seqno] for label in labels
                        )
                        for shard, labels in sorted(self.frontier.items())
                        if labels
                    },
                }
            )
        return self._token

    def import_token(self, token: str) -> FrozenSet[MessageId]:
        """Merge a previously exported token into this session's frontier.

        Labels the cluster's ledger does not know (a token minted against
        a different object space, or one whose history this server never
        saw) cannot be ordered against anything here; they are dropped
        and returned so callers can surface the loss.  A structurally
        invalid token, or one carrying an unknown version tag or a shard
        outside this cluster's map, raises :class:`ProtocolError` — a
        newer layout must never be silently misread as an empty frontier.
        So does a corrupted or forged one that lists a known label under
        a shard it does not belong to; a refused token merges nothing.
        """
        try:
            document = json.loads(token)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed session token: {exc}") from exc
        if not isinstance(document, dict):
            raise ProtocolError("malformed session token: not an object")
        version = document.get("v")
        if version != TOKEN_VERSION:
            raise ProtocolError(
                f"unknown session token version: {version!r} "
                f"(this node speaks {TOKEN_VERSION})"
            )
        frontier = document.get("frontier")
        if not isinstance(frontier, dict):
            raise ProtocolError("malformed session token: missing frontier")
        cluster = self.router.cluster
        ledger = cluster.ledger
        unknown: Set[MessageId] = set()
        known: Dict[int, Set[MessageId]] = {}
        for shard_key, pairs in frontier.items():
            try:
                shard = int(shard_key)
                labels = set()
                for sender, seqno in pairs:
                    # JSON's 0.0 and true compare equal to the seqno 0
                    # and 1, and would be re-exported as they came.
                    if not isinstance(sender, str) or type(seqno) is not int:
                        raise ValueError(f"bad label {[sender, seqno]!r}")
                    labels.add(MessageId(sender, seqno))
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"malformed session token frontier: {exc}"
                ) from exc
            if shard not in cluster.groups:
                raise ProtocolError(
                    f"session token names unknown shard {shard}"
                )
            filed = {label for label in labels if label in ledger}
            unknown |= labels - filed
            known.setdefault(shard, set()).update(filed)
            for label in sorted(filed):
                if ledger.shard_of(label) != shard:
                    # Merged, it would be stamped as an in-group
                    # dependency of a group that never carries it.
                    raise ProtocolError(
                        f"session token files {label} under shard {shard}; "
                        f"it belongs to shard {ledger.shard_of(label)}"
                    )
        # Nothing is merged until the whole token has been checked.  The
        # labels' causal pasts come along, so the frontier stays the
        # session's whole past even where a token names less of it.
        self._absorb(chain.from_iterable(known.values()))
        return frozenset(unknown)

    # -- engine ------------------------------------------------------------

    def _enqueue(self, entry: list) -> None:
        self._queue.append(entry)
        if len(self._queue) == 1:
            # Behind a blocked head there is nothing to do: its retry
            # timer (or its barrier's completion) pumps the queue, and
            # re-trying it here would spend its attempt budget on calls
            # instead of on simulated seconds.
            self.pump()

    def pump(self) -> None:
        """Issue queued operations until one blocks.

        A put on a frozen slot and a get no replica covers yet retry on
        a timer; a barrier read holds the queue until it completes.
        """
        while self._queue and not self._reading:
            entry = self._queue[0]
            kind, args, callback = entry[:3]
            if kind == "read":
                self._queue.popleft()
                self._begin_read(*args, callback)
                return
            attempt = self._issue_put if kind == "put" else self._serve_get
            outcome = attempt(*args)
            if outcome is None and self._charge(entry):
                return
            self._queue.popleft()
            if callback is not None:
                callback(outcome)

    def _charge(self, entry: list) -> bool:
        """Charge a failed attempt to ``entry``'s budget: True if it waits
        for the retry this arms, False if it is dropped (spent)."""
        entry[3] -= 1
        if entry[3] > 0:
            self._arm_retry()
            return True
        if entry[0] == "put":
            self.ops_skipped += 1
        return False

    def _issue_put(self, key: str, value: object) -> Optional[MessageId]:
        router = self.router
        cluster = router.cluster
        slot = cluster.shard_map.slot_of(key)
        if slot in router._frozen:
            return None
        shard = cluster.shard_map.assignment[slot]
        # The stamp is the frontier itself: every frozenset in it is an
        # antichain already, and the cross stamp is the other shards'
        # frontiers unpruned — the session's whole causal past there, so
        # a read's closure check reads a write's past off its stamp.  The
        # common put shares the frontier's frozensets with the ledger and
        # the envelope and computes nothing.
        frontier = self.frontier
        past = None
        handoff = router._handoff.get(slot)
        if handoff is not None:
            # The slot moved here at some point: every later write must
            # follow the migration record, or an uninvolved session's
            # write could be delivered before the state it overwrites.
            # The record drags in causal past the session never observed
            # (the migration follows the moved writes *and* the
            # destination frontier, which reach other shards through
            # cross-dependencies): the put is stamped as if the session
            # had absorbed it, and the session absorbs it once it is sent.
            changed, past = self._absorbed((handoff,))
            frontier = {**frontier, **changed}
        deps = frontier.get(shard, _NO_LABELS)
        cross = _NO_LABELS
        for other, labels in frontier.items():
            if other != shard and labels:
                cross = cross | labels if cross else labels
        label = cluster.shard_send(
            shard,
            "put",
            {"key": key, "value": value},
            occurs_after=deps,
            cross_deps=cross,
            session=self.name,
            key=key,
            slot=slot,
        )
        if label is None:
            return None
        if past is not None:
            self.frontier.update(changed)
            self._past.update(past)
        # The new label dominates everything it was stamped with.
        self.frontier[shard] = frozenset({label})
        self._token = None
        self.log.append(("write", label))
        self.ops_issued += 1
        return label

    def _begin_read(
        self,
        shards: Optional[Sequence[int]],
        callback: Optional[Callable[["BarrierRead"], None]],
    ) -> None:
        cluster = self.router.cluster
        touched = tuple(shards) if shards is not None else cluster.shard_ids
        self._reading = True

        def done(read: Optional["BarrierRead"]) -> None:
            self._reading = False
            if read is None:
                self.reads_failed += 1
            else:
                self.log.append(("read", read))
                self._absorb(read.barriers(), read.cuts)
                if callback is not None:
                    callback(read)
            self.pump()

        StablePointBarrier(
            cluster,
            touched,
            on_complete=done,
            session=self.name,
            baseline={
                shard: self.frontier.get(shard, frozenset())
                for shard in touched
            },
            cross=dict(self.frontier),
        ).start()

    def _serve_get(self, key: str) -> Optional[Served]:
        cluster = self.router.cluster
        shard, _slot, floor = self.read_floor(key)
        member = cluster.read_replica(shard, floor)
        if member is None:
            return None
        value, label = cluster.member_read(shard, member, key)
        if label is not None:
            # The session now depends on what it saw: monotonic reads
            # and writes-follow-reads hold by construction.
            self.observe(label)
        cluster.ledger.audit_get(self.name, key, shard, label, member)
        return value, label, member, shard

    def read_floor(
        self, key: str
    ) -> Tuple[int, int, FrozenSet[MessageId]]:
        """What a replica must have settled to serve ``key`` to us.

        Returns ``(shard, slot, floor)``: the key's current home shard
        and slot, and the session token's projection onto that shard —
        the frontier's own frozenset there, not a copy, plus the slot's
        migration handoff when one is pending.  A member whose settled
        set covers ``floor`` can answer the read without violating any
        session guarantee (the replica-read eligibility rule; see
        docs/SERVING.md).
        """
        slot = self.router.cluster.shard_map.slot_of(key)
        shard = self.router.cluster.shard_map.shard_for_slot(slot)
        floor = self.frontier.get(shard) or frozenset()
        handoff = self.router.handoff_dep(slot)
        if handoff is not None:
            floor = floor | {handoff}
        return shard, slot, floor

    def observe(self, label: MessageId) -> None:
        """Fold an externally observed write into the session frontier.

        The serving layer calls this when a replica read returned
        ``label``'s value: from then on the session's reads and writes
        must stay causally after it (monotonic reads / writes-follow-
        reads by construction).  Cheap no-op when the frontier already
        dominates the label — always so for a label this session issued:
        a put replaces its shard's frontier with a label stamped after it,
        and every other change keeps the maximal elements of a superset,
        so the frontier only ever moves causally forward.
        """
        ledger = self.router.cluster.ledger
        if ledger.session_of(label) == self.name:
            return
        shard = ledger.shard_of(label)
        if shard is None:
            return  # never filed here: nothing to order it against
        if label not in self.frontier.get(shard, ()):
            self._absorb((label,))

    def _absorb(
        self, labels: Iterable[MessageId], cuts: Mapping[int, Cut] = _NO_CUTS
    ) -> None:
        """Fold ``labels``' transitive causal past into the frontier
        (``cuts``: as `_absorbed` takes them)."""
        changed, past = self._absorbed(labels, cuts)
        if changed:
            self.frontier.update(changed)
            self._token = None
        self._past.update(past)

    def _absorbed(
        self, labels: Iterable[MessageId], cuts: Mapping[int, Cut] = _NO_CUTS
    ) -> Tuple[Dict[int, FrozenSet[MessageId]], Dict[int, Cut]]:
        """The frontier of each shard that absorbing ``labels`` changes,
        and the past cut of each shard whose cut grows.

        ``cuts`` (a completed read's) maps shards to a cut of the labels'
        causal past there that holds the session's past there, each of
        its labels below one of ``labels``.

        The session's causal past on a shard is the closure of its
        frontier there: the last absorb's cut, plus the walk down from
        the frontier to it (the session's own puts since), taken when
        the walk below first reaches the shard — or, on a shard of
        ``cuts``, that last cut joined with the given one.  The
        walk goes down both edge kinds from ``labels``, and from the
        foreign ``cross_deps`` of what a given cut adds to the session's,
        and stops at that past: it visits exactly what the labels add
        beyond the cuts.  A shard's new frontier is its old one, less
        what a given cut holds, plus what the walk added there, less
        every label an added one names in its ``deps`` — a label is
        below another iff a chain of ``deps`` links them, and a chain
        down from an added label to an old one passes only added labels.
        Labels the ledger never filed add nothing.
        """
        cluster = self.router.cluster
        ledger = cluster.ledger
        ops = ledger.ops
        home = cluster.shard_of_member
        frontier = self.frontier
        base: Dict[int, Cut] = dict(self._past)
        for shard, cut in cuts.items():
            held = base.get(shard)
            base[shard] = cut if held is None else held | cut
        roots = [label for label in labels if label in ops]
        if cuts:
            # A label's cross_deps were issued before it, and each
            # origin's labels are issued in seqno order
            # (tests/shard/test_stamp_closure.py): a label issued before
            # the first one missing from any shard's past names nothing
            # outside it.
            horizon = min(
                (
                    ops[first].index
                    for shard in cluster.shard_ids
                    for origin in cluster.groups[shard].members
                    for first in (
                        MessageId(origin, base.get(shard, _NO_CUT).top(origin)),
                    )
                    if first in ops
                ),
                default=len(ops),
            )
            for shard, cut in cuts.items():
                old = self._past.get(shard, _NO_CUT)
                for origin in cluster.groups[shard].members:
                    # What the cut adds, newest first, down to the horizon.
                    for seqno in range(cut.top(origin) - 1, old.top(origin) - 1, -1):
                        record = ops.get(MessageId(origin, seqno))
                        if record is None:
                            continue
                        if record.index <= horizon:
                            break
                        if record.label not in old:
                            roots.extend(record.cross_deps)
                for label in cut.above:
                    record = ops.get(label)
                    if (
                        record is not None and record.index > horizon
                        and label not in old
                    ):
                        roots.extend(record.cross_deps)
        #: shard -> (its past cut, what the frontier walk adds to it),
        #: synced when the walk first reaches the shard.
        synced: Dict[int, Tuple[Cut, Set[MessageId]]] = {}

        def sync(shard: int) -> Tuple[Cut, Set[MessageId]]:
            cut = base.get(shard, _NO_CUT)
            walked: Set[MessageId] = set()
            if shard not in cuts:
                walked, _named = ledger.past_outside(
                    frontier.get(shard, _NO_LABELS), cut
                )
            synced[shard] = cut, walked
            return cut, walked

        added: Set[MessageId] = set()
        stack = roots
        while stack:
            label = stack.pop()
            if label in added:
                continue
            shard = home[label[0]]
            cut, walked = synced.get(shard) or sync(shard)
            if label in walked or label in cut:
                continue
            added.add(label)
            record = ops[label]
            stack.extend(record.deps)
            stack.extend(record.cross_deps)
        fresh: Dict[int, List[MessageId]] = {}
        for label in added:
            fresh.setdefault(home[label[0]], []).append(label)
        changed: Dict[int, FrozenSet[MessageId]] = {}
        past: Dict[int, Cut] = {}
        for shard in cluster.shard_ids:
            new = fresh.get(shard, ())
            given = cuts.get(shard)
            if new:
                named: Set[MessageId] = set()
                for label in new:
                    named.update(ops[label].deps)
                heads = set(new)
                heads.update(
                    label for label in frontier.get(shard, ())
                    if given is None or label not in given
                )
                changed[shard] = ledger.in_issue_order(heads - named)
            cut, walked = synced.get(shard) or (base.get(shard, _NO_CUT), ())
            if new or walked:
                past[shard] = Cut(cut.prefix, cut.above.union(new, walked))
            elif given is not None:
                past[shard] = cut
        return changed, past

    def _arm_retry(self) -> None:
        if self._retry_armed:
            return
        self._retry_armed = True

        def fire() -> None:
            self._retry_armed = False
            self.pump()

        self.router.cluster.scheduler.call_in(1.0, fire)


class ShardRouter:
    """Routes session traffic onto shard groups; owns slot freezes and
    handoffs, which a session's put reads directly."""

    def __init__(self, cluster: "ShardedCluster") -> None:
        self.cluster = cluster
        self._sessions: Dict[str, Session] = {}
        self._frozen: Set[int] = set()
        #: slot -> migration record every post-cutover write must follow.
        self._handoff: Dict[int, MessageId] = {}

    def session(self, name: str) -> Session:
        if name not in self._sessions:
            self._sessions[name] = Session(self, name)
        return self._sessions[name]

    @property
    def sessions(self) -> Dict[str, Session]:
        return dict(self._sessions)

    # -- rebalance coordination -------------------------------------------

    def slot_frozen(self, slot: int) -> bool:
        return slot in self._frozen

    def handoff_dep(self, slot: int) -> Optional[MessageId]:
        return self._handoff.get(slot)

    def freeze_slot(self, slot: int) -> None:
        self._frozen.add(slot)

    def unfreeze_slot(
        self, slot: int, handoff: Optional[MessageId] = None
    ) -> None:
        self._frozen.discard(slot)
        if handoff is not None:
            self._handoff[slot] = handoff
        self.kick()

    # -- liveness plumbing -------------------------------------------------

    def kick(self) -> None:
        """Re-pump every session (after an unfreeze or a repair round)."""
        for session in self._sessions.values():
            session.pump()

    def busy(self) -> bool:
        return bool(self._frozen) or any(
            not session.idle for session in self._sessions.values()
        )

    def stuck_report(self) -> List[str]:
        report = []
        for name, session in self._sessions.items():
            if not session.idle:
                report.append(
                    f"session {name}: queued={len(session._queue)} "
                    f"reading={session._reading}"
                )
        if self._frozen:
            report.append(f"frozen slots: {sorted(self._frozen)}")
        return report
