"""Common machinery for broadcast protocols.

Every protocol in this package is the same machine with a different
*delivery predicate*:

1. a send path that stamps protocol metadata onto an :class:`Envelope`
   and hands it to the network,
2. a receive path that deduplicates copies and places the ones that are
   not deliverable yet in a *hold-back queue*,
3. a delivery loop that repeatedly releases queued envelopes whose
   predicate is satisfied, in deterministic order.

What a delivery leaves behind is one log entry — the envelope and its
delivery time.  ``delivery_log`` and ``delivered`` are views derived from
that log when somebody asks; nothing else is kept per delivery.

A label is *settled* once delivered (control deliveries too),
skip-settled (:meth:`note_stable_prefix`) or installed from a snapshot;
the last two share one step (:meth:`_settle`).  The settled set is kept
as per origin a contiguous prefix (``_prefix``, origins in the order
first settled) plus the few labels settled above it (``_above``).  Only
this package knows that form: ``_take``, ``_deliver`` and the predicates
inline its test and update, and a predicate waits on a prefix with
:func:`after_prefix`; everything else asks :meth:`has_settled`,
:meth:`settles_any` or :meth:`settles_all`, or takes the set as a
:class:`~repro.broadcast.cut.Cut` (:meth:`cut`, :meth:`known_cut`).

Keeping the chassis identical means measured differences between
protocols are exactly their ordering semantics — the comparison the
paper's Sections 3, 5 and 6 make qualitatively.

Delivery engine
---------------

One engine delivers for every protocol: an event-driven wakeup index.
On arrival each envelope declares the *wake conditions* still blocking
it (:meth:`BroadcastProtocol._blockers`) — discrete events ("label X
delivered", "epoch 3 closed") or monotone thresholds ("next seqno from s
reached 7").  The chassis keeps a reverse index from condition to
waiting envelopes, so a delivery (or receive-time state change) wakes
exactly the envelopes it unblocks; the hold-back queue is a dict, so
removal is O(1).  Each unblocking event costs one predicate evaluation
instead of a full queue rescan.  An arrival whose predicate already
holds, with no drain running and nothing runnable ahead of it, is
delivered on arrival and never enters the queue at all — the common
case when a sender's envelopes arrive in send order.

Runs
----

A frame lands whole, and :meth:`BroadcastProtocol._take` is its one
intake (``on_receive`` hands it a frame of one).  Consecutive envelopes
that delivery on arrival would take one by one, with nothing held back,
form a *run*, delivered with one bookkeeping step and no callback.  A
run starts only while every callback's ``quiet()`` promises that the
callback would do nothing (``on_deliver(callback, quiet=...)``).  A
callback with no ``quiet`` check or one that is not quiet, the trace,
or a class that overrides a delivery step keeps envelopes on the
per-envelope path.  What a sidecar derives from deliveries (the
stability tracker's prefixes, the sharded cluster's frontiers) is the
settled set or a view of the delivery log, so it needs no callback.

The delivery order it implements is that of the obvious drain: repeated
passes over the queue in arrival order, delivering every envelope whose
predicate holds when the scan cursor reaches it.  An envelope unblocked
at cursor position ``c`` is delivered in the current pass iff it arrived
after position ``c``, otherwise in the next pass — the engine emulates
this by routing wakeups into a current-pass or next-pass heap based on
the arrival index of the envelope being delivered.  That rescan is the
executable specification, kept outside the package: ``naive(cls)`` in
``tests/broadcast/naive_drain.py`` builds it, and
``tests/broadcast/test_drain_equivalence.py`` holds every protocol to its
schedule bit for bit.  ``docs/PERFORMANCE.md`` describes the design and
its invariants.
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.broadcast.cut import Cut
from repro.errors import ConfigurationError, ProtocolError, SimulationError
from repro.group.membership import GroupMembership
from repro.sim.node import SimNode
from repro.types import (
    DeliveryRecord,
    Envelope,
    EntityId,
    Message,
    MessageId,
    MessageIdAllocator,
)

DeliveryCallback = Callable[[Envelope], None]

# A wake condition is a tagged tuple; see `after_event` / `after_threshold`.
WakeKey = Tuple[Any, ...]

_EVT = "evt"
_TH = "th"


def after_event(token: Hashable) -> WakeKey:
    """Wake condition: the discrete event ``token`` has been signalled.

    The chassis itself signals ``("delivered", msg_id)`` for every
    delivery; protocols signal their own tokens (epoch closures, sequencer
    bindings, ...) via :meth:`BroadcastProtocol._signal_event`.
    """
    return (_EVT, token)


def after_threshold(dimension: Hashable, value: float) -> WakeKey:
    """Wake condition: monotone counter ``dimension`` has reached ``value``.

    Satisfied once :meth:`BroadcastProtocol._advance_watermark` has been
    called with a value ``>= value`` for the dimension.  Used for epoch
    frontiers (ASend), sequencer positions and Lamport's stream positions
    and heard-clock floors.
    """
    return (_TH, dimension, value)


def after_prefix(origin: EntityId, count: int) -> WakeKey:
    """Wake condition: ``origin``'s settled prefix has reached ``count``;
    the chassis advances it wherever a prefix rises."""
    return (_TH, ("prefix", origin), count)


class BroadcastProtocol(SimNode):
    """Base class: hold-back queue + pluggable delivery predicate.

    Parameters
    ----------
    entity_id:
        This member's identity.
    group:
        Shared :class:`~repro.group.membership.GroupMembership`; the
        protocol consults the current view for member lists and ranks.
    """

    protocol_name = "base"

    #: Whether crash-stop chaos campaigns may crash members running this
    #: protocol.  Declared at the definition site so the chaos matrix
    #: (`repro.chaos.cluster.CHAOS_PROTOCOLS`) derives from the protocols
    #: themselves; a protocol whose semantics cannot survive amnesia
    #: (e.g. ASend's anonymous epoch counting) opts out by overriding
    #: this to ``False``.
    crash_eligible = True

    _takes_runs = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # A class that overrides a step a run stands in for takes every
        # envelope on its own.
        cls._takes_runs = all(
            getattr(cls, step) is getattr(BroadcastProtocol, step)
            for step in ("on_receive", "_accept", "_drain", "_deliver",
                         "_on_received", "_on_delivered", "_is_control")
        )

    def __init__(self, entity_id: EntityId, group: GroupMembership) -> None:
        super().__init__(entity_id)
        # Durable: everything assigned here outside `_init_volatile`
        # (docs/ROBUSTNESS.md, "The crash-stop fault model", names it per
        # class).
        self.group = group
        self._allocator = MessageIdAllocator(entity_id)
        #: Bumped whenever the settled set changes outside `_deliver`
        #: (a stable-prefix skip that settles, restart, state transfer)
        #: — lets callers that cache views of it detect the change
        #: without a delivery callback firing.
        self._settled_version = 0
        self._callbacks: List[DeliveryCallback] = []
        # The callbacks' quiet checks, or None once a callback has none.
        self._quiet_checks: Optional[List[Callable[[], bool]]] = []
        self._recovery: Optional[Any] = None
        #: The member's `StabilityTracker`, filed by the tracker itself;
        #: recovery advertises its frontiers.
        self.stability_tracker: Optional[Any] = None
        # Control-plane sidecars, in registration order (restart and
        # stable-skip hooks), the one that consumes each control
        # operation, and those that may refuse an application send.
        self._interceptors: List[Any] = []
        self._owners: Dict[str, Any] = {}
        self._send_guards: List[Any] = []
        self.duplicates_discarded = 0
        self.max_holdback = 0
        #: `_deliverable` calls made by the drain — one per unblocking
        #: event.
        self.predicate_evaluations = 0
        #: Deliveries made by the run path (`_deliver_run`).
        self.run_deliveries = 0
        self._arrival_counter = 0
        # Per own stream, the seqno below which its bodies were compacted
        # as stable (`StabilityTracker._compact`; `_on_restart`).
        self._own_floors: Dict[EntityId, int] = {}
        # Previous incarnations' delivery logs and skipped ranges, as a
        # restart left them (`incarnation_archive` derives the labels).
        self._archive: List[Tuple[List[Envelope], Dict]] = []
        self._init_volatile()

    def _init_volatile(self) -> None:
        """Build the state a crash loses; ``__init__`` and the restart
        both call it, so each volatile field is assigned here only.

        A subclass with volatile state extends it and calls
        ``super()._init_volatile()`` first.  It runs inside the base
        ``__init__``, so a durable field it reads (the sequencer's
        assignment floors) is assigned before that runs.  *Send-side*
        counters that mirror the durable label allocator — CBCAST's
        own-broadcast count, RST's own row — stay out of it, or
        post-restart stamps would contradict the labels they carry.
        Containers are rebuilt, not cleared: nothing keeps an alias to
        one beyond a method call.
        """
        # Hold-back queue: insertion order == arrival order, O(1) removal.
        self._pending: Dict[MessageId, Envelope] = {}
        # The settled set (module docstring).
        self._prefix: Dict[EntityId, int] = {}
        self._above: Set[MessageId] = set()
        # The delivery log: what was delivered and when, in delivery
        # order.  `delivery_log` / `delivered` are views of these two.
        self._delivered_envelopes: List[Envelope] = []
        self._delivery_times: List[float] = []
        # The repair store: every body this member can serve.  Its own
        # streams' entries are also its stable storage (`_on_restart`).
        self._envelopes_by_id: Dict[MessageId, Envelope] = {}
        # -- wakeup index -------------------------------------------------
        self._arrival: Dict[MessageId, int] = {}
        # Unmet wake conditions per held-back envelope.
        self._blocked_on: Dict[MessageId, Set[WakeKey]] = {}
        # Reverse index: event token -> waiting labels.
        self._event_waiters: Dict[Hashable, List[MessageId]] = {}
        # Reverse index per threshold dimension: heap of (value, label).
        self._threshold_waiters: Dict[Hashable, List[Tuple[float, MessageId]]] = {}
        self._watermarks: Dict[Hashable, float] = {}
        # Ready heaps: `_ready` holds envelopes runnable at the next pass
        # (or next drain); `_current` is the in-flight pass of a drain.
        self._ready: List[Tuple[int, MessageId]] = []
        self._current: List[Tuple[int, MessageId]] = []
        self._queued: Set[MessageId] = set()
        self._draining = False
        self._cursor = -1
        # -- stable-prefix skip -------------------------------------------
        # Labels settled without local delivery, as ``[start, stop)``
        # seqno ranges per origin: stable (delivered at every member) but
        # unservable after store compaction.  An amnesiac rejoiner
        # fast-forwards past them instead of NACKing forever.
        self._skipped_stable: Dict[EntityId, List[Tuple[int, int]]] = {}
        self._stable_floor: Dict[EntityId, int] = {}

    # -- public API ----------------------------------------------------------

    def on_deliver(
        self,
        callback: DeliveryCallback,
        quiet: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Register an upcall invoked at each delivery.

        ``quiet()``, if given, promises that ``callback`` would do
        nothing now.  A run starts only while every callback has a
        ``quiet`` check and every check holds; a run calls no callback.
        """
        self._callbacks.append(callback)
        if quiet is None:
            self._quiet_checks = None
        elif self._quiet_checks is not None:
            self._quiet_checks.append(quiet)

    def bcast(self, operation: str, payload: Any = None, **options: Any) -> MessageId:
        """Broadcast an application operation to the group.

        ``options`` are protocol-specific (e.g. ``occurs_after=`` for
        :class:`~repro.broadcast.osend.OSendBroadcast`).  Returns the new
        message's label.  A sidecar's ``guard_send`` may refuse the send
        first, by raising, before a label is allocated.
        """
        for agent in self._send_guards:
            agent.guard_send()
        message = Message(self._allocator.next_id(), operation, payload)
        self.send_logged(self._stamp(message, **options))
        return message.msg_id

    def send_logged(self, envelope: Envelope) -> None:
        """Send into one of our own label streams: `bcast` data and
        in-stream control (Lamport acks, sequencer order bindings).  The
        one path that files a send.

        Filed in the repair store first, so retransmission can serve it
        if every network copy (the self-delivery hop included) is lost,
        and a restart replays it until it is stable: a crash between
        send and first remote receipt cannot orphan the stream position.
        Then every node gets a copy, this one too: the paper's access
        message is "seen by all entities", the sender's replica alike.
        """
        self._envelopes_by_id[envelope.msg_id] = envelope
        if self._crashed:
            raise SimulationError(
                f"{self.entity_id!r} is crashed and cannot send"
            )
        self.network.broadcast(self.entity_id, envelope)

    # -- hooks for subclasses ---------------------------------------------------

    def _stamp(self, message: Message, **options: Any) -> Envelope:
        """The envelope ``message`` leaves in: protocol metadata attached."""
        if options:
            raise ProtocolError(
                f"{self.protocol_name} does not accept options: {options}"
            )
        return Envelope(message)

    def _deliverable(self, envelope: Envelope) -> bool:
        """Whether ``envelope`` may be delivered now.  Subclasses override."""
        return True

    def _blockers(self, envelope: Envelope) -> Iterable[WakeKey]:
        """The wake conditions currently preventing delivery of ``envelope``.

        Contract (indexed engine):

        * returns exactly the *unmet* conditions at call time — empty iff
          ``_deliverable(envelope)`` is true;
        * every condition is *necessary*: while any remains unsatisfied
          the predicate cannot become true;
        * every condition is eventually signalled (`_signal_event` /
          `_advance_watermark` / the chassis's own delivered events) when
          it becomes satisfied.

        Conditions need not be *sufficient*: a woken envelope whose
        predicate is still false (its condition set grew since
        registration, e.g. a smaller epoch-mate arrived) is simply
        re-indexed with its current blockers.  The default matches the
        default always-true predicate.
        """
        return ()

    def _on_delivered(self, envelope: Envelope) -> None:
        """Bookkeeping after a delivery (clock merges etc.)."""

    def _on_received(self, sender: EntityId, envelope: Envelope) -> None:
        """Bookkeeping when a fresh (non-duplicate) envelope arrives."""

    def _is_control(self, envelope: Envelope) -> bool:
        """Control-plane envelopes skip application callbacks."""
        return False

    def missing_for(self, envelope: Envelope) -> frozenset[MessageId]:
        """Labels whose absence is blocking delivery of ``envelope``.

        Used by the recovery layer to know *what* to NACK.  Protocols that
        can name their blockers override this; the base implementation
        (and protocols whose blockers are anonymous, like an unclosed
        ASend epoch) report nothing.
        """
        return frozenset()

    def _on_stable_skip(self, origin: EntityId) -> None:
        """Catch up with ``origin``'s labels settled without delivery
        (:meth:`_settle`; also a skip that settles nothing new): state a
        protocol derives from its deliveries fast-forwards here, so fresh
        traffic is not blocked behind history it never saw."""

    def _owns_stream(self, origin: EntityId) -> bool:
        """Is ``origin`` our id or one of its ``"<id>!..."`` namespaces?"""
        return origin.partition("!")[0] == self.entity_id

    def compactable_origin(self, origin: EntityId) -> bool:
        """Whether the stability tracker may compact ``origin``'s bodies.

        Protocols whose control history must stay servable forever (the
        sequencer's order bindings: a compacted binding would strand an
        amnesiac rejoiner on an unfillable position) exempt that origin's
        namespace here.  Exempt origins are also excluded from advertised
        stable frontiers, so their labels are recovered by NACK, never
        skip-settled.
        """
        return True

    # -- recovery integration -----------------------------------------------

    def add_interceptor(self, agent: Any) -> None:
        """Register a control-plane agent.

        ``agent.operations`` names the control operations the agent
        consumes.  An incoming envelope carrying one of them goes to
        ``agent.intercept(sender, envelope)`` before ordering-protocol
        processing, and to nothing else; every other envelope (all data)
        meets no agent.  An operation has one owner: a second agent for
        it is refused with :class:`ConfigurationError`.  An agent with a
        ``guard_send()`` is also asked before every :meth:`bcast`.
        """
        for operation in agent.operations:
            owner = self._owners.get(operation)
            if owner is not None:
                raise ConfigurationError(
                    f"{self.entity_id}: control operation {operation!r} "
                    f"already goes to {type(owner).__name__}"
                )
        for operation in agent.operations:
            self._owners[operation] = agent
        self._interceptors.append(agent)
        if hasattr(agent, "guard_send"):
            self._send_guards.append(agent)

    def attach_recovery(self, agent: Any) -> None:
        """Route recovery's operations to ``agent`` and tell it of every
        arrival while it chases a label."""
        self.add_interceptor(agent)
        self._recovery = agent

    def envelope_of(self, msg_id: MessageId) -> Optional[Envelope]:
        """Any stored copy of ``msg_id`` (sent or received), for repair."""
        return self._envelopes_by_id.get(msg_id)

    # -- stable-prefix skip ---------------------------------------------------

    def note_stable_prefix(self, origin: EntityId, frontier: int) -> None:
        """Settle ``origin``'s labels below ``frontier`` without delivery.

        A label below a gossiped stable frontier was delivered at every
        member before its body was compacted away — it can never be
        served again, and chasing it would NACK forever.  A member that
        has not delivered it (in practice: an amnesiac rejoiner whose
        delivered state was lost in a crash) treats it as settled history
        instead: the label is counted settled — for predicate purposes
        and for :meth:`has_seen`, so stray copies dedup away — filed in
        the skipped ranges and settled by :meth:`_settle`.

        At a healthy member the frontier never exceeds its own settled
        prefix (the frontier is a group-wide minimum that includes the
        member's own reports), so this settles nothing outside rejoin.
        But the early return is keyed on the skip floor, not the prefix:
        the hooks and the drain below still run, and some view-change
        flushes complete only there.  The prefix rises in one step; no
        label is built.
        """
        floor = self._stable_floor.get(origin, 0)
        if frontier <= floor:
            return
        self._stable_floor[origin] = frontier
        top = self._prefix.get(origin, 0)
        if frontier > top:
            above = self._above
            ranges = self._skipped_stable.setdefault(origin, [])
            for seqno in sorted(
                l[1] for l in above if l[0] == origin and l[1] < frontier
            ):
                if seqno > top:
                    ranges.append((top, seqno))
                top = seqno + 1
                above.remove((origin, seqno))
            if frontier > top:
                ranges.append((top, frontier))
            self._settle({origin: frontier})
        else:
            self._on_stable_skip(origin)
        for agent in self._interceptors:
            hook = getattr(agent, "on_stable_skip", None)
            if hook is not None:
                hook(origin, frontier)
        self._drain()

    def install_settled(self, labels: Iterable[MessageId]) -> None:
        """Settle ``labels`` without delivery (a snapshot's covered set),
        then deliver what they unblock."""
        prefix, tops = self._prefix, {}
        for label in sorted(labels):
            tops[label[0]] = 0
            if label[1] >= prefix.setdefault(label[0], 0):
                self._above.add(label)
        self._settle(tops)
        self._drain()

    def _settle(self, tops: Dict[EntityId, int]) -> None:
        """Settle without delivery: raise each origin's prefix to at least
        ``tops[origin]`` and past ``_above``, drop the held copies of what
        is settled now (not delivered out of a torn prefix), wake their
        waiters and tell the protocol."""
        prefix, above, pending = self._prefix, self._above, self._pending
        for origin, top in tops.items():
            top = max(top, prefix.get(origin, 0))
            while (origin, top) in above:
                above.remove((origin, top))
                top += 1
            prefix[origin] = top
            self._advance_watermark(("prefix", origin), top)
        for label in [l for l in pending if self.has_settled(l)]:
            del pending[label]
            del self._arrival[label]
            self._queued.discard(label)
            self._blocked_on.pop(label, None)
        for token in [
            t for t in self._event_waiters
            if t[0] == "delivered" and self.has_settled(t[1])
        ]:
            self._signal_event(token)
        self._settled_version += 1
        for origin in tops:
            self._on_stable_skip(origin)

    @property
    def skipped_stable(self) -> FrozenSet[MessageId]:
        """Labels settled via stable-prefix skip (never delivered here)."""
        return _labels_in(self._skipped_stable)

    # -- crash-stop lifecycle ----------------------------------------------------

    def _on_restart(self) -> None:
        """Model volatile-state loss: rebuild everything but durable state.

        What is durable is what ``__init__`` assigns outside
        :meth:`_init_volatile` (``docs/ROBUSTNESS.md`` names it per
        class); among it the repair store's entries of our own label
        streams (our sends not yet compacted as stable), which are kept
        for replay.  The previous life's delivery history is archived,
        each sidecar rebuilds its own volatile state, and one that does
        more at a restart does it in its ``reset_volatile`` hook.

        Then each own stream is settled up to its compaction floor by
        stable-prefix skip (after a group-wide restart we may be the only
        member that knows those sends are stable), and the kept sends are
        replayed: each is re-received locally (a recovering process
        replaying its log) and re-broadcast (peers dedup known labels;
        the ones only we held fill their FIFO gaps).
        """
        own = self.entity_id
        replay = sorted(
            (
                e
                for e in self._envelopes_by_id.values()
                if self._owns_stream(e.msg_id.sender)
            ),
            # Control namespaces (e.g. the sequencer's order stream)
            # replay before the main stream: a replayed binding must be
            # in place before the data it binds, or the recovering
            # sequencer would mistake its own old data for unbound
            # traffic and re-issue orders for it.
            key=lambda e: (e.msg_id.sender == own, e.msg_id),
        )
        self._archive.append((self._delivered_envelopes, self._skipped_stable))
        self._settled_version += 1
        self._init_volatile()
        for agent in self._interceptors:
            for hook in ("_init_volatile", "reset_volatile"):
                step = getattr(agent, hook, None)
                if step is not None:
                    step()
        for origin, floor in sorted(self._own_floors.items()):
            self.note_stable_prefix(origin, floor)
        for envelope in replay:
            self.on_receive(own, envelope)  # files it in the store again
            self.network.broadcast(own, envelope)

    # -- receive path -------------------------------------------------------------

    def on_frame(self, sender: EntityId, envelopes: Sequence[Envelope]) -> int:
        """The whole frame goes to `_take`; with the trace on (per-hop
        events), or for a class that overrides a delivery step, each
        envelope goes to `on_receive`."""
        if self._network.trace.enabled or not self._takes_runs:
            return super().on_frame(sender, envelopes)
        return self._take(sender, envelopes)

    def on_receive(self, sender: EntityId, envelope: Envelope) -> None:
        self._take(sender, (envelope,))

    def _take(self, sender: EntityId, envelopes: Sequence[Envelope]) -> int:
        """Each envelope, in send order, goes to its control agent, is
        dropped as a duplicate, joins a run or is taken on its own.
        Stops at a crash; returns how many were taken."""
        owners = self._owners
        recovery = self._recovery
        prefix = self._prefix
        above = self._above
        pending = self._pending
        runs = (
            self._takes_runs
            and self._quiet_checks is not None
            and not self._network.trace.enabled
        )
        run: List[Envelope] = []
        taken = 0
        for envelope in envelopes:
            if self._crashed:
                break
            taken += 1
            message = envelope.message
            # `intercept` is looked up per call, not bound at
            # registration, so a wrapper installed on the agent's class
            # later sees it.
            owner = owners.get(message.operation)
            if owner is not None:
                if run:
                    self._deliver_run(run)
                    run = []
                owner.intercept(sender, envelope)
                continue
            msg_id = message.msg_id
            if recovery is not None and recovery._first_missing:
                # Something is being chased: this may be it.
                recovery.arrived(msg_id)
            # `has_seen`.  This dedupe lets `StabilityTracker._compact`
            # resume where its last sweep stopped: a label below a stable
            # frontier is below our prefix, so it never re-enters the
            # store (tests/broadcast/test_gc_equivalence.py).
            origin = msg_id[0]
            top = prefix.get(origin, 0)
            if (
                msg_id[1] < top
                or (above and msg_id in above)
                or msg_id in pending
            ):
                self.duplicates_discarded += 1
                continue
            self._envelopes_by_id[msg_id] = envelope
            if (
                runs
                and not pending
                and not self._draining
                and not self._ready
                and (run or self._runs_open())
                and self._deliverable(envelope)
            ):
                # Settled on admission, so the run's later envelopes see
                # it; `_deliver` files a label the same way.
                if msg_id[1] == top:
                    top += 1
                    while above and (origin, top) in above:
                        above.remove((origin, top))
                        top += 1
                    prefix[origin] = top
                else:
                    prefix.setdefault(origin, 0)
                    above.add(msg_id)
                run.append(envelope)
                continue
            if run:
                self._deliver_run(run)
                run = []
            self._on_received(sender, envelope)
            arrival = self._arrival_counter
            self._arrival_counter = arrival + 1
            held = len(pending) + 1
            if held > self.max_holdback:
                self.max_holdback = held
            network = self._network
            trace = network.trace
            if trace.enabled:
                trace.record(
                    network.scheduler.now,
                    "hold",
                    entity=self.entity_id,
                    msg_id=msg_id,
                    queue=held,
                )
            self._accept(envelope, msg_id, arrival)
            if recovery is not None and pending:
                recovery.notify_blocked()
        if run:
            self._deliver_run(run)
        return taken

    def _runs_open(self) -> bool:
        for quiet in self._quiet_checks:  # type: ignore[union-attr]
            if not quiet():
                return False
        return True

    def _deliver_run(self, run: List[Envelope]) -> None:
        """Deliver what `_accept` would deliver on arrival envelope by
        envelope, nothing held back, in one bookkeeping step; every
        callback is quiet.  The labels are settled already."""
        count = len(run)
        self._arrival_counter += count
        if not self.max_holdback:
            self.max_holdback = 1
        self.predicate_evaluations += count
        self.run_deliveries += count
        self._delivered_envelopes.extend(run)
        self._delivery_times.extend([self._network.scheduler.now] * count)
        # Nothing is held back, so every waiter is stale; drop them as a
        # delivery on arrival does.
        if self._threshold_waiters:
            prefix = self._prefix
            for envelope in run:
                origin = envelope.msg_id[0]
                self._advance_watermark(("prefix", origin), prefix[origin])
        if self._event_waiters:
            for envelope in run:
                self._signal_event(("delivered", envelope.msg_id))

    def _accept(
        self, envelope: Envelope, msg_id: MessageId, arrival: int
    ) -> None:
        """Deliver a fresh arrival on the spot, or hold it back, index it
        and drain."""
        if (
            not self._draining
            and not self._ready
            and self._deliverable(envelope)
        ):
            # Deliver on arrival: nothing is runnable ahead of this
            # envelope and its predicate holds, so the drain's first pass
            # would reach it next — skip the hold-back queue, the wakeup
            # index and the heap.  With `_cursor` at its arrival index,
            # whatever its delivery wakes (all earlier arrivals) lands in
            # the next pass, exactly where the rescan delivers it.
            self._draining = True
            self._cursor = arrival
            try:
                self.predicate_evaluations += 1
                self._deliver(envelope)
                self._signal_event(("delivered", msg_id))
                self._run_passes()
            finally:
                self._end_drain()
        else:
            self._pending[msg_id] = envelope
            self._arrival[msg_id] = arrival
            self._index(envelope)
            self._drain()

    # -- wakeup index --------------------------------------------------------

    def _index(self, envelope: Envelope) -> None:
        """Register ``envelope``'s unmet wake conditions (or mark ready).

        Called on arrival and again whenever a woken envelope turns out
        not to be deliverable yet (its blocker set changed since the last
        registration).
        """
        msg_id = envelope.msg_id
        unmet: Set[WakeKey] = set()
        for key in self._blockers(envelope):
            if key[0] == _TH:
                _, dimension, value = key
                watermark = self._watermarks.get(dimension)
                if watermark is not None and watermark >= value:
                    continue  # already satisfied
                heapq.heappush(
                    self._threshold_waiters.setdefault(dimension, []),
                    (value, msg_id),
                )
            else:
                self._event_waiters.setdefault(key[1], []).append(msg_id)
            unmet.add(key)
        if unmet:
            self._blocked_on[msg_id] = unmet
        else:
            self._blocked_on.pop(msg_id, None)
            self._enqueue_runnable(msg_id, from_wake=False)

    def _signal_event(self, token: Hashable) -> None:
        """Mark discrete wake condition ``token`` satisfied."""
        waiters = self._event_waiters.pop(token, None)
        if waiters:
            key = (_EVT, token)
            for msg_id in waiters:
                self._resolve_key(msg_id, key)

    def _advance_watermark(self, dimension: Hashable, value: float) -> None:
        """Advance monotone counter ``dimension`` to ``value``."""
        current = self._watermarks.get(dimension)
        if current is not None and value <= current:
            return
        self._watermarks[dimension] = value
        heap = self._threshold_waiters.get(dimension)
        if not heap:
            return
        while heap and heap[0][0] <= value:
            threshold, msg_id = heapq.heappop(heap)
            self._resolve_key(msg_id, (_TH, dimension, threshold))

    def _resolve_key(self, msg_id: MessageId, key: WakeKey) -> None:
        blocked = self._blocked_on.get(msg_id)
        if blocked is None or key not in blocked:
            return  # stale registration (envelope delivered or re-indexed)
        blocked.discard(key)
        if not blocked:
            del self._blocked_on[msg_id]
            self._enqueue_runnable(msg_id, from_wake=True)

    def _enqueue_runnable(self, msg_id: MessageId, from_wake: bool) -> None:
        """Queue an envelope whose wake conditions are all satisfied.

        During a drain, an envelope woken by a delivery joins the current
        pass iff it arrived after the delivering envelope (the rescan's
        cursor has not passed it yet); everything else —
        including fresh arrivals — waits for the next pass.
        """
        if msg_id not in self._pending or msg_id in self._queued:
            return
        entry = (self._arrival[msg_id], msg_id)
        self._queued.add(msg_id)
        if self._draining and from_wake and entry[0] > self._cursor:
            heapq.heappush(self._current, entry)
        else:
            heapq.heappush(self._ready, entry)

    # -- drain ----------------------------------------------------------------

    def _drain(self) -> None:
        """Deliver queued envelopes until no predicate is satisfied."""
        if self._draining:
            return  # the outer drain's pass loop will pick up new arrivals
        self._draining = True
        try:
            self._run_passes()
        finally:
            self._end_drain()

    def _end_drain(self) -> None:
        self._draining = False
        self._current = []
        self._cursor = -1

    def _run_passes(self) -> None:
        """The drain's pass loop (caller holds ``_draining``)."""
        while self._ready:
            # One pass: everything runnable so far, in arrival order.
            self._current = self._ready
            self._ready = []
            self._cursor = -1
            while self._current:
                arrival, msg_id = heapq.heappop(self._current)
                envelope = self._pending.get(msg_id)
                if envelope is None:
                    self._queued.discard(msg_id)
                    continue
                self._queued.discard(msg_id)
                self._cursor = arrival
                self.predicate_evaluations += 1
                if self._deliverable(envelope):
                    del self._pending[msg_id]
                    del self._arrival[msg_id]
                    self._deliver(envelope)
                    self._signal_event(("delivered", msg_id))
                else:
                    # Woken too early: the blocker set grew since
                    # registration.  Re-index with current blockers.
                    self._index(envelope)
                    if msg_id not in self._blocked_on:
                        raise ProtocolError(
                            f"{self.protocol_name}: wakeup index cannot "
                            f"explain why {msg_id} is blocked"
                        )

    def _deliver(self, envelope: Envelope) -> None:
        msg_id = envelope.msg_id
        origin = msg_id[0]
        prefix, above = self._prefix, self._above
        top = prefix.setdefault(origin, 0)
        if msg_id[1] == top:
            top += 1
            while above and (origin, top) in above:
                above.remove((origin, top))
                top += 1
            prefix[origin] = top
            if self._threshold_waiters:
                self._advance_watermark(("prefix", origin), top)
        elif msg_id[1] < top or msg_id in above:
            raise ProtocolError(f"double delivery of {msg_id}")
        else:
            above.add(msg_id)
        position = len(self._delivered_envelopes)
        network = self._network
        now = network.scheduler.now
        self._delivered_envelopes.append(envelope)
        self._delivery_times.append(now)
        self._on_delivered(envelope)
        trace = network.trace
        if trace.enabled:
            trace.record(
                now,
                "deliver",
                entity=self.entity_id,
                msg_id=msg_id,
                operation=envelope.message.operation,
                position=position,
            )
        if not self._is_control(envelope):
            for callback in self._callbacks:
                callback(envelope)

    # -- introspection ------------------------------------------------------------

    @property
    def delivered(self) -> List[MessageId]:
        """Labels delivered so far, in local delivery order."""
        return [envelope.msg_id for envelope in self._delivered_envelopes]

    @property
    def delivery_log(self) -> List[DeliveryRecord]:
        """One :class:`DeliveryRecord` per delivery, built when asked."""
        entity = self.entity_id
        return [
            DeliveryRecord(entity, envelope.msg_id, position, time)
            for position, (envelope, time) in enumerate(
                zip(self._delivered_envelopes, self._delivery_times)
            )
        ]

    @property
    def delivered_envelopes(self) -> List[Envelope]:
        return list(self._delivered_envelopes)

    @property
    def delivered_count(self) -> int:
        """Number of deliveries so far (control traffic included)."""
        return len(self._delivered_envelopes)

    @property
    def store_size(self) -> int:
        """Envelope bodies currently kept for repair."""
        return len(self._envelopes_by_id)

    @property
    def holdback_size(self) -> int:
        """Envelopes received but not yet deliverable."""
        return len(self._pending)

    @property
    def holdback_ids(self) -> List[MessageId]:
        return list(self._pending)

    @property
    def holdback_envelopes(self) -> List[Envelope]:
        """Held-back envelopes, in arrival order."""
        return list(self._pending.values())

    def has_settled(self, msg_id: MessageId) -> bool:
        """Whether ``msg_id`` was delivered, skip-settled or installed."""
        return (
            msg_id[1] < self._prefix.get(msg_id[0], 0)
            or msg_id in self._above
        )

    def has_seen(self, msg_id: MessageId) -> bool:
        """Whether ``msg_id`` is settled or held back here: the dedup test
        of :meth:`on_receive`, and what recovery and the protocols'
        ``missing_for`` ask before naming a label missing."""
        return self.has_settled(msg_id) or msg_id in self._pending

    def settles_any(self, labels: Collection[MessageId]) -> bool:
        """Whether any of ``labels`` is settled here: a walk of the settled
        set that stops at its first label in ``labels``."""
        return any(
            (origin, seqno) in labels
            for origin, top in self._prefix.items() for seqno in range(top)
        ) or not self._above.isdisjoint(labels)

    def settles_all(self, cut: Cut) -> bool:
        """Whether every label of ``cut`` is settled here: one prefix
        test per origin, one label test per label above it."""
        prefix = self._prefix
        return all(
            prefix.get(origin, 0) >= top for origin, top in cut._prefix.items()
        ) and all(map(self.has_settled, cut._above))

    def cut(self) -> Cut:
        """The settled set, in O(origins + above)."""
        return Cut(self._prefix, self._above)

    def known_cut(self) -> Cut:
        """Every label this member knows exists: the settled set, the
        held-back labels and the stored ones above their origin's prefix
        (its own sends among them)."""
        return Cut(
            self._prefix, [*self._above, *self._pending, *self._envelopes_by_id]
        )

    def settled_labels(self) -> FrozenSet[MessageId]:
        """Every settled label, built when asked."""
        return frozenset(self.cut())

    @property
    def incarnation_archive(self) -> List[Tuple[List[Envelope], FrozenSet]]:
        """``(delivered_envelopes, skipped_stable)`` of each previous
        incarnation, as its restart left them."""
        return [(log, _labels_in(ranges)) for log, ranges in self._archive]


def covering(
    stacks: Iterable[BroadcastProtocol], labels: Collection[MessageId]
) -> List[BroadcastProtocol]:
    """The ``stacks`` that have settled every label in ``labels``: the
    replica-read question, asked of a whole group in one call."""
    found = []
    for stack in stacks:
        prefix, above = stack._prefix, stack._above
        for label in labels:
            if label[1] >= prefix.get(label[0], 0) and label not in above:
                break
        else:
            found.append(stack)
    return found


def _labels_in(ranges: Dict[EntityId, List[Tuple[int, int]]]) -> FrozenSet:
    """The labels of per-origin ``[start, stop)`` seqno ranges."""
    return frozenset(
        MessageId(origin, seqno)
        for origin, spans in ranges.items()
        for start, stop in spans
        for seqno in range(start, stop)
    )


def make_group(
    network: Any,
    members: Sequence[EntityId],
    protocol_factory: Callable[[EntityId, GroupMembership], BroadcastProtocol],
) -> Dict[EntityId, BroadcastProtocol]:
    """Instantiate and register one protocol stack per member.

    Convenience used throughout tests, examples and benchmarks: all stacks
    share one :class:`GroupMembership`.
    """
    membership = GroupMembership(members)
    stacks: Dict[EntityId, BroadcastProtocol] = {}
    for member in members:
        stack = protocol_factory(member, membership)
        network.register(stack)
        stacks[member] = stack
    return stacks
