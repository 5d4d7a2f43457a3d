"""Common machinery for broadcast protocols.

Every protocol in this package is the same machine with a different
*delivery predicate*:

1. a send path that stamps protocol metadata onto an :class:`Envelope`
   and hands it to the network,
2. a receive path that deduplicates copies and places the ones that are
   not deliverable yet in a *hold-back queue*,
3. a delivery loop that repeatedly releases queued envelopes whose
   predicate is satisfied, in deterministic order.

What a delivery leaves behind is one log entry — the envelope, its
delivery time, its label in the delivered set.  ``delivery_log``,
``delivered`` and ``has_seen`` (delivered or held back) are views derived
from that log and the hold-back queue when somebody asks; nothing else is
kept per delivery.

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
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ConfigurationError, ProtocolError
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
    called with a value ``>= value`` for the dimension.  Used for
    per-sender next-seqno indexes (FIFO, CBCAST), delivered-count frontiers
    (RST), epoch frontiers (ASend) and heard-clock floors (Lamport).
    """
    return (_TH, dimension, value)


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

    def __init__(self, entity_id: EntityId, group: GroupMembership) -> None:
        super().__init__(entity_id)
        self.group = group
        self._allocator = MessageIdAllocator(entity_id)
        # Hold-back queue: insertion order == arrival order, O(1) removal.
        self._pending: Dict[MessageId, Envelope] = {}
        self._delivered_ids: Set[MessageId] = set()
        #: Bumped whenever ``_delivered_ids`` mutates outside `_deliver`
        #: (stable-prefix skip, restart wipe, state transfer) — lets
        #: callers that cache views of the delivered set detect that the
        #: set changed without a delivery callback firing.
        self._settled_version = 0
        # The delivery log: what was delivered and when, in delivery
        # order.  `delivery_log` / `delivered` are views of these two.
        self._delivered_envelopes: List[Envelope] = []
        self._delivery_times: List[float] = []
        self._envelopes_by_id: Dict[MessageId, Envelope] = {}
        self._callbacks: List[DeliveryCallback] = []
        self._recovery: Optional[Any] = None
        # Control-plane sidecars, in registration order (restart and
        # stable-skip hooks), and the one that consumes each control
        # operation.
        self._interceptors: List[Any] = []
        self._owners: Dict[str, Any] = {}
        self.duplicates_discarded = 0
        self.max_holdback = 0
        #: `_deliverable` calls made by the drain — one per unblocking
        #: event.
        self.predicate_evaluations = 0
        # -- wakeup index -------------------------------------------------
        self._arrival: Dict[MessageId, int] = {}
        self._arrival_counter = 0
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
        # -- stable-prefix skip + crash bookkeeping ------------------------
        # Labels settled without local delivery: stable (delivered at every
        # member) but unservable after store compaction.  An amnesiac
        # rejoiner fast-forwards past them instead of NACKing forever.
        self._skipped_stable: Set[MessageId] = set()
        self._stable_floor: Dict[EntityId, int] = {}
        # Durable write-ahead log of every envelope we originated into our
        # own label stream (data via `bcast`, in-stream control via
        # `send_logged`).  Stable storage: without it, a sender that
        # crashes after an unreplicated send leaves a permanent FIFO gap
        # in its own stream that no surviving member can fill.  Restart
        # replays it (see `_on_restart`).
        self._outbox: Dict[MessageId, Envelope] = {}
        #: Delivery history of previous incarnations, archived at restart:
        #: ``(delivered_envelopes, skipped_stable)`` per lost life.
        self.incarnation_archive: List[
            Tuple[List[Envelope], frozenset]
        ] = []

    # -- public API ----------------------------------------------------------

    def on_deliver(self, callback: DeliveryCallback) -> None:
        """Register an application upcall invoked at each delivery."""
        self._callbacks.append(callback)

    def bcast(self, operation: str, payload: Any = None, **options: Any) -> MessageId:
        """Broadcast an application operation to the group.

        ``options`` are protocol-specific (e.g. ``occurs_after=`` for
        :class:`~repro.broadcast.osend.OSendBroadcast`).  Returns the new
        message's label.
        """
        message = Message(self._allocator.next_id(), operation, payload)
        envelope = self._stamp(Envelope(message), **options)
        # Keep our own stamped copy: if every network copy (including the
        # self-delivery hop) is lost, retransmission must still be possible.
        self._envelopes_by_id[message.msg_id] = envelope
        self._outbox[message.msg_id] = envelope
        self.broadcast(envelope)
        return message.msg_id

    def send_logged(self, envelope: Envelope) -> None:
        """Send an in-stream control envelope with stable-storage logging.

        For protocol control messages that occupy the sender's own label
        stream (Lamport acks, sequencer order bindings): logged to the
        durable outbox and kept in the repair store exactly like `bcast`
        data, so a crash between send and first remote receipt cannot
        orphan the stream position.
        """
        self._envelopes_by_id[envelope.msg_id] = envelope
        self._outbox[envelope.msg_id] = envelope
        self.broadcast(envelope)

    # -- hooks for subclasses ---------------------------------------------------

    def _stamp(self, envelope: Envelope, **options: Any) -> Envelope:
        """Attach protocol metadata to an outgoing envelope."""
        if options:
            raise ProtocolError(
                f"{self.protocol_name} does not accept options: {options}"
            )
        return envelope

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

    def _reset_volatile(self) -> None:
        """Drop protocol-specific volatile state after a restart.

        Subclasses clear delivered-state clocks, cursors, reassembly
        buffers and extracted graphs here.  *Send-side* counters that
        mirror the (durable) label allocator — e.g. CBCAST's own-broadcast
        count — must survive, or post-restart stamps would contradict the
        labels they carry.
        """

    def _on_stable_skip(self, origin: EntityId, frontier: int) -> None:
        """Advance per-origin delivery cursors past a skipped stable prefix.

        Called by :meth:`note_stable_prefix` after labels
        ``origin:0..frontier-1`` have been marked settled.  Protocols with
        per-origin counters (FIFO next-seqno, vector-clock components,
        RST delivered counts, Lamport FIFO streams) fast-forward them here
        so fresh traffic is not blocked behind irrecoverable history.
        """

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
        it is refused with :class:`ConfigurationError`.
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
        instead: the label is counted delivered — for predicate purposes
        and for :meth:`has_seen`, so stray copies dedup away — and the
        protocol's per-origin cursors fast-forward
        (:meth:`_on_stable_skip`).

        At a healthy member the frontier never exceeds its own delivered
        prefix (the frontier is a group-wide minimum that includes the
        member's own reports), so this is a no-op outside rejoin.
        """
        floor = self._stable_floor.get(origin, 0)
        if frontier <= floor:
            return
        self._stable_floor[origin] = frontier
        self._settled_version += 1
        for seqno in range(floor, frontier):
            label = MessageId(origin, seqno)
            if label in self._delivered_ids:
                continue
            self._delivered_ids.add(label)
            self._skipped_stable.add(label)
            if label in self._pending:
                # A held copy whose predecessors were compacted: it is
                # stable too, so settle it rather than deliver it out of
                # what would be a torn prefix.
                del self._pending[label]
                self._arrival.pop(label, None)
                self._queued.discard(label)
                self._blocked_on.pop(label, None)
            self._signal_event(("delivered", label))
        self._on_stable_skip(origin, frontier)
        for agent in self._interceptors:
            hook = getattr(agent, "on_stable_skip", None)
            if hook is not None:
                hook(origin, frontier)
        self._drain()

    @property
    def skipped_stable(self) -> frozenset:
        """Labels settled via stable-prefix skip (never delivered here)."""
        return frozenset(self._skipped_stable)

    # -- crash-stop lifecycle ----------------------------------------------------

    def _on_restart(self) -> None:
        """Model volatile-state loss: wipe everything but durable identity.

        Durable across incarnations: the label allocator (labels are never
        reused), the outbox (stable-storage log of own sends), the shared
        group membership, registered callbacks and interceptors, and
        cumulative diagnostics.  Everything else — the hold-back queue,
        delivered state, repair store and the wakeup index — is volatile
        and lost with the crash.  The previous life's delivery
        history is archived for post-hoc analysis.

        After the wipe the outbox is replayed: every logged send is
        re-received locally (rebuilding our own stream as a recovering
        process replays its log) and re-broadcast to the group (peers
        dedup known labels; the ones only we ever held fill their FIFO
        gaps).  Without this, a send whose every network copy was lost
        before the crash would leave a permanently unfillable gap in our
        stream, stalling all our post-restart traffic behind it.
        """
        self.incarnation_archive.append(
            (list(self._delivered_envelopes), frozenset(self._skipped_stable))
        )
        self._pending.clear()
        self._delivered_ids.clear()
        self._settled_version += 1
        self._delivered_envelopes.clear()
        self._delivery_times.clear()
        self._envelopes_by_id.clear()
        self._arrival.clear()
        self._blocked_on.clear()
        self._event_waiters.clear()
        self._threshold_waiters.clear()
        self._watermarks.clear()
        self._ready.clear()
        self._current.clear()
        self._queued.clear()
        self._draining = False
        self._cursor = -1
        self._skipped_stable = set()
        self._stable_floor.clear()
        self._reset_volatile()
        for agent in self._interceptors:
            reset = getattr(agent, "reset_volatile", None)
            if reset is not None:
                reset()
        replay = sorted(
            self._outbox,
            # Control namespaces (e.g. the sequencer's order stream)
            # replay before the main stream: a replayed binding must be
            # in place before the data it binds, or the recovering
            # sequencer would mistake its own old data for unbound
            # traffic and re-issue orders for it.
            key=lambda label: (label.sender == self.entity_id, label),
        )
        for label in replay:
            envelope = self._outbox[label]
            self.on_receive(self.entity_id, envelope)
            self.broadcast(envelope)

    # -- receive path -------------------------------------------------------------

    def on_receive(self, sender: EntityId, envelope: Envelope) -> None:
        message = envelope.message
        # `intercept` is looked up per call, not bound at registration,
        # so a wrapper installed on the agent's class later sees it.
        owner = self._owners.get(message.operation)
        if owner is not None:
            owner.intercept(sender, envelope)
            return
        msg_id = message.msg_id
        recovery = self._recovery
        if recovery is not None and recovery._first_missing:
            # Something is being chased: this may be it.
            recovery.arrived(msg_id)
        # This dedupe is what lets `StabilityTracker._compact` resume
        # where its last sweep stopped: a label below an origin's stable
        # frontier is in `_delivered_ids` (the frontier never passes our
        # delivered prefix), so it never re-enters the store until a
        # restart wipes both.  Whatever truncates `_delivered_ids` must
        # keep that true (tests/broadcast/test_gc_equivalence.py).
        if self.has_seen(msg_id):
            self.duplicates_discarded += 1
            return
        self._envelopes_by_id[msg_id] = envelope
        self._on_received(sender, envelope)
        arrival = self._arrival_counter
        self._arrival_counter = arrival + 1
        held = len(self._pending) + 1
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
        if self._recovery is not None and self._pending:
            self._recovery.notify_blocked()

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
        if msg_id in self._delivered_ids:
            raise ProtocolError(f"double delivery of {msg_id}")
        self._delivered_ids.add(msg_id)
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

    def has_delivered(self, msg_id: MessageId) -> bool:
        return msg_id in self._delivered_ids

    def has_seen(self, msg_id: MessageId) -> bool:
        """Whether a copy of ``msg_id`` is settled or held here.

        "Seen" is not separate state: a label is seen iff it was
        delivered (or settled by a stable-prefix skip or an installed
        snapshot — both enter ``_delivered_ids``) or its envelope waits
        in the hold-back queue.  This is the dedup test of
        :meth:`on_receive` and what recovery and the protocols'
        ``missing_for`` ask before naming a label missing.
        """
        return msg_id in self._delivered_ids or msg_id in self._pending


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
