"""NACK-based loss recovery for broadcast protocols.

The ordering protocols are *safe* under message loss — a message whose
causal predecessors were lost is simply never delivered — but not *live*.
:class:`RecoveryAgent` restores liveness with negative acknowledgements:

1. Periodically scan the protocol's hold-back queue; ask the protocol
   which labels block each held envelope (:meth:`missing_for`).
2. For each missing label, unicast a NACK — first to the label's origin,
   then (with backoff) to the other members in rank order: any member
   that stored a copy can repair, so recovery survives an unreachable
   origin ("community repair").
3. A member receiving a NACK looks the envelope up in its protocol's
   store and unicasts the original envelope back; normal receive-path
   dedup makes re-repair harmless.

The agent's control traffic never enters the ordering protocol: the
chassis routes its two operations to the agent before deduplication (see
:meth:`~repro.broadcast.base.BroadcastProtocol.add_interceptor`) and its
labels live in a distinct ``<entity>!rec`` namespace.

This corresponds to the transport-level reliability the paper assumes of
its kernel-provided broadcast; the bench
``bench_ablation_recovery`` quantifies delivery completeness with and
without it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.broadcast.base import BroadcastProtocol
from repro.errors import ConfigurationError
from repro.types import Envelope, EntityId, Message, MessageId, MessageIdAllocator

NACK_OPERATION = "__nack__"
DIGEST_OPERATION = "__digest__"


class RecoveryAgent:
    """Watches one protocol stack and repairs its losses.

    Consumes the control operations in :attr:`operations`; the chassis
    tells it (:meth:`arrived`) when any other envelope arrives while a
    label is being chased.

    Parameters
    ----------
    protocol:
        The stack to protect.  The agent registers itself via
        ``protocol.attach_recovery``.
    scan_interval:
        Simulated-time gap between hold-back scans.
    nack_backoff:
        Minimum time between successive NACKs for the same label.
    max_nacks_per_label:
        Give-up bound per label.

    A label must have been missing for one ``scan_interval`` before its
    first NACK, so messages that are merely still in flight are not
    chased.
    """

    operations = (NACK_OPERATION, DIGEST_OPERATION)

    def __init__(
        self,
        protocol: BroadcastProtocol,
        scan_interval: float = 2.0,
        nack_backoff: float = 4.0,
        max_nacks_per_label: int = 10,
    ) -> None:
        if scan_interval <= 0 or nack_backoff <= 0:
            raise ConfigurationError(
                "scan_interval and nack_backoff must be positive"
            )
        if max_nacks_per_label < 1:
            raise ConfigurationError(
                "max_nacks_per_label must be >= 1 (a permanently lost "
                "label would otherwise keep the event loop alive forever)"
            )
        self.protocol = protocol
        self.scan_interval = scan_interval
        self.nack_backoff = nack_backoff
        self.max_nacks_per_label = max_nacks_per_label
        self._allocator = MessageIdAllocator(f"{protocol.entity_id}!rec")
        self._running = False
        self.nacks_sent = 0
        self.repairs_sent = 0
        self._init_volatile()
        protocol.attach_recovery(self)

    def _init_volatile(self) -> None:
        """Chase state, forgotten when the protected stack restarts."""
        # label -> (last nack time, attempts).  Its labels are a subset
        # of `_first_missing`'s, which is therefore empty iff nothing is
        # chased: the chassis tests it on every arrival.
        self._nack_state: Dict[MessageId, Tuple[float, int]] = {}
        self._first_missing: Dict[MessageId, float] = {}
        self._scan_scheduled = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Enable scanning (actual timers are demand-driven)."""
        self._running = True
        if self.protocol.holdback_size:
            self.notify_blocked()

    def stop(self) -> None:
        self._running = False

    def notify_blocked(self) -> None:
        """Called by the chassis when envelopes are held back.

        Arms the scan timer if it is not already pending; the timer
        disarms itself once nothing chaseable remains, so an idle system
        drains its event queue and ``scheduler.run()`` terminates.
        """
        if not self._running or self._scan_scheduled:
            return
        self._scan_scheduled = True
        self.protocol.call_in(self.scan_interval, self._scan)

    # -- scanning -------------------------------------------------------------

    def _scan(self) -> None:
        self._scan_scheduled = False
        if not self._running:
            return
        self._purge_settled()
        now = self.protocol.now
        chaseable = False
        for envelope in self.protocol.holdback_envelopes:
            # `missing_for` is a frozenset of labels hashed through their
            # `str` sender: unsorted, the NACK order — and with it the
            # `!rec` labels and the hops' RNG draws — would follow
            # PYTHONHASHSEED.
            for label in sorted(self.protocol.missing_for(envelope)):
                if self._maybe_nack(label, now):
                    chaseable = True
        if chaseable:
            self._scan_scheduled = True
            self.protocol.call_in(self.scan_interval, self._scan)

    def _purge_settled(self) -> None:
        """Forget chase state for labels that have since arrived.

        A label can settle between scans without arriving (e.g. a
        stable-prefix skip marks it seen, and :meth:`arrived` never hears
        of it); this sweep keeps ``_nack_state`` / ``_first_missing``
        bounded by the set of labels actually still missing.
        """
        has_seen = self.protocol.has_seen
        for label in [l for l in self._nack_state if has_seen(l)]:
            del self._nack_state[label]
        for label in [l for l in self._first_missing if has_seen(l)]:
            del self._first_missing[label]

    def _maybe_nack(self, label: MessageId, now: float) -> bool:
        """NACK ``label`` if due; returns whether it is still worth chasing."""
        first = self._first_missing.setdefault(label, now)
        if now - first < self.scan_interval:
            return True  # too young: probably still in flight
        last, attempts = self._nack_state.get(label, (-float("inf"), 0))
        if attempts >= self.max_nacks_per_label:
            return False
        if now - last < self.nack_backoff:
            return True  # still in backoff, keep the timer alive
        target = self._repair_target(label, attempts)
        if target is None:
            return False
        self._nack_state[label] = (now, attempts + 1)
        self.nacks_sent += 1
        nack = Message(self._allocator.next_id(), NACK_OPERATION, label)
        self.protocol.network.unicast(
            self.protocol.entity_id, target, Envelope(nack)
        )
        return True

    def _repair_target(self, label: MessageId, attempts: int) -> Optional[EntityId]:
        """Origin first, then the other members round-robin by attempt."""
        members: List[EntityId] = [
            m
            for m in self.protocol.group.view.members
            if m != self.protocol.entity_id
        ]
        if not members:
            return None
        if attempts == 0 and label.sender in members:
            return label.sender
        fallbacks = [m for m in members if m != label.sender] or members
        return fallbacks[attempts % len(fallbacks)]

    # -- anti-entropy ---------------------------------------------------------

    def anti_entropy_round(self) -> None:
        """Broadcast a digest of everything this member can *serve*.

        Hold-back-driven NACKs can only chase labels some *held* envelope
        names; a message that nothing references (e.g. the lost tail of a
        conversation) is invisible to them.  Anti-entropy closes that
        gap: receivers compare the digest with their own ``seen`` set and
        NACK the digest's sender — who, having advertised the label,
        necessarily holds a copy.  Each round is a single broadcast, so
        explicitly scheduled rounds keep the simulation terminating.

        Only labels still in the repair store are advertised.  Labels this
        member has seen but whose bodies the stability tracker compacted
        are *unservable*: advertising them would make receivers NACK this
        member forever while ``envelope_of`` returns ``None``.  Receivers
        are instead told the gossiped stable frontier, below which they
        may skip (a compacted label is by definition delivered at every
        member that can still need it).
        """
        # Re-inject our own broadcasts whose every network copy (including
        # the self-delivery hop) was lost: they exist only in our store.
        for label, stored in list(self.protocol._envelopes_by_id.items()):
            if not self.protocol.has_seen(label):
                self.protocol.on_receive(self.protocol.entity_id, stored)
        servable: Dict[EntityId, set] = {}
        for label in self.protocol._envelopes_by_id:
            servable.setdefault(label.sender, set()).add(label.seqno)
        tracker = self.protocol.stability_tracker
        frontiers: Dict[EntityId, int] = (
            tracker.advertised_frontiers() if tracker is not None else {}
        )
        payload = {
            "labels": {o: frozenset(s) for o, s in servable.items()},
            "frontiers": frontiers,
        }
        message = Message(self._allocator.next_id(), DIGEST_OPERATION, payload)
        self.protocol.network.broadcast(
            self.protocol.entity_id, Envelope(message)
        )

    def schedule_anti_entropy(self, period: float, rounds: int) -> None:
        """Run ``rounds`` digest broadcasts, ``period`` apart.

        Timers are crash-guarded: rounds scheduled before a crash do not
        fire while the node is down or after it restarts.
        """
        for i in range(1, rounds + 1):
            self.protocol.call_in(period * i, self.anti_entropy_round)

    # -- control-plane receive path ------------------------------------------------

    def intercept(self, sender: EntityId, envelope: Envelope) -> None:
        """Consume a NACK (repair from our store) or a digest (compare)."""
        message = envelope.message
        if message.operation == NACK_OPERATION:
            wanted: MessageId = message.payload
            stored = self.protocol.envelope_of(wanted)
            if stored is not None:
                self.repairs_sent += 1
                self.protocol.network.unicast(
                    self.protocol.entity_id, sender, stored
                )
        elif sender != self.protocol.entity_id:
            self._compare_digest(sender, message.payload)

    def arrived(self, label: MessageId) -> None:
        """A label we may be chasing has arrived (normal copy or repair):
        drop its chase state so `_nack_state` / `_first_missing` stay
        bounded and `outstanding_labels` reflects reality."""
        self._nack_state.pop(label, None)
        self._first_missing.pop(label, None)

    def _compare_digest(self, holder: EntityId, payload: dict) -> None:
        frontiers: Dict[EntityId, int] = payload.get("frontiers", {})
        for origin, frontier in frontiers.items():
            if frontier > 0:
                # Below the stable frontier nothing is servable anywhere:
                # settle instead of chasing (no-op unless we are behind it,
                # i.e. an amnesiac rejoiner).
                self.protocol.note_stable_prefix(origin, frontier)
        prefixes = self.protocol._prefix
        for origin, seqnos in payload.get("labels", {}).items():
            # Our contiguous settled prefix is seen by definition: a
            # caught-up member looks at nothing it already holds.
            prefix = prefixes.get(origin, 0)
            for seqno in seqnos:
                if seqno < prefix:
                    continue
                label = MessageId(origin, seqno)
                if not self.protocol.has_seen(label):
                    self.nacks_sent += 1
                    nack = Message(
                        self._allocator.next_id(), NACK_OPERATION, label
                    )
                    self.protocol.network.unicast(
                        self.protocol.entity_id, holder, Envelope(nack)
                    )

    # -- diagnostics -------------------------------------------------------------

    @property
    def outstanding_labels(self) -> List[MessageId]:
        """Labels currently being chased (attempts not yet exhausted)."""
        return [
            label
            for label, (_, attempts) in self._nack_state.items()
            if attempts < self.max_nacks_per_label
        ]


def protect_group(
    protocols: Dict[EntityId, BroadcastProtocol],
    scan_interval: float = 2.0,
    nack_backoff: float = 4.0,
) -> Dict[EntityId, RecoveryAgent]:
    """Attach and start one recovery agent per protocol stack."""
    agents = {}
    for entity, protocol in protocols.items():
        agent = RecoveryAgent(
            protocol, scan_interval=scan_interval, nack_backoff=nack_backoff
        )
        agent.start()
        agents[entity] = agent
    return agents
