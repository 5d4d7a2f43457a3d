"""Stability tracking and garbage collection of message stores.

A message is *stable* once every member of the group has delivered it: no
member can ever need a retransmission, so stored copies can be discarded.
This is the classic matrix-clock application — each member needs to know
"how much everyone else has delivered from everyone".

:class:`StabilityTracker` gossips, per origin, the member's *contiguous
settled prefix* (seqnos ``0..k-1`` with no holes).  The minimum prefix
across all members is the stable frontier per origin; envelope bodies
below it are dropped from the protocol's repair store.  Gossip rounds
are explicitly scheduled (like anti-entropy in
:mod:`repro.broadcast.recovery`) so simulations terminate.  The member's
own prefixes are read off the protocol's settled set (``_delivered_ids``:
delivered, control deliveries included, skip-settled or installed from a
snapshot) and advanced when they are read; the tracker keeps no
contiguity record of its own and registers no delivery callback.

The tracker composes with :class:`~repro.broadcast.recovery.RecoveryAgent`
as another control-plane sidecar of the chassis; dropping only *stable*
bodies never hurts recovery, because a stable message by definition needs
no repair.
"""

from __future__ import annotations

from typing import Dict

from repro.broadcast.base import BroadcastProtocol
from repro.types import Envelope, EntityId, Message, MessageIdAllocator

GC_VECTOR_OPERATION = "__gcvec__"


class StabilityTracker:
    """Gossips delivered prefixes; compacts the envelope store."""

    operations = (GC_VECTOR_OPERATION,)

    def __init__(self, protocol: BroadcastProtocol) -> None:
        self.protocol = protocol
        self._allocator = MessageIdAllocator(f"{protocol.entity_id}!gc")
        self.envelopes_reclaimed = 0
        self._init_volatile()
        protocol.add_interceptor(self)
        # Let the recovery layer find us (it advertises our frontiers).
        protocol.stability_tracker = self

    def _init_volatile(self) -> None:
        """Delivered-prefix knowledge, lost with a restart of the stack.

        The rejoiner re-learns peers' prefixes from gossip and reads its
        own off the protocol's rebuilt settled set.  The applied
        frontiers of our own streams come back when the restart settles
        them up to their durable compaction floors (:meth:`on_stable_skip`).
        """
        # member -> origin -> contiguous delivered prefix length.
        self._prefixes: Dict[EntityId, Dict[EntityId, int]] = {}
        # origin -> highest frontier ever used to drop bodies; the
        # anti-entropy layer advertises it so receivers skip what this
        # member can no longer serve, and the invariant monitor audits it.
        self._applied_frontier: Dict[EntityId, int] = {}
        # origin -> seqno below which the store holds none of its bodies:
        # compaction resumes there instead of rescanning the store.
        self._swept: Dict[EntityId, int] = {}
        # Our own prefix per origin as last read, in the order the
        # origins were first delivered (up to `_logged`) or skip-settled.
        self._own_prefix: Dict[EntityId, int] = {}
        self._logged = 0

    # -- local prefix ------------------------------------------------------------

    def _catch_up(self) -> None:
        """Register the origins delivered since the last catch-up, in log
        order."""
        log = self.protocol._delivered_envelopes
        for envelope in log[self._logged:]:
            self._own_prefix.setdefault(envelope.msg_id.sender, 0)
        self._logged = len(log)

    def local_prefix(self, origin: EntityId) -> int:
        """Our contiguous settled prefix from ``origin``: its labels the
        protocol delivered (control ones too), skip-settled or installed
        from a snapshot.  Advanced here, over the settled set."""
        self._catch_up()
        prefixes = self._own_prefix
        prefix = prefixes.get(origin, 0)
        settled = self.protocol._delivered_ids
        while (origin, prefix) in settled:
            prefix += 1
        if origin in prefixes:
            prefixes[origin] = prefix
        return prefix

    # -- gossip --------------------------------------------------------------------

    def gossip_round(self) -> None:
        """Broadcast our delivered prefixes to the group."""
        self._catch_up()
        message = Message(
            self._allocator.next_id(),
            GC_VECTOR_OPERATION,
            {origin: self.local_prefix(origin) for origin in self._own_prefix},
        )
        self.protocol.network.broadcast(
            self.protocol.entity_id, Envelope(message)
        )

    def schedule_gossip(self, period: float, rounds: int) -> None:
        """Crash-guarded: rounds do not fire while the node is down."""
        for i in range(1, rounds + 1):
            self.protocol.call_in(period * i, self.gossip_round)

    def intercept(self, sender: EntityId, envelope: Envelope) -> None:
        """Consume a peer's gossiped prefixes and compact against them."""
        self._prefixes[sender] = dict(envelope.message.payload)
        self._catch_up()
        self._compact()

    # -- compaction ------------------------------------------------------------------

    def stable_frontier(self, origin: EntityId) -> int:
        """Seqnos below this are delivered at every member (as known)."""
        members = self.protocol.group.view.members
        frontier = self.local_prefix(origin)
        for member in members:
            if member == self.protocol.entity_id:
                continue
            reported = self._prefixes.get(member, {}).get(origin, 0)
            frontier = min(frontier, reported)
        return frontier

    def _compact(self) -> None:
        """Drop every stored body below its origin's stable frontier.

        Per origin, only the seqnos from the last sweep up to the new
        frontier are visited: nothing below a sweep ever re-enters the
        store in this incarnation, because the frontier never passes our
        own settled prefix and a settled label is deduplicated on
        arrival.  Only the origins we delivered from or skip-settled are
        swept.  (``tests/broadcast/full_compaction.py`` keeps the
        whole-store scan this replaces, and holds it store for store.)
        """
        protocol = self.protocol
        store = protocol._envelopes_by_id
        swept = self._swept
        for origin in self._own_prefix:
            start = swept.get(origin, 0)
            frontier = self.stable_frontier(origin)
            if frontier <= start or not protocol.compactable_origin(origin):
                continue  # nothing new is stable, or an exempt namespace
            swept[origin] = frontier
            top = -1
            dropped = 0
            for seqno in range(start, frontier):
                # A label is the tuple (sender, seqno): look it up as one.
                if store.pop((origin, seqno), None) is not None:
                    dropped += 1
                    top = seqno
            self.envelopes_reclaimed += dropped
            if top + 1 > self._applied_frontier.get(origin, 0):
                self._applied_frontier[origin] = top + 1
            if protocol._owns_stream(origin):
                protocol._own_floors[origin] = frontier

    def advertised_frontiers(self) -> Dict[EntityId, int]:
        """Per-origin frontiers below which this member cannot serve.

        The union of frontiers actually *applied* (bodies dropped) and the
        current stable estimate: receivers of an anti-entropy digest may
        settle anything below these instead of NACKing this member for
        bodies it no longer has.
        """
        self._catch_up()
        frontiers = dict(self._applied_frontier)
        for origin in self._own_prefix:
            estimate = self.stable_frontier(origin)
            if estimate > frontiers.get(origin, 0):
                frontiers[origin] = estimate
        # Exempt namespaces are never compacted, so never invite receivers
        # to skip-settle them — their labels must arrive (or be NACKed) so
        # the bindings they carry are actually learned.
        return {
            o: f
            for o, f in frontiers.items()
            if f > 0 and self.protocol.compactable_origin(o)
        }

    # -- crash-stop integration --------------------------------------------------

    def on_stable_skip(self, origin: EntityId, frontier: int) -> None:
        """Report ``origin`` from now on: its skipped prefix is settled.

        Skipped labels are delivered-at-every-member history, and the
        chassis has filed them in its settled set; reporting them keeps
        the group frontier from collapsing to zero whenever an amnesiac
        member rejoins (which would stall compaction forever).
        """
        if frontier <= self.protocol._own_floors.get(origin, 0) and (
            frontier > self._applied_frontier.get(origin, 0)
        ):
            # A restart settling our own stream up to its compaction
            # floor: its bodies are gone from the store, and after a
            # group-wide restart only our digests can tell the others.
            self._applied_frontier[origin] = self._swept[origin] = frontier
        self._catch_up()
        self._own_prefix.setdefault(origin, 0)

    @property
    def applied_frontier(self) -> Dict[EntityId, int]:
        """Highest frontier used to drop bodies, per origin (diagnostics)."""
        return dict(self._applied_frontier)

    @property
    def store_size(self) -> int:
        """Envelope bodies currently retained for repair."""
        return len(self.protocol._envelopes_by_id)


def track_group(
    protocols: Dict[EntityId, BroadcastProtocol],
) -> Dict[EntityId, StabilityTracker]:
    """Attach one stability tracker per protocol stack."""
    return {
        entity: StabilityTracker(protocol)
        for entity, protocol in protocols.items()
    }
