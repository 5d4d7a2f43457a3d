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
own prefixes are the protocol's: its settled set *is* a per-origin
prefix plus the few labels above it (see :mod:`repro.broadcast.base`),
so the tracker reads them as they are, keeps no contiguity record and
registers no delivery callback.

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
        """Peers' prefixes (re-learned from gossip) and what was compacted
        (our own streams' come back with the restart's stable skips,
        :meth:`on_stable_skip`), lost with a restart of the stack."""
        # member -> origin -> contiguous delivered prefix length.
        self._prefixes: Dict[EntityId, Dict[EntityId, int]] = {}
        # origin -> highest frontier ever used to drop bodies; the
        # anti-entropy layer advertises it so receivers skip what this
        # member can no longer serve, and the invariant monitor audits it.
        self._applied_frontier: Dict[EntityId, int] = {}
        # origin -> seqno below which the store holds none of its bodies:
        # compaction resumes there instead of rescanning the store.  Not
        # a chassis value: the skip floor and the applied frontier both
        # stay behind it when the store held nothing near the frontier.
        self._swept: Dict[EntityId, int] = {}

    def local_prefix(self, origin: EntityId) -> int:
        """Our contiguous settled prefix from ``origin``: the protocol's."""
        return self.protocol._prefix.get(origin, 0)

    # -- gossip --------------------------------------------------------------------

    def gossip_round(self) -> None:
        """Broadcast our delivered prefixes to the group."""
        message = Message(
            self._allocator.next_id(),
            GC_VECTOR_OPERATION,
            dict(self.protocol._prefix),
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
        arrival.  Only the origins we settled anything from are swept.
        (``tests/broadcast/full_compaction.py`` keeps the whole-store scan
        this replaces, and holds it store for store.)
        """
        protocol = self.protocol
        store = protocol._envelopes_by_id
        swept = self._swept
        for origin in protocol._prefix:
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
        frontiers = dict(self._applied_frontier)
        for origin in self.protocol._prefix:
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
        """Note a restart settling our own stream up to its floor.  (The
        chassis raised the prefix, so our gossip reports the skipped
        history and the group frontier does not collapse to zero.)"""
        if frontier <= self.protocol._own_floors.get(origin, 0) and (
            frontier > self._applied_frontier.get(origin, 0)
        ):
            # A restart settling our own stream up to its compaction
            # floor: its bodies are gone from the store, and after a
            # group-wide restart only our digests can tell the others.
            self._applied_frontier[origin] = self._swept[origin] = frontier

    @property
    def applied_frontier(self) -> Dict[EntityId, int]:
        """Highest frontier used to drop bodies, per origin (diagnostics)."""
        return dict(self._applied_frontier)

    @property
    def store_size(self) -> int:
        """Envelope bodies currently retained for repair."""
        return self.protocol.store_size


def track_group(
    protocols: Dict[EntityId, BroadcastProtocol],
) -> Dict[EntityId, StabilityTracker]:
    """Attach one stability tracker per protocol stack."""
    return {
        entity: StabilityTracker(protocol)
        for entity, protocol in protocols.items()
    }
