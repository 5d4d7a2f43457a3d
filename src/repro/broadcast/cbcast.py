"""CBCAST — vector-clock causal broadcast (Birman-Schiper-Stephenson).

The clock-inferred causal broadcast of ISIS [7], which the paper names as
one substrate on which its communication-interface layer can sit
(Section 3.2).  Causality here is *potential* causality: every message a
member delivered before sending is treated as a causal predecessor of the
send, whether or not the application meant it.  Contrast with
:class:`~repro.broadcast.osend.OSendBroadcast`, which transmits exactly the
dependencies the application declares — the paper's "semantic ordering
rather than incidental ordering" point (footnote 1, citing Cheriton &
Skeen).

Each broadcast carries the sender's vector clock after incrementing its own
component; the delivery predicate is
:func:`repro.clocks.vector.cbcast_deliverable`.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.broadcast.base import BroadcastProtocol, WakeKey, after_prefix
from repro.clocks.vector import VectorClock, cbcast_deliverable
from repro.errors import ProtocolError
from repro.group.membership import GroupMembership
from repro.types import Envelope, EntityId, Message, MessageId


class CbcastBroadcast(BroadcastProtocol):
    """Causal delivery inferred from vector clocks."""

    protocol_name = "cbcast"

    #: Upper bound on gap labels enumerated per :meth:`missing_for` call.
    #: A vector clock can imply arbitrarily many missing broadcasts; the
    #: recovery layer only needs a bounded batch to chase — once repaired,
    #: the next scan names the rest.
    MISSING_ENUMERATION_CAP = 128

    def __init__(self, entity_id: EntityId, group: GroupMembership) -> None:
        super().__init__(entity_id, group)
        # Number of our own broadcasts.  Kept separately from the delivered
        # clock so that two sends racing ahead of our own self-delivery get
        # distinct (and correctly ordered) stamps.  Durable: it mirrors
        # the label allocator (label seqno = own component - 1), or
        # post-restart stamps would contradict their labels.
        self._sent = 0

    @property
    def clock(self) -> VectorClock:
        """This member's delivered-state vector clock: a view of the
        settled prefixes.  CBCAST delivers each origin in send order, so
        component ``e`` counts ``e``'s broadcasts settled here."""
        return VectorClock(self._prefix)

    def _stamp(self, message: Message, **options: object) -> Envelope:
        if options:
            raise ProtocolError(f"cbcast does not accept options: {options}")
        self._sent += 1
        send_clock = self.clock.merge(
            VectorClock({self.entity_id: self._sent})
        )
        return Envelope(message, {"vclock": send_clock})

    def _deliverable(self, envelope: Envelope) -> bool:
        msg_clock = envelope.metadata.get("vclock")
        if not isinstance(msg_clock, VectorClock):
            raise ProtocolError(
                f"envelope {envelope.msg_id} lacks a vector clock"
            )
        return cbcast_deliverable(
            msg_clock, envelope.msg_id.sender, self.clock
        )

    def _blockers(self, envelope: Envelope) -> Iterator[WakeKey]:
        # Per-sender next-seqno index phrased as thresholds over the
        # settled prefixes: the message needs `sender`'s prefix to reach
        # V[sender]-1 (it is then the next from that sender; it can never
        # be *behind*, dedup removes settled copies) and every other
        # origin's to reach V[e].
        msg_clock: VectorClock = envelope.metadata["vclock"]
        sender = envelope.msg_id.sender
        prefix = self._prefix
        for entity, count in msg_clock.items():
            needed = count - 1 if entity == sender else count
            if prefix.get(entity, 0) < needed:
                yield after_prefix(entity, needed)

    def _gap_labels(self, envelope: Envelope) -> Iterator[MessageId]:
        """Lazily yield the unseen labels this stamp implies we lack."""
        msg_clock: VectorClock = envelope.metadata["vclock"]
        sender = envelope.msg_id.sender
        for entity, count in msg_clock.items():
            have = self._prefix.get(entity, 0)
            upto = count - 1 if entity == sender else count
            for broadcast_index in range(have, upto):
                label = MessageId(entity, broadcast_index)
                if not self.has_seen(label):
                    yield label

    def missing_for(self, envelope: Envelope) -> frozenset:
        """Labels implied missing by the envelope's vector clock.

        The sender's own component counts its broadcasts, and a message's
        label seqno equals that component minus one, so every causal gap
        can be *named*: for each entity ``e`` the stamps say we are
        missing broadcasts ``local[e] .. msg[e]-1`` (exclusive of the
        envelope itself).  Enumeration is lazy and capped at
        :attr:`MISSING_ENUMERATION_CAP` labels so a huge clock gap does
        not materialise an unbounded label set per recovery scan.
        """
        return frozenset(
            itertools.islice(
                self._gap_labels(envelope), self.MISSING_ENUMERATION_CAP
            )
        )

    def metadata_entries(self, envelope: Envelope) -> int:
        """Non-zero vector entries carried (metadata size proxy)."""
        clock = envelope.metadata.get("vclock")
        return clock.size_entries() if isinstance(clock, VectorClock) else 0
