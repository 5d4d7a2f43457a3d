"""FIFO broadcast: per-sender order, no cross-sender guarantees.

A message from sender *s* with sequence number *n* is delivered only after
*s*'s messages 0..n-1.  Causally related messages from *different* senders
may still be reordered — the anomaly causal broadcast exists to fix.
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.broadcast.base import BroadcastProtocol, WakeKey, after_threshold
from repro.group.membership import GroupMembership
from repro.types import Envelope, EntityId, MessageId


class FifoBroadcast(BroadcastProtocol):
    """Deliver each sender's messages in send order."""

    protocol_name = "fifo"

    def __init__(self, entity_id: EntityId, group: GroupMembership) -> None:
        super().__init__(entity_id, group)
        self._next_from: Dict[EntityId, int] = {}

    def _deliverable(self, envelope: Envelope) -> bool:
        sender = envelope.msg_id.sender
        return envelope.msg_id.seqno == self._next_from.get(sender, 0)

    def _blockers(self, envelope: Envelope) -> Iterator[WakeKey]:
        # Per-sender next-seqno index: wake when the sender's delivered
        # prefix reaches this seqno (it can never overshoot — a smaller
        # seqno for this label would mean it was already delivered).
        sender = envelope.msg_id.sender
        if self._next_from.get(sender, 0) < envelope.msg_id.seqno:
            yield after_threshold(("seq", sender), envelope.msg_id.seqno)

    def _on_delivered(self, envelope: Envelope) -> None:
        sender = envelope.msg_id.sender
        self._next_from[sender] = envelope.msg_id.seqno + 1
        self._advance_watermark(("seq", sender), self._next_from[sender])

    def _reset_volatile(self) -> None:
        self._next_from.clear()

    def _on_stable_skip(self, origin: EntityId, frontier: int) -> None:
        if self._next_from.get(origin, 0) < frontier:
            self._next_from[origin] = frontier
            self._advance_watermark(("seq", origin), frontier)

    def missing_for(self, envelope: Envelope) -> frozenset:
        """The sender's sequence gap below this envelope."""
        sender = envelope.msg_id.sender
        next_expected = self._next_from.get(sender, 0)
        return frozenset(
            MessageId(sender, seqno)
            for seqno in range(next_expected, envelope.msg_id.seqno)
            if not self.has_seen(MessageId(sender, seqno))
        )
