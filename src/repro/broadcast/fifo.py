"""FIFO broadcast: per-sender order, no cross-sender guarantees.

A message from sender *s* with sequence number *n* is delivered only after
*s*'s messages 0..n-1.  Causally related messages from *different* senders
may still be reordered — the anomaly causal broadcast exists to fix.
"""

from __future__ import annotations

from typing import Iterator

from repro.broadcast.base import BroadcastProtocol, WakeKey, after_prefix
from repro.types import Envelope, MessageId


class FifoBroadcast(BroadcastProtocol):
    """Deliver each sender's messages in send order: the next one due
    is the sender's settled prefix (``_prefix``)."""

    protocol_name = "fifo"

    def _deliverable(self, envelope: Envelope) -> bool:
        sender = envelope.msg_id.sender
        return envelope.msg_id.seqno == self._prefix.get(sender, 0)

    def _blockers(self, envelope: Envelope) -> Iterator[WakeKey]:
        # Wake when the sender's settled prefix reaches this seqno (it
        # can never overshoot — a smaller seqno for this label would mean
        # it was already settled).
        sender = envelope.msg_id.sender
        if self._prefix.get(sender, 0) < envelope.msg_id.seqno:
            yield after_prefix(sender, envelope.msg_id.seqno)

    def missing_for(self, envelope: Envelope) -> frozenset:
        """The sender's sequence gap below this envelope."""
        sender = envelope.msg_id.sender
        next_expected = self._prefix.get(sender, 0)
        return frozenset(
            MessageId(sender, seqno)
            for seqno in range(next_expected, envelope.msg_id.seqno)
            if not self.has_seen(MessageId(sender, seqno))
        )
