"""Decentralized total order via Lamport timestamps and acknowledgements.

The classic agreement protocol that "operates at the granularity of
individual messages" (Section 3.2) — the expensive alternative the paper's
stable-point model relaxes.  Every data broadcast is stamped with the
sender's Lamport clock; every other member broadcasts an acknowledgement;
a member delivers the pending data message with the smallest stamp once it
has heard a clock value >= that stamp from *every* member (so no
earlier-stamped message can still be in flight).

Cost profile (measured by ``bench_claim_asynchronism``): O(n) extra ack
broadcasts per data message, and delivery latency coupled to the *slowest*
member — precisely the synchrony the paper's causal-activity model avoids
for commutative traffic.

The simulated network reorders hops, so the protocol processes each
sender's stream in FIFO order internally (sequence numbers are already in
every label); metadata processing happens at FIFO-receive time while
application delivery waits for the total-order condition.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.broadcast.base import (
    BroadcastProtocol,
    WakeKey,
    after_event,
    after_threshold,
)
from repro.clocks.lamport import LamportClock, Timestamp
from repro.errors import ProtocolError
from repro.group.membership import GroupMembership
from repro.types import Envelope, EntityId, Message, MessageId


class LamportTotalOrder(BroadcastProtocol):
    """All-ack total order (Lamport clocks, per-message agreement)."""

    protocol_name = "lamport_total"

    ACK_OPERATION = "__ack__"

    def __init__(self, entity_id: EntityId, group: GroupMembership) -> None:
        super().__init__(entity_id, group)
        # Durable: post-restart stamps must stay monotone so peers'
        # heard-clock thresholds from pre-crash stamps still close.
        self._clock = LamportClock(entity_id)
        self.acks_sent = 0

    def _init_volatile(self) -> None:
        super()._init_volatile()
        # Highest Lamport counter heard from each member, FIFO-processed.
        self._latest_heard: Dict[EntityId, int] = {}
        # FIFO reassembly buffers: sender -> seqno -> envelope.
        self._fifo_buffer: Dict[EntityId, Dict[int, Envelope]] = {}
        self._fifo_next: Dict[EntityId, int] = {}
        # Data messages whose metadata has been processed: label -> stamp.
        self._stamps: Dict[MessageId, Timestamp] = {}
        self._undelivered_data: Dict[MessageId, Timestamp] = {}

    # -- sending --------------------------------------------------------------

    def total_send(self, operation: str, payload: object = None) -> MessageId:
        """Broadcast ``operation`` for totally ordered delivery."""
        return self.bcast(operation, payload)

    def _stamp(self, message: Message, **options: object) -> Envelope:
        if options:
            raise ProtocolError(
                f"lamport_total does not accept options: {options}"
            )
        stamp = self._clock.tick()
        return Envelope(message, {"lamport": stamp})

    # -- FIFO metadata processing ------------------------------------------------

    def _on_received(self, sender: EntityId, envelope: Envelope) -> None:
        label = envelope.msg_id
        self._fifo_buffer.setdefault(label.sender, {})[label.seqno] = envelope
        self._process_from(label.sender, self._fifo_next.get(label.sender, 0))

    def _process_from(self, origin: EntityId, next_seq: int) -> None:
        """Process ``origin``'s stream in order from ``next_seq``, passing
        over labels settled without delivery (installed above a gap)."""
        buffer = self._fifo_buffer.get(origin, {})
        while True:
            if next_seq in buffer:
                self._process_metadata(buffer.pop(next_seq))
            elif not self.has_settled(MessageId(origin, next_seq)):
                break
            next_seq += 1
        self._fifo_next[origin] = next_seq
        self._advance_watermark(("fifo", origin), next_seq)

    def _process_metadata(self, envelope: Envelope) -> None:
        stamp = envelope.metadata.get("lamport")
        if not isinstance(stamp, Timestamp):
            raise ProtocolError(
                f"envelope {envelope.msg_id} lacks a Lamport stamp"
            )
        origin = envelope.msg_id.sender
        if origin != self.entity_id:
            self._clock.observe(stamp)
        previous = self._latest_heard.get(origin, -1)
        if stamp.counter > previous:
            self._latest_heard[origin] = stamp.counter
            self._advance_watermark(("heard", origin), stamp.counter)
        if envelope.message.operation == self.ACK_OPERATION:
            return
        self._stamps[envelope.msg_id] = stamp
        self._undelivered_data[envelope.msg_id] = stamp
        if origin != self.entity_id:
            self._send_ack(envelope.msg_id)

    def _send_ack(self, data_label: MessageId) -> None:
        self.acks_sent += 1
        ack = Message(self._allocator.next_id(), self.ACK_OPERATION, data_label)
        stamped = self._stamp(ack)
        # Acks ride the main label stream, so a lost ack is a FIFO gap
        # every member stalls on.  Log it like `bcast` data (in the
        # repair store, whose own-stream entries a restart keeps) so it
        # survives every network copy being dropped and our own crash.
        self.send_logged(stamped)

    # -- delivery -----------------------------------------------------------------

    def _heard_at_least(self, counter: int) -> bool:
        members = self.group.view.members
        return all(
            self._latest_heard.get(member, -1) >= counter
            for member in members
        )

    def _deliverable(self, envelope: Envelope) -> bool:
        if envelope.message.operation == self.ACK_OPERATION:
            # Acks carry no application content; release them as soon as
            # their metadata has been FIFO-processed.  (The chassis only
            # evaluates the predicate of an envelope it has received.)
            return self._processed(envelope)
        stamp = self._undelivered_data.get(envelope.msg_id)
        if stamp is None:
            return False  # metadata not FIFO-processed yet
        smallest = min(self._undelivered_data.values())
        if stamp != smallest:
            return False
        return self._heard_at_least(stamp.counter)

    def _blockers(self, envelope: Envelope) -> Iterator[WakeKey]:
        # Before FIFO processing, everything waits on the origin's stream
        # position.  Processed data messages wait on (a) delivery of every
        # currently smaller-stamped data message and (b) each member's
        # heard-clock reaching the stamp — the sorted stamp frontier of
        # the all-ack agreement.  Smaller stamps processed *after* this
        # registration are picked up by the drain's re-index on wake.
        origin = envelope.msg_id.sender
        if not self._processed(envelope):
            yield after_threshold(("fifo", origin), envelope.msg_id.seqno + 1)
            return
        if envelope.message.operation == self.ACK_OPERATION:
            return  # processed acks are immediately deliverable
        stamp = self._undelivered_data.get(envelope.msg_id)
        if stamp is None:
            return  # delivered concurrently; nothing blocks it
        for label, other in self._undelivered_data.items():
            if other < stamp:
                yield after_event(("delivered", label))
        for member in self.group.view.members:
            if self._latest_heard.get(member, -1) < stamp.counter:
                yield after_threshold(("heard", member), stamp.counter)

    def _processed(self, envelope: Envelope) -> bool:
        origin = envelope.msg_id.sender
        return envelope.msg_id.seqno < self._fifo_next.get(origin, 0)

    def _on_delivered(self, envelope: Envelope) -> None:
        self._undelivered_data.pop(envelope.msg_id, None)

    def _on_stable_skip(self, origin: EntityId) -> None:
        # Successors buffered behind the settled prefix are contiguous now.
        self._process_from(
            origin, max(self._fifo_next.get(origin, 0), self._prefix[origin])
        )
        # A processed stamp settled without delivery orders nothing now:
        # a later stamp must not wait on its delivery.
        undelivered = self._undelivered_data
        for label in [l for l in undelivered if self.has_settled(l)]:
            del undelivered[label]

    def _is_control(self, envelope: Envelope) -> bool:
        return envelope.message.operation == self.ACK_OPERATION

    def missing_for(self, envelope: Envelope) -> frozenset:
        """FIFO gaps in the origin's stream below this envelope."""
        origin = envelope.msg_id.sender
        next_expected = self._fifo_next.get(origin, 0)
        buffered = self._fifo_buffer.get(origin, {})
        return frozenset(
            MessageId(origin, seqno)
            for seqno in range(next_expected, envelope.msg_id.seqno)
            if seqno not in buffered
        )

    # -- introspection -----------------------------------------------------------

    @property
    def app_delivered(self) -> List[MessageId]:
        """Delivered data labels in total order (acks hidden)."""
        return [
            e.msg_id
            for e in self._delivered_envelopes
            if e.message.operation != self.ACK_OPERATION
        ]

    def stamp_of(self, msg_id: MessageId) -> Optional[Timestamp]:
        return self._stamps.get(msg_id)
