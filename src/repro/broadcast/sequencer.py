"""Fixed-sequencer total order with epoch-based failover.

The simplest realisation of the "function interposed between the causal
broadcast and application layers" of Section 5.2 / Figure 4: one designated
member (the sequencer, by convention the rank-0 member of the view) assigns
consecutive global sequence numbers, and every member delivers in sequence
order.

Mechanically: every broadcast travels twice — the sender broadcasts a
``data`` envelope; the sequencer, on receiving it, broadcasts a small
``order`` envelope binding the data message's label to the next global
sequence number.  Members deliver data message *n+1* once both its payload
and its order binding have arrived and *0..n* are delivered.  The doubled
message cost and the sequencer round-trip are exactly the overhead the
paper's stable-point protocol avoids for commutative traffic.

Failover
--------

The sequencer role survives crashes and view changes through *epochs*:

* Every binding carries the **epoch** in which it was assigned — the view
  id of the assigning rank-0 member.  Conflicting bindings for the same
  sequence number resolve deterministically: the higher epoch wins; a
  same-epoch conflict is a protocol bug and stays a ``ProtocolError``.
* At every view install, the (possibly new) rank-0 member runs a
  **binding handoff** (:meth:`SequencerTotalOrder._handoff_on_install`):
  it adopts the highest contiguously-known binding, drops stale old-epoch
  bindings stranded above the first gap (the gap is permanent in the old
  epoch), and re-issues orders — in the new epoch — for every data label
  left unbound.  View synchrony makes this safe: the install is preceded
  by a flush in which every survivor settles the union of known labels,
  *including order envelopes*, so the new sequencer's binding table is a
  superset of every survivor's at the moment it re-binds.
* A label may transiently hold several bindings (a restarted sequencer
  may re-issue before recovering its pre-crash assignment); members
  deliver a label at its **lowest** bound position and skip any later
  position it also occupies once the label is settled (a *consumed*
  position).  The durable ``_assigned_high`` / ``_adopted_floor``
  counters guarantee re-issues always land on fresh positions, so the
  lowest position is the same everywhere.
* A restarted sequencer resyncs its assignment counter from those
  durable counters instead of silently restarting at 0, and re-learns
  bindings through normal recovery: order envelopes live in a dedicated
  ``<member>!ord`` label namespace that the stability tracker never
  compacts (:meth:`compactable_origin`), so binding history stays
  servable to amnesiac rejoiners via plain anti-entropy.

Residual limitation: an order binding lost at *every* member while the
sequencer stays in the view stalls the positions above it until the next
view install re-binds the gap (``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.broadcast.base import (
    BroadcastProtocol,
    WakeKey,
    after_event,
    after_threshold,
)
from repro.errors import ProtocolError
from repro.group.membership import GroupMembership, GroupView
from repro.types import Envelope, EntityId, Message, MessageId, MessageIdAllocator


class SequencerTotalOrder(BroadcastProtocol):
    """Total order via a rank-0 sequencer member, with epoch failover."""

    protocol_name = "sequencer"

    ORDER_OPERATION = "__order__"
    #: Suffix of the dedicated order-label namespace; bodies from these
    #: origins are exempt from stability compaction (bindings must stay
    #: servable to amnesiac rejoiners forever).
    ORD_SUFFIX = "!ord"

    def __init__(self, entity_id: EntityId, group: GroupMembership) -> None:
        # Durable: highest position this member ever assigned, and the
        # highest counter baseline it ever adopted at a handoff.  Together
        # they guarantee a restarted sequencer never re-uses a position.
        # Assigned first: `_init_volatile` derives the counter from them.
        self._assigned_high = -1
        self._adopted_floor = 0
        super().__init__(entity_id, group)
        # Durable: order labels live in their own namespace so the data
        # stream's seqnos stay contiguous for GC accounting.
        self._ord_allocator = MessageIdAllocator(f"{entity_id}{self.ORD_SUFFIX}")
        self.order_messages_sent = 0
        # Durable audit of handoffs (time/epoch/previous sequencer/work
        # done); the chaos harness derives repair latency from it.
        self.handoffs: List[dict] = []
        self._known_rank0: EntityId = group.view.members[0]
        group.subscribe(self._on_view_change)

    def _init_volatile(self) -> None:
        super()._init_volatile()
        # Bindings learned so far: global seq -> (epoch, data label).
        self._bindings: Dict[int, Tuple[int, MessageId]] = {}
        # Reverse map: data label -> positions currently bound to it.
        self._label_seqs: Dict[MessageId, Set[int]] = {}
        # Position each data label was actually delivered at (exposed to
        # the sequencer-epoch invariant).
        self._delivered_at_seq: Dict[MessageId, int] = {}
        self._next_to_deliver = 0
        # Sequencer-side assignment counter: never re-use a position this
        # member assigned (`_assigned_high`) nor one below a baseline it
        # adopted at a handoff (`_adopted_floor`); bindings themselves are
        # re-learned through recovery, which the never-compacted order
        # namespace makes always possible.
        self._next_seq_to_assign = max(
            self._assigned_high + 1, self._adopted_floor
        )

    # -- roles -------------------------------------------------------------

    @property
    def sequencer_id(self) -> EntityId:
        return self.group.view.members[0]

    @property
    def is_sequencer(self) -> bool:
        return self.entity_id == self.sequencer_id

    @property
    def epoch(self) -> int:
        """The epoch this member would assign in: the current view id."""
        return self.group.view.view_id

    # -- binding table ------------------------------------------------------

    def _accept_binding(self, seq: int, label: MessageId, epoch: int) -> None:
        """Merge one ``(seq, label, epoch)`` binding into the table.

        Deterministic cross-epoch resolution: the higher epoch wins a
        position; a same-epoch conflict means two assignments were issued
        for one position within one sequencer tenure — a protocol bug.
        The merge is order-independent, so every member converges to the
        same table from any arrival order of the same binding set.
        """
        existing = self._bindings.get(seq)
        if existing is not None:
            ex_epoch, ex_label = existing
            if ex_label == label:
                if epoch > ex_epoch:
                    self._bindings[seq] = (epoch, label)
                return
            if epoch == ex_epoch:
                raise ProtocolError(
                    f"conflicting order bindings for seq {seq} in epoch "
                    f"{epoch}: {ex_label} vs {label}"
                )
            if epoch < ex_epoch:
                return  # stale straggler from a superseded epoch
            # Higher epoch takes the position from the old occupant.
            old_seqs = self._label_seqs.get(ex_label)
            if old_seqs is not None:
                old_seqs.discard(seq)
                if not old_seqs:
                    del self._label_seqs[ex_label]
                self._rewake(ex_label)
        self._bindings[seq] = (epoch, label)
        self._label_seqs.setdefault(label, set()).add(seq)
        self._signal_event(("bound", label))
        self._rewake(label)
        self._advance_past_consumed()
        self._advance_watermark("next_seq", self._next_to_deliver)

    def _rewake(self, label: MessageId) -> None:
        """Re-index a held data envelope whose bound position changed."""
        envelope = self._pending.get(label)
        if envelope is None or label in self._queued:
            return
        self._blocked_on.pop(label, None)
        self._index(envelope)

    def _advance_past_consumed(self) -> None:
        """Skip positions whose bound label is already settled.

        A label bound at several positions (failover re-issue races)
        delivers at its lowest one; every later position it occupies is
        consumed the moment the cursor reaches it.
        """
        while True:
            binding = self._bindings.get(self._next_to_deliver)
            if binding is None or not self.has_settled(binding[1]):
                break
            self._next_to_deliver += 1

    def _position_of(self, label: MessageId) -> Optional[int]:
        seqs = self._label_seqs.get(label)
        return min(seqs) if seqs else None

    # -- receive path ---------------------------------------------------------

    def _on_received(self, sender: EntityId, envelope: Envelope) -> None:
        if envelope.message.operation == self.ORDER_OPERATION:
            seq, data_label, epoch = envelope.message.payload
            self._accept_binding(seq, data_label, epoch)
            return
        if self.is_sequencer and not self._label_seqs.get(envelope.msg_id):
            self._assign_order(envelope.msg_id)

    def _assign_order(self, data_label: MessageId) -> None:
        seq = self._next_seq_to_assign
        self._next_seq_to_assign = seq + 1
        if seq > self._assigned_high:
            self._assigned_high = seq
        epoch = self.epoch
        self.order_messages_sent += 1
        order_message = Message(
            self._ord_allocator.next_id(),
            self.ORDER_OPERATION,
            (seq, data_label, epoch),
        )
        envelope = Envelope(order_message)
        # Apply the binding locally first — it must hold even if the
        # network drops every broadcast copy including the self-delivery
        # hop — then send with stable-storage logging so the binding is
        # recoverable from the repair store across our own crashes.
        self._accept_binding(seq, data_label, epoch)
        self.send_logged(envelope)

    # -- failover ------------------------------------------------------------

    def _on_view_change(self, view: GroupView) -> None:
        previous = self._known_rank0
        self._known_rank0 = view.members[0]
        if view.members[0] == self.entity_id:
            # Deferred a tick: the install listener fires from inside the
            # installer's flush bookkeeping; crash-guarded, so a member
            # that is down when it becomes rank 0 skips the handoff (and
            # resyncs conservatively on restart instead).
            self.call_in(0.0, self._handoff_on_install, view.view_id, previous)

    def _handoff_on_install(self, epoch: int, previous: EntityId) -> None:
        """Binding handoff, run by the rank-0 member at a view install.

        The preceding flush settled the union of known labels (order
        envelopes included) at every survivor, so this member's table now
        covers everything any survivor knows.  Adopt the contiguous
        prefix, drop old-epoch bindings stranded above the first gap, and
        re-issue orders in the new epoch for every label left unbound —
        dropped occupants first (by old position), then received-but-
        unbound data envelopes (by label).
        """
        if self.crashed or not self.is_sequencer:
            return
        if self.group.view.view_id != epoch:
            return  # a later install superseded this handoff
        gap = self._next_to_deliver
        while gap in self._bindings:
            gap += 1
        stale = sorted(seq for seq in self._bindings if seq > gap)
        reissue: List[MessageId] = []
        for seq in stale:
            _old_epoch, label = self._bindings.pop(seq)
            seqs = self._label_seqs.get(label)
            if seqs is not None:
                seqs.discard(seq)
                if not seqs:
                    del self._label_seqs[label]
            if self.has_settled(label) or self._label_seqs.get(label):
                continue  # settled, or still bound below the gap
            if label not in reissue:
                reissue.append(label)
        unbound = sorted(
            msg_id
            for msg_id, envelope in self._pending.items()
            if envelope.message.operation != self.ORDER_OPERATION
            and not self._label_seqs.get(msg_id)
        )
        for label in unbound:
            if label not in reissue:
                reissue.append(label)
        self._next_seq_to_assign = gap
        took_over = previous != self.entity_id
        for label in reissue:
            self._assign_order(label)
        # Durable baseline: even after amnesia, never assign below the
        # positions this tenure adopted or re-issued.
        self._adopted_floor = max(self._adopted_floor, self._next_seq_to_assign)
        if took_over or stale or reissue:
            self.handoffs.append({
                "time": self.now,
                "epoch": epoch,
                "previous": previous,
                "took_over": took_over,
                "adopted": gap,
                "reissued": len(reissue),
                "dropped": len(stale),
            })
        self._drain()

    # -- delivery predicate -------------------------------------------------------

    def _deliverable(self, envelope: Envelope) -> bool:
        if envelope.message.operation == self.ORDER_OPERATION:
            # Order bindings are control traffic: absorb immediately so the
            # application never sees them held back behind data.
            return True
        seq = self._position_of(envelope.msg_id)
        return seq is not None and seq == self._next_to_deliver

    def _blockers(self, envelope: Envelope) -> Iterator[WakeKey]:
        if envelope.message.operation == self.ORDER_OPERATION:
            return  # control traffic is always deliverable
        seq = self._position_of(envelope.msg_id)
        if seq is None:
            # The binding names the position; until it arrives the data
            # message cannot be sequenced at all.
            yield after_event(("bound", envelope.msg_id))
        elif seq > self._next_to_deliver:
            yield after_threshold("next_seq", seq)

    def _on_delivered(self, envelope: Envelope) -> None:
        if envelope.message.operation == self.ORDER_OPERATION:
            return
        self._delivered_at_seq[envelope.msg_id] = self._next_to_deliver
        self._next_to_deliver += 1
        self._advance_past_consumed()
        self._advance_watermark("next_seq", self._next_to_deliver)

    def _on_stable_skip(self, origin: EntityId) -> None:
        # Skipped or installed labels count as settled, so positions
        # bound to them are consumed without delivery.
        self._advance_past_consumed()
        self._advance_watermark("next_seq", self._next_to_deliver)

    def _is_control(self, envelope: Envelope) -> bool:
        return envelope.message.operation == self.ORDER_OPERATION

    def compactable_origin(self, origin: EntityId) -> bool:
        # Binding history must stay servable forever: a compacted order
        # envelope would leave amnesiac rejoiners with an unfillable
        # position (data labels can be skipped via stable frontiers;
        # positions cannot).
        return not origin.endswith(self.ORD_SUFFIX)

    def missing_for(self, envelope: Envelope) -> frozenset:
        """Data messages with known bindings below our delivery horizon.

        A lost *binding* cannot be named (we never learned the label), but
        a lost *data* message whose binding arrived can: anything bound to
        a sequence number in ``[next_to_deliver, seq(envelope))`` that we
        have not received.
        """
        seq = self._position_of(envelope.msg_id)
        if seq is None:
            return frozenset()
        missing = set()
        for position in range(self._next_to_deliver, seq):
            binding = self._bindings.get(position)
            if binding is not None and not self.has_seen(binding[1]):
                missing.add(binding[1])
        return frozenset(missing)

    # -- filtering control traffic out of the app-visible log ----------------------

    @property
    def app_delivered(self) -> list[MessageId]:
        """Delivered *data* labels, in total order (order bindings hidden)."""
        return [
            e.msg_id
            for e in self._delivered_envelopes
            if e.message.operation != self.ORDER_OPERATION
        ]

    @property
    def binding_table(self) -> Dict[int, Tuple[int, MessageId]]:
        """Winning ``(epoch, label)`` per position (invariant audits)."""
        return dict(self._bindings)

    @property
    def delivered_positions(self) -> Dict[MessageId, int]:
        """Position each data label was delivered at (this incarnation)."""
        return dict(self._delivered_at_seq)

    def global_sequence_of(self, msg_id: MessageId) -> Optional[int]:
        delivered_at = self._delivered_at_seq.get(msg_id)
        if delivered_at is not None:
            return delivered_at
        return self._position_of(msg_id)
