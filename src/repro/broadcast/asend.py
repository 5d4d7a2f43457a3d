"""``ASend`` — total ordering of spontaneous messages over causal broadcast.

Section 5.2 of the paper interposes a function between the causal broadcast
and application layers to "impose an arbitrary delivery order on a set of
messages spontaneously generated by members, and enforce the order
identically at all members"::

    ASend({m1', m2'}, Occurs-After(Msg))

enforces either ``Msg -> m1' -> m2'`` at all members or
``Msg -> m2' -> m1'`` at all members.  The totally ordered *set* is
bounded by an ascendant label and descendant label(s) in the dependency
graph — in this implementation, by an **epoch** number: all messages of an
epoch form one concurrent set; the set is *closed* when the expected
number of messages for the epoch has been received (the lock protocol of
Section 6.2 closes each arbitration cycle after "a specific predetermined
number of LOCK messages"); the closed set is then delivered in a
deterministic label order, identical everywhere, with no extra protocol
messages.

Delivery rule for a message ``m`` in epoch ``e``:

1. every epoch ``< e`` is fully delivered,
2. epoch ``e`` is closed (all expected messages received),
3. ``m``'s declared causal ancestors are delivered, and
4. every epoch-``e`` message sorting before ``m`` is delivered.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Optional, Set, Union

from repro.broadcast.base import (
    BroadcastProtocol,
    WakeKey,
    after_event,
    after_threshold,
)
from repro.errors import ProtocolError
from repro.graph.predicates import OccursAfter
from repro.group.membership import GroupMembership
from repro.types import Envelope, EntityId, Message, MessageId

AncestorSpec = Union[None, MessageId, Iterable[MessageId], OccursAfter]

#: The predicate of an envelope stamped with none.
_NULL = OccursAfter.null()


class ASendTotalOrder(BroadcastProtocol):
    """Epoch-batched deterministic total order (the paper's ``ASend``).

    Parameters
    ----------
    expected_per_epoch:
        How many messages close an epoch: an int, a callable
        ``epoch -> int`` (for protocols whose cycles mix batch sizes, like
        the LOCK/TFR arbitration of Section 6.2), or ``None`` for the
        group size — the common "one message per member per cycle"
        pattern.
    """

    protocol_name = "asend"

    #: Epochs close by anonymous counting: an amnesiac member cannot
    #: reconstruct which epoch its pre-crash sends belonged to, so
    #: crash-stop chaos is not meaningful for this protocol as implemented.
    crash_eligible = False

    def __init__(
        self,
        entity_id: EntityId,
        group: GroupMembership,
        expected_per_epoch: Union[None, int, Callable[[int], int]] = None,
    ) -> None:
        super().__init__(entity_id, group)
        if isinstance(expected_per_epoch, int) and expected_per_epoch < 1:
            raise ProtocolError(
                f"expected_per_epoch must be >= 1, got {expected_per_epoch}"
            )
        self._expected = expected_per_epoch

    def _init_volatile(self) -> None:
        # NOTE: epoch membership counts cannot be reconstructed by an
        # amnesiac rejoiner (closure is anonymous — see `missing_for` in
        # the base class); the chaos campaigns exclude this protocol from
        # crash schedules for that reason.
        super()._init_volatile()
        self._received_by_epoch: Dict[int, Set[MessageId]] = {}
        self._delivered_by_epoch: Dict[int, Set[MessageId]] = {}
        self._next_epoch_to_finish = 0

    # -- sending ----------------------------------------------------------

    def asend(
        self,
        operation: str,
        payload: object = None,
        epoch: int = 0,
        occurs_after: AncestorSpec = None,
    ) -> MessageId:
        """Broadcast ``operation`` as part of totally ordered ``epoch``."""
        return self.bcast(
            operation, payload, epoch=epoch, occurs_after=occurs_after
        )

    def _stamp(self, message: Message, **options: object) -> Envelope:
        epoch = options.pop("epoch", 0)
        occurs_after = options.pop("occurs_after", None)
        if options:
            raise ProtocolError(f"unknown ASend options: {options}")
        if not isinstance(epoch, int) or epoch < 0:
            raise ProtocolError(f"epoch must be a non-negative int: {epoch}")
        if isinstance(occurs_after, OccursAfter):
            predicate = occurs_after
        else:
            predicate = OccursAfter.after(occurs_after)  # type: ignore[arg-type]
        return Envelope(message, {"epoch": epoch}, predicate)

    # -- receiving ---------------------------------------------------------

    def expected_in(self, epoch: int) -> int:
        """How many messages close ``epoch``."""
        if self._expected is None:
            return len(self.group.view)
        if callable(self._expected):
            expected = self._expected(epoch)
            if expected < 1:
                raise ProtocolError(
                    f"expected_per_epoch({epoch}) returned {expected} < 1"
                )
            return expected
        return self._expected

    def _epoch_of(self, envelope: Envelope) -> int:
        epoch = envelope.metadata.get("epoch")
        if not isinstance(epoch, int):
            raise ProtocolError(f"envelope {envelope.msg_id} lacks an epoch")
        return epoch

    def _on_received(self, sender: EntityId, envelope: Envelope) -> None:
        epoch = self._epoch_of(envelope)
        received = self._received_by_epoch.setdefault(epoch, set())
        if len(received) >= self.expected_in(epoch):
            raise ProtocolError(
                f"epoch {epoch} already closed with "
                f"{self.expected_in(epoch)} messages; got {envelope.msg_id}"
            )
        received.add(envelope.msg_id)
        if len(received) >= self.expected_in(epoch):
            self._signal_event(("closed", epoch))

    def epoch_closed(self, epoch: int) -> bool:
        """True once all expected messages of ``epoch`` have been received."""
        received = self._received_by_epoch.get(epoch, set())
        return len(received) >= self.expected_in(epoch)

    def _epoch_fully_delivered(self, epoch: int) -> bool:
        delivered = self._delivered_by_epoch.get(epoch, set())
        return (
            self.epoch_closed(epoch)
            and len(delivered) >= self.expected_in(epoch)
        )

    def _deliverable(self, envelope: Envelope) -> bool:
        epoch = self._epoch_of(envelope)
        # 1. All earlier epochs done.
        if epoch != self._next_epoch_to_finish:
            return False
        # 2. This epoch's concurrent set is closed.
        if not self.epoch_closed(epoch):
            return False
        # 3. Declared causal ancestors delivered.
        predicate = envelope.occurs_after or _NULL
        if not all(map(self.has_settled, predicate.ancestors)):
            return False
        # 4. Every epoch-mate sorting before us is delivered.
        received = self._received_by_epoch[epoch]
        delivered = self._delivered_by_epoch.get(epoch, set())
        for peer in received:
            if peer < envelope.msg_id and peer not in delivered:
                return False
        return True

    def _blockers(self, envelope: Envelope) -> Iterator[WakeKey]:
        # The epoch frontier is a monotone counter; closure is a discrete
        # event; ancestors and smaller epoch-mates resolve via the
        # chassis's delivered events.  Epoch-mates arriving *after* this
        # registration add conditions the index has not seen — the drain's
        # re-index on a too-early wake covers exactly that case.
        epoch = self._epoch_of(envelope)
        if epoch > self._next_epoch_to_finish:
            yield after_threshold("epoch", epoch)
        if not self.epoch_closed(epoch):
            yield after_event(("closed", epoch))
        predicate = envelope.occurs_after or _NULL
        for ancestor in predicate.ancestors:
            if not self.has_settled(ancestor):
                yield after_event(("delivered", ancestor))
        received = self._received_by_epoch.get(epoch, ())
        delivered = self._delivered_by_epoch.get(epoch, set())
        for peer in received:
            if peer < envelope.msg_id and peer not in delivered:
                yield after_event(("delivered", peer))

    def _on_delivered(self, envelope: Envelope) -> None:
        epoch = self._epoch_of(envelope)
        delivered = self._delivered_by_epoch.setdefault(epoch, set())
        delivered.add(envelope.msg_id)
        if self._epoch_fully_delivered(epoch):
            self._next_epoch_to_finish = epoch + 1
            self._advance_watermark("epoch", self._next_epoch_to_finish)

    # -- introspection -----------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The lowest epoch not yet fully delivered."""
        return self._next_epoch_to_finish
