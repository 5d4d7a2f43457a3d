"""The stability tracker with a contiguity record of its own — a test reference.

:class:`~repro.broadcast.gc.StabilityTracker` reads its own delivered
prefixes, and the order of the origins it gossips, off the protocol's
settled set, which keeps them per origin.  Before that it kept a second
record: per origin, the seqnos delivered above a contiguous prefix,
folded from the deliveries and fast-forwarded by each stable-prefix skip.
:class:`EagerTracker` keeps that record, folded as each delivery happens,
and gossips from it, so ``tests/broadcast/test_gc.py`` can hold the
chassis's prefixes to it step by step, payload for payload.

It counts control deliveries, as the settled set does.  A delivery
callback sees none, so the stack's two delivery steps (``_deliver`` and
the run path's ``_deliver_run``) are wrapped instead.  What the stack
settled before the tracker attached is taken as it stands.  It sees no
snapshot install: labels installed that way are settled with no
delivery, and ``test_gc.py`` covers them on their own.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.broadcast.base import BroadcastProtocol
from repro.broadcast.gc import GC_VECTOR_OPERATION, StabilityTracker
from repro.types import Envelope, EntityId, Message


class EagerTracker(StabilityTracker):
    """Folds each delivery and each skip as it happens; reads no prefix
    off the protocol after it attaches."""

    def __init__(self, protocol: BroadcastProtocol) -> None:
        super().__init__(protocol)
        self._origins.update(dict.fromkeys(protocol._prefix))
        self._floor.update(protocol._stable_floor)
        for envelope in protocol.delivered_envelopes:
            self._fold(envelope)
        deliver, deliver_run = protocol._deliver, protocol._deliver_run

        def folding(envelope: Envelope) -> None:
            self._fold(envelope)
            deliver(envelope)

        def folding_run(run: List[Envelope]) -> None:
            for envelope in run:
                self._fold(envelope)
            deliver_run(run)

        protocol._deliver = folding  # type: ignore[method-assign]
        protocol._deliver_run = folding_run  # type: ignore[method-assign]

    def _init_volatile(self) -> None:
        super()._init_volatile()
        # origin -> seqnos delivered; origin -> highest skipped frontier;
        # the origins in the order they were first settled.
        self._seqnos: Dict[EntityId, Set[int]] = {}
        self._floor: Dict[EntityId, int] = {}
        self._origins: Dict[EntityId, None] = {}

    def _fold(self, envelope: Envelope) -> None:
        label = envelope.msg_id
        self._seqnos.setdefault(label.sender, set()).add(label.seqno)
        self._origins.setdefault(label.sender)

    def on_stable_skip(self, origin: EntityId, frontier: int) -> None:
        super().on_stable_skip(origin, frontier)
        self._floor[origin] = max(frontier, self._floor.get(origin, 0))
        self._origins.setdefault(origin)

    def local_prefix(self, origin: EntityId) -> int:
        # Everything below the floor is settled; above it, deliveries.
        prefix = self._floor.get(origin, 0)
        seqnos = self._seqnos.get(origin, ())
        while prefix in seqnos:
            prefix += 1
        return prefix

    def gossip_round(self) -> None:
        message = Message(
            self._allocator.next_id(),
            GC_VECTOR_OPERATION,
            {origin: self.local_prefix(origin) for origin in self._origins},
        )
        self.protocol.network.broadcast(
            self.protocol.entity_id, Envelope(message)
        )
