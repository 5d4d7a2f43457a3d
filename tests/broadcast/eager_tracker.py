"""The stability tracker fed one delivery callback at a time — a test reference.

:class:`~repro.broadcast.gc.StabilityTracker` keeps its own delivered
prefixes as a view of the protocol's delivery log, caught up when they
are read.  Before that it registered ``_on_delivery`` as a delivery
callback and seeded itself from the deliveries made before it was
attached.  :class:`EagerTracker` is that tracker, kept test-side as
``naive_drain.py`` keeps the rescan drain, so
``tests/broadcast/test_gc.py`` can hold the log-fed view to it step by
step.

Two differences from the old code, both on purpose: the seeding loop
skips control deliveries, as the callback always did (the old loop
counted them, which only a tracker attached after a control delivery
could see), and there is no run form — a plain callback keeps its stack
on the per-envelope path, and the run path delivers the same schedule
(``tests/broadcast/test_run_delivery.py``).
"""

from __future__ import annotations

from repro.broadcast.base import BroadcastProtocol
from repro.broadcast.gc import StabilityTracker


class EagerTracker(StabilityTracker):
    """Folds each delivery as it happens; nothing is left to catch up."""

    def __init__(self, protocol: BroadcastProtocol) -> None:
        super().__init__(protocol)
        protocol.on_deliver(self._on_delivery)
        for envelope in protocol.delivered_envelopes:
            if not protocol._is_control(envelope):
                self._on_delivery(envelope)

    def _catch_up(self) -> None:
        pass
