"""The rescan drain: the executable specification of delivery order.

The chassis (``repro.broadcast.base``) delivers through a wakeup index.
What that index must reproduce is the obvious drain: hold every arrival
back, then rescan the whole queue in arrival order, delivering each
envelope whose predicate holds when the scan reaches it, until a pass
delivers nothing.  ``naive(cls)`` is ``cls`` with that drain in place of
the index — same protocol, same predicates, same ``predicate_evaluations``
accounting — so ``test_drain_equivalence.py`` can compare the two runs
delivery for delivery, and ``benchmarks/bench_drain_scale.py`` can time
the rescan the index replaces.

The reference never delivers on arrival: the index's shortcut for an
arrival that is deliverable at once must be shown to land where the
rescan puts it, so the reference cannot take it too.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Type, TypeVar

from repro.broadcast.base import BroadcastProtocol
from repro.types import Envelope, MessageId

P = TypeVar("P", bound=BroadcastProtocol)


class NaiveDrain:
    """Mixin: every arrival is held back, and the drain rescans."""

    def _accept(
        self, envelope: Envelope, msg_id: MessageId, arrival: int
    ) -> None:
        self._pending[msg_id] = envelope
        self._arrival[msg_id] = arrival
        self._drain()

    def _index(self, envelope: Envelope) -> None:
        """Nothing is indexed: the rescan asks every held predicate."""

    def _drain(self) -> None:
        """Rescan the queue until no predicate fires.

        Each pass scans the queue in arrival order, so among
        simultaneously-deliverable envelopes the earliest-received goes
        first — deterministic given the scheduler's determinism.
        """
        progress = True
        while progress:
            progress = False
            for envelope in list(self._pending.values()):
                msg_id = envelope.msg_id
                if msg_id not in self._pending:
                    continue  # delivered by a nested drain
                self.predicate_evaluations += 1
                if self._deliverable(envelope):
                    del self._pending[msg_id]
                    self._arrival.pop(msg_id, None)
                    self._deliver(envelope)
                    progress = True


@lru_cache(maxsize=None)
def naive(cls: Type[P]) -> Type[P]:
    """``cls`` delivering through the rescan drain instead of the index."""
    return type(f"Naive{cls.__name__}", (NaiveDrain, cls), {})
