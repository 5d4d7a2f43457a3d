"""The ledger with its graph filed eagerly: the reference for the view.

:class:`~repro.shard.ledger.Ledger` files a record and leaves the graph
and the per-shard masks to be caught up by the first question that needs
them.  :class:`EagerLedger` files every record into them the moment it is
filed, as the ledger did before the graph became a view — with its own
code, not the catch-up under test — so ``test_lazy_ledger.py`` can hold
every bit position, mask and answer of the view to it.
"""

from __future__ import annotations

from repro.shard.ledger import DATA_KINDS, Ledger
from repro.types import MessageId


class EagerLedger(Ledger):
    """Files each record into the graph and masks at once."""

    def record(self, label: MessageId, **fields: object) -> None:
        super().record(label, **fields)
        # Nothing is left for the view to catch up: the reference never
        # runs the catch-up.
        self._unbuilt = []
        record = self.ops[label]
        graph = self._graph
        graph.add(label, record.deps, record.cross_deps)
        bit = graph.bit_of(label)
        self._label_mask[record.shard] |= bit
        if record.kind in DATA_KINDS:
            self._write_mask[record.shard] |= bit
