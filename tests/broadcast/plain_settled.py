"""The settled set as one plain set of labels: the executable specification.

The chassis (``repro.broadcast.base``) keeps what a member has settled as
a contiguous prefix per origin plus the few labels settled above it.
What that form must answer is what the obvious form answers: one set
holding every label the member delivered, skip-settled or installed from
a snapshot, wiped by a restart.  :class:`PlainSettled` keeps that set
beside a stack, fed from what the stack observably did — the labels its
delivery log gained, the stable frontiers and snapshots handed to it, its
restarts — so ``test_settled_set.py`` can hold every question the chassis
answers to it after every step.  The driver catches the reference up
before each step and after it, so what a step settles is filed in the
order the stack settled it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.broadcast.base import BroadcastProtocol
from repro.types import Envelope, EntityId, MessageId


class PlainSettled:
    """One set of labels, and what the chassis derives from its own form."""

    def __init__(self, stack: BroadcastProtocol) -> None:
        self.stack = stack
        self.archive: List[Tuple[List[MessageId], frozenset]] = []
        self._wipe()

    def _wipe(self) -> None:
        self.settled: Set[MessageId] = set()
        self.skipped: Set[MessageId] = set()
        self.floor: Dict[EntityId, int] = {}
        # Origins in the order they were first settled.
        self.order: Dict[EntityId, None] = {}
        self._log: List[Envelope] = self.stack._delivered_envelopes
        self._logged = 0

    # -- what the stack did -------------------------------------------------

    def catch_up(self) -> None:
        """File the labels the stack's delivery log gained; none may be
        settled already (that would be a double delivery)."""
        for envelope in self._log[self._logged:]:
            label = envelope.msg_id
            assert label not in self.settled, f"{label} settled twice"
            self.settled.add(label)
            self.order.setdefault(label.sender)
        self._logged = len(self._log)

    def skip(self, origin: EntityId, frontier: int) -> None:
        """``note_stable_prefix``: every label below a frontier above the
        origin's last one is settled; those that were not are skipped."""
        if frontier <= self.floor.get(origin, 0):
            return
        self.floor[origin] = frontier
        for seqno in range(frontier):
            label = MessageId(origin, seqno)
            if label not in self.settled:
                self.settled.add(label)
                self.skipped.add(label)
        self.order.setdefault(origin)

    def install(self, labels: Iterable[MessageId]) -> None:
        """A snapshot's covered labels, origins keyed in label order."""
        for label in sorted(labels):
            self.settled.add(label)
            self.order.setdefault(label.sender)

    def restart(self) -> None:
        """The crash loses the set; the restart then settles the stack's
        own streams up to their durable compaction floors, before its
        replay reaches the new log.  Called once the stack restarted,
        with the old log caught up."""
        self.archive.append((
            [envelope.msg_id for envelope in self._log],
            frozenset(self.skipped),
        ))
        self._wipe()
        for origin, floor in sorted(self.stack._own_floors.items()):
            self.skip(origin, floor)

    # -- what the chassis must answer -----------------------------------------

    def prefix(self, origin: EntityId) -> int:
        prefix = 0
        while MessageId(origin, prefix) in self.settled:
            prefix += 1
        return prefix

    def has_seen(self, label: MessageId) -> bool:
        return label in self.settled or label in self.stack.holdback_ids
