"""Raynal-Schiper-Toueg (RST) causal broadcast.

The third classic causal-ordering realisation, alongside explicit graphs
(``OSend``) and vector clocks (CBCAST).  Each member maintains a matrix
``SENT[i][j]`` — how many broadcasts from ``i`` it knows have been made
visible to ``j`` — and every outgoing message carries a snapshot of it.
A message from sender ``s`` is deliverable at member ``p`` once ``p`` has
delivered at least ``SENT_msg[q][p]`` messages from every ``q``: all the
broadcasts the sender knew ``p`` was owed have arrived.

Metadata is O(n²), the worst of the three — which is exactly why the
paper's explicit graphs are interesting; ``bench_proto_overhead``
includes RST in its comparison.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator

from repro.broadcast.base import BroadcastProtocol, WakeKey, after_prefix
from repro.errors import ProtocolError
from repro.group.membership import GroupMembership
from repro.types import Envelope, EntityId, Message, MessageId

SentMatrix = Dict[EntityId, Dict[EntityId, int]]


def _copy_matrix(matrix: SentMatrix) -> SentMatrix:
    return {row: dict(cols) for row, cols in matrix.items()}


class RstBroadcast(BroadcastProtocol):
    """Causal broadcast with sent-count matrices (RST 1991)."""

    protocol_name = "rst"

    #: Upper bound on gap labels enumerated per :meth:`missing_for` call
    #: (same rationale as :class:`~repro.broadcast.cbcast.CbcastBroadcast`).
    MISSING_ENUMERATION_CAP = 128

    def __init__(self, entity_id: EntityId, group: GroupMembership) -> None:
        # Durable: our own row of the matrix, the broadcasts we made
        # visible to each member.  Like CBCAST's `_sent` it mirrors the
        # label allocator: were it lost with a crash, our next stamps
        # would claim we sent nothing before it, and receivers could
        # deliver our new sends ahead of our old ones.  Assigned first:
        # `_init_volatile` files it in the matrix.
        self._own_row: Dict[EntityId, int] = {}
        super().__init__(entity_id, group)

    def _init_volatile(self) -> None:
        super()._init_volatile()
        # The other rows are what our deliveries taught us.  What we
        # delivered from an origin is its settled prefix (`_prefix`), not
        # a raw count: an amnesiac's post-restart delivery must not pay
        # off history it never settled.
        self._sent: SentMatrix = (
            {self.entity_id: self._own_row} if self._own_row else {}
        )

    # -- matrix helpers -------------------------------------------------------

    def _get(self, matrix: SentMatrix, row: EntityId, col: EntityId) -> int:
        return matrix.get(row, {}).get(col, 0)

    def _row(self, origin: EntityId) -> Dict[EntityId, int]:
        """Our matrix's row for ``origin``; our own is the durable one."""
        row = self._sent.get(origin)
        if row is None:
            row = self._own_row if origin == self.entity_id else {}
            self._sent[origin] = row
        return row

    def _merge(self, other: SentMatrix) -> None:
        for row, cols in other.items():
            for col, count in cols.items():
                if count > self._get(self._sent, row, col):
                    self._row(row)[col] = count

    def _raise_to_prefix(self, origin: EntityId) -> None:
        """What we settled from ``origin`` was broadcast to the group:
        count it as sent to every member of the view."""
        floor = self._prefix.get(origin, 0)
        for member in self.group.view.members:
            if self._get(self._sent, origin, member) < floor:
                self._row(origin)[member] = floor

    def matrix_entries(self) -> int:
        """Non-zero matrix entries currently held (metadata size proxy)."""
        return sum(
            1 for cols in self._sent.values() for c in cols.values() if c
        )

    # -- protocol hooks -----------------------------------------------------------

    def _stamp(self, message: Message, **options: object) -> Envelope:
        if options:
            raise ProtocolError(f"rst does not accept options: {options}")
        snapshot = _copy_matrix(self._sent)
        # Record this broadcast as sent to every current member (after
        # snapshotting: the constraint applies to *prior* traffic).
        own = self._row(self.entity_id)
        for member in self.group.view.members:
            own[member] = own.get(member, 0) + 1
        return Envelope(message, {"sent_matrix": snapshot})

    def _deliverable(self, envelope: Envelope) -> bool:
        matrix = envelope.metadata.get("sent_matrix")
        if not isinstance(matrix, dict):
            raise ProtocolError(
                f"envelope {envelope.msg_id} lacks an RST sent-matrix"
            )
        me = self.entity_id
        for origin in matrix:
            owed = self._get(matrix, origin, me)
            if self._prefix.get(origin, 0) < owed:
                return False
        return True

    def _blockers(self, envelope: Envelope) -> Iterator[WakeKey]:
        # One threshold per origin still owing us broadcasts: wake when
        # our settled prefix of that origin reaches the owed count.
        matrix = envelope.metadata.get("sent_matrix", {})
        me = self.entity_id
        for origin in matrix:
            owed = self._get(matrix, origin, me)
            if self._prefix.get(origin, 0) < owed:
                yield after_prefix(origin, owed)

    def _on_delivered(self, envelope: Envelope) -> None:
        self._merge(envelope.metadata["sent_matrix"])
        # The delivered message itself is now known sent to us and (by the
        # broadcast) to every member of the sender's view.
        self._raise_to_prefix(envelope.msg_id.sender)

    def _on_stable_skip(self, origin: EntityId) -> None:
        # Skipped or installed prefixes were broadcast to the whole group
        # too.
        self._raise_to_prefix(origin)

    def _gap_labels(self, envelope: Envelope) -> Iterator[MessageId]:
        """Lazily yield unseen labels the owed counts imply we lack."""
        matrix = envelope.metadata.get("sent_matrix", {})
        me = self.entity_id
        for origin in matrix:
            owed = self._get(matrix, origin, me)
            for seqno in range(self._prefix.get(origin, 0), owed):
                label = MessageId(origin, seqno)
                if not self.has_seen(label):
                    yield label

    def missing_for(self, envelope: Envelope) -> frozenset:
        """FIFO gaps per origin implied by the owed counts.

        RST counts are per-(origin, destination) totals, and label seqnos
        are per-origin send counters, so owed broadcasts can be named.
        Enumeration is lazy and capped at :attr:`MISSING_ENUMERATION_CAP`.
        """
        return frozenset(
            itertools.islice(
                self._gap_labels(envelope), self.MISSING_ENUMERATION_CAP
            )
        )
