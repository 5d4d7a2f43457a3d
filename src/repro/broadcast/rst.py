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

from repro.broadcast.base import BroadcastProtocol, WakeKey, after_threshold
from repro.errors import ProtocolError
from repro.group.membership import GroupMembership
from repro.types import Envelope, EntityId, MessageId

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
        super().__init__(entity_id, group)
        self._sent: SentMatrix = {}
        # Contiguous *settled prefix* per origin — not a raw delivery
        # count.  The two coincide in crash-free runs (a message's matrix
        # owes every receiver all lower seqnos from its origin, so
        # deliveries per origin happen in seqno order), but differ at an
        # amnesiac rejoiner: delivering the origin's *new* post-restart
        # send must not count toward pre-crash history it never settled,
        # or held messages owing that history unlock out of causal order.
        self._delivered_from: Dict[EntityId, int] = {}
        # Out-of-prefix delivered seqnos awaiting contiguity.
        self._delivered_seqnos: Dict[EntityId, set] = {}

    # -- matrix helpers -------------------------------------------------------

    def _get(self, matrix: SentMatrix, row: EntityId, col: EntityId) -> int:
        return matrix.get(row, {}).get(col, 0)

    def _bump(self, matrix: SentMatrix, row: EntityId, col: EntityId) -> None:
        matrix.setdefault(row, {})[col] = self._get(matrix, row, col) + 1

    def _merge(self, into: SentMatrix, other: SentMatrix) -> None:
        for row, cols in other.items():
            for col, count in cols.items():
                if count > self._get(into, row, col):
                    into.setdefault(row, {})[col] = count

    def matrix_entries(self) -> int:
        """Non-zero matrix entries currently held (metadata size proxy)."""
        return sum(
            1 for cols in self._sent.values() for c in cols.values() if c
        )

    # -- protocol hooks -----------------------------------------------------------

    def _stamp(self, envelope: Envelope, **options: object) -> Envelope:
        if options:
            raise ProtocolError(f"rst does not accept options: {options}")
        snapshot = _copy_matrix(self._sent)
        # Record this broadcast as sent to every current member (after
        # snapshotting: the constraint applies to *prior* traffic).
        for member in self.group.view.members:
            self._bump(self._sent, self.entity_id, member)
        return envelope.with_metadata(sent_matrix=snapshot)

    def _deliverable(self, envelope: Envelope) -> bool:
        matrix = envelope.metadata.get("sent_matrix")
        if not isinstance(matrix, dict):
            raise ProtocolError(
                f"envelope {envelope.msg_id} lacks an RST sent-matrix"
            )
        me = self.entity_id
        for origin in matrix:
            owed = self._get(matrix, origin, me)
            if self._delivered_from.get(origin, 0) < owed:
                return False
        return True

    def _blockers(self, envelope: Envelope) -> Iterator[WakeKey]:
        # One threshold per origin still owing us broadcasts: wake when
        # our delivered count from that origin reaches the owed count.
        matrix = envelope.metadata.get("sent_matrix", {})
        me = self.entity_id
        for origin in matrix:
            owed = self._get(matrix, origin, me)
            if self._delivered_from.get(origin, 0) < owed:
                yield after_threshold(("from", origin), owed)

    def _advance_prefix(self, origin: EntityId, floor: int = 0) -> None:
        seqnos = self._delivered_seqnos.setdefault(origin, set())
        prefix = max(self._delivered_from.get(origin, 0), floor)
        while prefix in seqnos:
            seqnos.discard(prefix)
            prefix += 1
        if prefix > self._delivered_from.get(origin, 0):
            self._delivered_from[origin] = prefix
            self._advance_watermark(("from", origin), prefix)

    def _on_delivered(self, envelope: Envelope) -> None:
        origin = envelope.msg_id.sender
        self._delivered_seqnos.setdefault(origin, set()).add(
            envelope.msg_id.seqno
        )
        self._advance_prefix(origin)
        matrix = envelope.metadata["sent_matrix"]
        self._merge(self._sent, matrix)
        # The delivered message itself is now known sent to us and (by the
        # broadcast) to every member of the sender's view.
        floor = self._delivered_from.get(origin, 0)
        for member in self.group.view.members:
            if self._get(self._sent, origin, member) < floor:
                self._sent.setdefault(origin, {})[member] = floor

    def _reset_volatile(self) -> None:
        self._sent = {}
        self._delivered_from = {}
        self._delivered_seqnos = {}

    def _on_stable_skip(self, origin: EntityId, frontier: int) -> None:
        self._advance_prefix(origin, floor=frontier)
        # Mirror the delivered floor kept by `_on_delivered`: skipped
        # prefixes were broadcast to the whole group.
        floor = self._delivered_from.get(origin, 0)
        for member in self.group.view.members:
            if self._get(self._sent, origin, member) < floor:
                self._sent.setdefault(origin, {})[member] = floor

    def _gap_labels(self, envelope: Envelope) -> Iterator[MessageId]:
        """Lazily yield unseen labels the owed counts imply we lack."""
        matrix = envelope.metadata.get("sent_matrix", {})
        me = self.entity_id
        for origin in matrix:
            owed = self._get(matrix, origin, me)
            for seqno in range(self._delivered_from.get(origin, 0), owed):
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
