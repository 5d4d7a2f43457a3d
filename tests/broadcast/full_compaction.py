"""The whole-store compaction scan: the executable specification of GC.

:meth:`StabilityTracker._compact` resumes, per origin, where its last
sweep stopped.  What it must reproduce is the obvious scan: walk every
stored body and drop each one whose origin may be compacted and whose
seqno lies below that origin's stable frontier.  ``full_scan(tracker)``
computes what that scan would leave — the store, in order, and the
applied frontiers — without touching anything, so
``test_gc_equivalence.py`` can hold the incremental sweep to it after
every gossip.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.broadcast.gc import StabilityTracker
from repro.types import EntityId, MessageId


def full_scan(
    tracker: StabilityTracker,
) -> Tuple[List[MessageId], Dict[EntityId, int]]:
    """The labels the scan keeps, in store order, and the applied
    frontiers it leaves behind."""
    protocol = tracker.protocol
    frontiers: Dict[EntityId, int] = {}
    applied = dict(tracker._applied_frontier)
    kept: List[MessageId] = []
    for label in protocol._envelopes_by_id:
        origin = label.sender
        if protocol.compactable_origin(origin):
            if origin not in frontiers:
                frontiers[origin] = tracker.stable_frontier(origin)
            if label.seqno < frontiers[origin]:
                applied[origin] = max(applied.get(origin, 0), label.seqno + 1)
                continue
        kept.append(label)
    return kept, applied
