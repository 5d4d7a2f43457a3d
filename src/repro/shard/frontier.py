"""Incremental maximal-antichain maintenance for delivered frontiers.

A member's *delivered frontier* is the maximal antichain of the data
labels it has causally delivered — the heads of its local causal past.
:class:`~repro.shard.cluster.ShardedCluster` maintains one per queried
member so that barrier issue and replica-read gating never rescan the
whole ledger.  The algorithm lives here, separated from the cluster, so
it can be property-tested on its own (``tests/shard/test_frontier.py``
pins the incremental path label-for-label against the full rebuild
across all six broadcast protocols).

Two facts make the incremental step sound, and both are invariants of
the surrounding system rather than of this class:

* labels arrive in an order that respects their causal dependencies
  (causal delivery), so when :meth:`FrontierTracker.note` sees a new
  label, every element of that label's causal past has already been
  noted — the new label can only *shadow* existing heads, never be
  shadowed by a missing one, **except** when redelivery/replay hands us
  an old label late, which the issue-index guard catches;
* the issue index is a linear extension of causality (a label's causal
  past only ever contains lower-indexed labels), so a head with a
  *higher* index than the incoming label can be checked directly for
  dominance, and :meth:`FrontierTracker.rebuild`'s descending-index scan
  can keep a label as maximal the moment no already-kept head dominates
  it.

Anything that invalidates the delivered set wholesale — a restart wiping
volatile state, an anti-entropy stable-prefix skip settling labels that
were never individually delivered, a member whose maintenance starts
late (lazy activation) — must go through :meth:`FrontierTracker.rebuild`
(or :meth:`FrontierTracker.reset` with an externally computed antichain)
instead of replaying deliveries.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable

from repro.types import MessageId

__all__ = ["FrontierTracker"]


class FrontierTracker:
    """Maximal antichain of noted labels, maintained incrementally.

    ``precedes(earlier, later)`` must decide the strict causal order of
    two labels; ``index_of(label)`` must be a linear extension of that
    order (issue index).  Both are supplied by the owner so one shared
    dependency graph can back every member's tracker.
    """

    __slots__ = ("heads", "_precedes", "_index_of")

    def __init__(
        self,
        precedes: Callable[[MessageId, MessageId], bool],
        index_of: Callable[[MessageId], int],
    ) -> None:
        #: Current frontier: label -> issue index.
        self.heads: Dict[MessageId, int] = {}
        self._precedes = precedes
        self._index_of = index_of

    def labels(self) -> FrozenSet[MessageId]:
        return frozenset(self.heads)

    def note(self, label: MessageId) -> None:
        """Fold one causally-delivered label into the frontier.

        A later-indexed head that already dominates ``label`` means the
        label is a redelivery of something inside the frontier's past —
        drop it.  Otherwise ``label`` is maximal (its own past was noted
        before it, by causal delivery) and it evicts any heads inside
        its past.
        """
        index = self._index_of(label)
        precedes = self._precedes
        heads = self.heads
        for head, head_index in heads.items():
            if head_index > index and precedes(label, head):
                return
        for head in [head for head in heads if precedes(head, label)]:
            del heads[head]
        heads[label] = index

    def rebuild(self, labels: Iterable[MessageId]) -> None:
        """Recompute the frontier from scratch over ``labels``.

        Descending-index scan: a label is maximal iff no already-kept
        (higher-indexed) head dominates it — sound because causal pasts
        only contain lower-indexed labels.
        """
        self.heads.clear()
        precedes = self._precedes
        index_of = self._index_of
        for label in sorted(labels, key=index_of, reverse=True):
            if not any(precedes(label, head) for head in self.heads):
                self.heads[label] = index_of(label)

    def reset(self, heads: Dict[MessageId, int]) -> None:
        """Adopt an externally computed maximal set (label -> index)."""
        self.heads = dict(heads)
