"""The barrier read and the session absorb, computed on the ledger graph.

:class:`~repro.shard.barrier.StablePointBarrier` and
:class:`~repro.shard.router.Session` compute a read from its contacts'
settled :class:`~repro.broadcast.cut.Cut` values and the ledger's
in-group ``deps``, and never ask the ledger's graph.  This module keeps
the computation they replaced — every cut a mask over the graph's bits,
every stamp and frontier a graph ``maximal`` — as the oracle that
``tests/shard/test_graph_free_read.py`` holds them to, as
``tests/broadcast/naive_drain.py`` is the oracle of the drain.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.shard.cluster import ShardedCluster
from repro.shard.ledger import Fold, Ledger
from repro.types import EntityId, MessageId


def stamp(
    cluster: ShardedCluster, shard: int, contact: EntityId,
    floor: Iterable[MessageId],
) -> FrozenSet[MessageId]:
    """A barrier's ``Occurs-After``: the maximal labels of what the
    contact has settled on ``shard`` and of ``floor``."""
    ledger = cluster.ledger
    stack = cluster.groups[shard].stacks[contact]
    settled = filter(stack.has_settled, ledger.labels(shard))
    return ledger.maximal(set(ledger.maximal(settled)) | set(floor))


def cut(ledger: Ledger, shard: int, labels: Iterable[MessageId]) -> int:
    """The writes of ``shard`` in the causal past of ``labels``, as a mask."""
    mask = 0
    for label in labels:
        mask |= ledger.past_writes(label, shard)
    return mask


def closure_gaps(ledger: Ledger, cuts: Dict[int, int]) -> Dict[int, int]:
    """shard -> the writes its cut lacks for ``cuts`` to be causally closed.

    The past of the cuts' maximal writes is the past of every covered
    write; each touched shard's share of it must lie inside its cut.
    """
    graph = ledger.graph
    past = 0
    for mask in cuts.values():
        for head in graph.labels_of(graph.maximal_mask(mask)):
            past |= graph.past_mask(head)
    gaps: Dict[int, int] = {}
    for shard, mask in cuts.items():
        reached = past & ledger._write_mask[shard]
        # x ^ (x & y) is x & ~y without the negative big int.
        gap = reached ^ (reached & mask)
        if gap:
            gaps[shard] = gap
    return gaps


def fold(ledger: Ledger, mask: int, base: Tuple[int, Fold]) -> Fold:
    """key -> (issue index, value) of the writes in ``mask``, newest per
    key: ``base``'s fold extended by what ``mask`` adds to its mask if it
    holds it, a fold from nothing otherwise."""
    base_mask, folded = base
    if base_mask & mask != base_mask:
        base_mask, folded = 0, {}
    folded = dict(folded)
    for label in ledger.cut_labels(mask ^ base_mask):
        record = ledger.ops[label]
        for key, value in record.writes():
            held = folded.get(key)
            if held is None or held[0] < record.index:
                folded[key] = (record.index, value)
    return folded


def absorb(
    cluster: ShardedCluster,
    frontier: Dict[int, FrozenSet[MessageId]],
    labels: Iterable[MessageId],
) -> Dict[int, FrozenSet[MessageId]]:
    """``frontier`` once each of ``labels``' causal past is projected onto
    every shard and merged in."""
    frontier = dict(frontier)
    for label in labels:
        for shard in cluster.shard_ids:
            projected = cluster.project((label,), shard)
            if projected:
                merged = set(frontier.get(shard, ())) | set(projected)
                frontier[shard] = cluster.maximal(merged)
    return frontier
