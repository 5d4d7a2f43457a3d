"""A label's causal past is readable off its own stamps.

The graph-free read path rests on two facts about the ledger's stamps:

* a label's causal past on its own shard is the closure of its in-group
  ``deps`` — a barrier's cut is what its contact settled plus the walk
  down from its floor, and a delivered label evicts exactly the heads
  among its ``deps``;
* a write's causal past on any other shard is the closure there of its
  ``cross_deps`` — a put's cross stamp is its session's whole frontier
  elsewhere, unpruned, and a migrate record's its whole past — so a
  read's closure check reads a covered write's foreign past off its
  stamp.

A session's absorb also leans on each member's labels being ledger
labels filed in seqno order, 0, 1, 2, …: then a label's issue index
bounds what its stamps can name.

All are checked here against the ledger graph's closures over seeded
sharded campaigns on 2 and 3 shards, with every disturbance and a slot
move overlapping a crash.  The closures below are built from ``deps``
and ``cross_deps`` alone, in issue order, with the graph lending only
its bit positions.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.shard import ShardedCluster, sharded_campaign
from repro.shard.campaign import SHARDED_DISTURBANCES
from repro.shard.ledger import DATA_KINDS


def stamp_closure_mismatches(cluster: ShardedCluster) -> List[str]:
    ledger = cluster.ledger
    graph = ledger.graph
    bit = graph.bit_of
    #: label -> mask of the label's in-group closure under ``deps``.
    closure: Dict[object, int] = {}
    mismatches = []
    for label, record in ledger.ops.items():
        own = 0
        for dep in record.deps:
            own |= bit(dep) | closure[dep]
        closure[label] = own
        past = graph.past_mask(label)
        if past & ledger._label_mask[record.shard] != own:
            mismatches.append(f"{label}: past on shard {record.shard}")
        if record.kind not in DATA_KINDS:
            continue
        for shard in cluster.shard_ids:
            if shard == record.shard:
                continue
            foreign = 0
            for dep in record.cross_deps:
                if ledger.shard_of(dep) == shard:
                    foreign |= bit(dep) | closure[dep]
            if past & ledger._label_mask[shard] != foreign:
                mismatches.append(f"{label}: past on shard {shard}")
    return mismatches


def out_of_order_streams(cluster: ShardedCluster) -> List[str]:
    """Members whose ledger labels are not seqnos 0, 1, 2, … in issue
    order."""
    streams: Dict[str, List[int]] = {}
    for label in cluster.ledger.ops:
        streams.setdefault(label.sender, []).append(label.seqno)
    return [
        sender for sender, seqnos in streams.items()
        if seqnos != list(range(len(seqnos)))
    ]


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_every_label_s_past_is_the_closure_of_its_stamps(shards, seed):
    cluster = ShardedCluster(shards=shards, members_per_shard=3, seed=seed)
    result = cluster.run_campaign(sharded_campaign(
        cluster.shard_map,
        {s: g.members for s, g in cluster.groups.items()},
        seed=seed,
        disturbances=SHARDED_DISTURBANCES,
    ))
    # (Two-shard seed 5 ends in a liveness violation under churn; its
    # stamps are checked all the same.)
    assert result.reads and result.rebalances
    assert stamp_closure_mismatches(cluster) == []
    assert out_of_order_streams(cluster) == []
