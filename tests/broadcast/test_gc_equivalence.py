"""Incremental compaction against the whole-store scan, and digests
that skip what a member already holds.

``StabilityTracker._compact`` visits, per origin, only the seqnos that
became stable since its last sweep; ``RecoveryAgent._compare_digest``
skips every advertised seqno below the receiver's delivered prefix.
Over seeded fault campaigns (crashes, restarts, partitions, loss,
churn), every digest's compaction must leave exactly the store — in
order — the applied frontiers and the reclaimed count that the full
scan (``tests/broadcast/full_compaction.py``) would.  The single-group
campaigns' verdicts are held too: repair running mid-campaign must not
cost a campaign its safety or liveness.
"""

from __future__ import annotations

import pytest

from repro.broadcast.gc import StabilityTracker
from repro.chaos import CHAOS_PROTOCOLS, ChaosCluster, random_campaign
from repro.group.replica_group import ReplicaGroup
from repro.shard.campaign import sharded_campaign
from repro.shard.cluster import ShardedCluster
from tests.broadcast.full_compaction import full_scan


@pytest.fixture
def compactions(monkeypatch):
    """Hold every `_compact` to the full scan; count calls and the calls
    that dropped something."""
    compact = StabilityTracker._compact
    seen = {"calls": 0, "drops": 0}

    def checked(self):
        store = self.protocol._envelopes_by_id
        kept, applied = full_scan(self)
        reclaimed = self.envelopes_reclaimed + len(store) - len(kept)
        seen["calls"] += 1
        seen["drops"] += len(store) > len(kept)
        compact(self)
        assert list(store) == kept
        assert self._applied_frontier == applied
        assert self.envelopes_reclaimed == reclaimed

    monkeypatch.setattr(StabilityTracker, "_compact", checked)
    return seen


def gossip_throughout(group) -> None:
    """Anti-entropy digests, and so prefix gossip, all through a
    campaign, not only in its repair rounds: compaction then runs across
    crashes, restarts, partitions and loss (the timers are
    crash-guarded)."""
    for agent in group.recoveries.values():
        agent.schedule_anti_entropy(period=9.0, rounds=10)


#: The gossip-throughout campaigns that end with violations, and theirs:
#: none.  While the prefix rode a message of its own (a second timer,
#: every 7 s), `lamport_total` overlap seed 2 ended with ``n1`` holding
#: ``n3:8`` back for good (ROADMAP 6(d)); a tracker that counted no
#: Lamport ack failed serial seed 2 instead.
GOSSIP_THROUGHOUT_FAILURES = {}


@pytest.mark.parametrize("overlap", [False, True])
def test_chaos_campaigns_compact_as_the_full_scan_does(overlap, compactions):
    members = ("n0", "n1", "n2", "n3")
    for protocol in sorted(CHAOS_PROTOCOLS):
        for seed in (1, 2, 3):
            cluster = ChaosCluster(
                protocol=protocol, members=members, seed=seed, overlap=overlap
            )
            gossip_throughout(cluster)
            result = cluster.run_campaign(
                random_campaign(members, seed=seed, overlap=overlap)
            )
            held = {
                member: stack.holdback_ids
                for member, stack in cluster.stacks.items()
                if stack.holdback_ids
            }
            verdict = ([v.invariant for v in result.violations], held)
            assert verdict == GOSSIP_THROUGHOUT_FAILURES.get(
                (protocol, seed, overlap), ([], {})
            ), (protocol, seed, overlap, result.summary())
    assert compactions["drops"] > 100


def test_sharded_campaigns_compact_as_the_full_scan_does(compactions):
    for seed in (1, 2, 12):
        cluster = ShardedCluster(shards=2, members_per_shard=3, seed=seed)
        for group in cluster.groups.values():
            gossip_throughout(group)
        campaign = sharded_campaign(
            cluster.shard_map,
            {s: g.members for s, g in cluster.groups.items()},
            seed=seed,
        )
        assert cluster.run_campaign(campaign).ok
    assert compactions["drops"] > 10


def test_a_caught_up_member_checks_nothing_below_its_prefix():
    group = ReplicaGroup(protocol="osend", members=("a", "b", "c"), seed=3)
    for value in range(40):
        group.stacks["a"].bcast("put", value)
    group.drain()
    b = group.stacks["b"]
    assert group.trackers["b"].local_prefix("a") == 40
    assert len(group.stacks["a"]._envelopes_by_id) >= 40  # nothing compacted
    digests = []
    asked = []
    compare = group.recoveries["b"]._compare_digest
    group.recoveries["b"]._compare_digest = (
        lambda holder, payload: (digests.append(payload), compare(holder, payload))
    )
    has_seen = b.has_seen
    b.has_seen = lambda label: (asked.append(label), has_seen(label))[1]
    group.recoveries["a"].anti_entropy_round()
    group.drain()
    (digest,) = digests
    assert digest["labels"]["a"] == frozenset(range(40))
    assert asked == []
