"""What a replica group keeps: no trace, and no trace switch."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosCluster, random_campaign
from repro.shard import ShardedCluster, sharded_campaign

MEMBERS = ("n0", "n1", "n2", "n3")


def test_unknown_hop_events_refused():
    # The keyword survives for one caller, which passes "off".
    ShardedCluster(shards=1, members_per_shard=3, hop_events="off")
    for value in ("bogus", "full"):
        with pytest.raises(ValueError, match="hop_events"):
            ShardedCluster(shards=1, members_per_shard=3, hop_events=value)


def test_a_chaos_campaign_leaves_no_trace():
    cluster = ChaosCluster(protocol="osend", members=MEMBERS, seed=1)
    # Loss phases exercise the network's drop site too.
    campaign = random_campaign(MEMBERS, seed=1, disturbances=("loss", "crash"))
    assert any(event.action == "loss" for event in campaign.events)
    assert cluster.run_campaign(campaign).ok
    assert cluster.network.hops_dropped > 0
    assert len(cluster.network.trace) == 0


def test_a_sharded_campaign_leaves_no_trace():
    cluster = ShardedCluster(shards=2, members_per_shard=3, seed=1)
    result = cluster.run_campaign(sharded_campaign(
        cluster.shard_map,
        {s: g.members for s, g in cluster.groups.items()},
        seed=1,
        ops_per_session=10,
    ))
    assert result.ok and result.data_messages > 0
    for group in cluster.groups.values():
        assert len(group.network.trace) == 0
