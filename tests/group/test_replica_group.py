"""ReplicaGroup's input checks."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosCluster
from repro.group.replica_group import ReplicaGroup
from repro.shard import ShardedCluster


@pytest.mark.parametrize("build", [
    lambda: ReplicaGroup(hop_events="bogus"),
    lambda: ChaosCluster(hop_events="bogus"),
    lambda: ShardedCluster(shards=1, members_per_shard=3, hop_events="bogus"),
], ids=["ReplicaGroup", "ChaosCluster", "ShardedCluster"])
def test_unknown_hop_events_refused(build):
    with pytest.raises(ValueError, match="hop_events"):
        build()
