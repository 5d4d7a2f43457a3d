"""Sharded multi-group object space (see ``docs/SHARDING.md``).

Splits the object space across N independent causal-broadcast groups;
cross-shard causality is carried by application-declared ``Occurs-After``
ancestors (paper Section 3.1) projected per shard by the session layer,
consistent multi-shard reads ride stable-point barriers (Section 4), and
slot rebalancing reuses the state-transfer machinery.
"""

from repro.shard.barrier import BarrierRead, StablePointBarrier
from repro.shard.campaign import SHARDED_DISTURBANCES, sharded_campaign
from repro.shard.cluster import ShardedCluster, ShardedResult
from repro.shard.ledger import DATA_KINDS, Ledger, OpRecord
from repro.shard.map import ShardMap
from repro.shard.rebalance import MoveRecord, Rebalancer
from repro.shard.router import Session, ShardRouter

__all__ = [
    "BarrierRead",
    "DATA_KINDS",
    "Ledger",
    "MoveRecord",
    "OpRecord",
    "Rebalancer",
    "SHARDED_DISTURBANCES",
    "Session",
    "ShardMap",
    "ShardRouter",
    "ShardedCluster",
    "ShardedResult",
    "StablePointBarrier",
    "sharded_campaign",
]
