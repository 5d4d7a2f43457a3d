"""Sharded multi-group object space (see ``docs/SHARDING.md``).

Splits the object space across N independent causal-broadcast groups;
cross-shard causality is carried by application-declared ``Occurs-After``
ancestors (paper Section 3.1) projected per shard by the session layer,
consistent multi-shard reads ride stable-point barriers (Section 4), and
slot rebalancing reuses the state-transfer machinery.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "barrier": ("BarrierRead", "StablePointBarrier"),
    "campaign": ("SHARDED_DISTURBANCES", "sharded_campaign"),
    "cluster": ("ShardedCluster", "ShardedResult"),
    "ledger": ("DATA_KINDS", "Ledger", "OpRecord"),
    "map": ("ShardMap",),
    "rebalance": ("MoveRecord", "Rebalancer"),
    "router": ("Session", "ShardRouter"),
})

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
