"""The cluster-wide operation ledger.

Each shard runs its *own* causal-broadcast group; no protocol instance
ever sees the whole object space.  The ledger is the sharded cluster's
only ground truth (a :class:`~repro.group.replica_group.ReplicaGroup`
records nothing about the traffic it carries): one :class:`OpRecord` per
issued operation, holding both the in-group ``Occurs-After`` set and the
cross-group dependency stamp, in global issue order
(:class:`~repro.shard.cluster.ShardedCluster` owns the containers).
Both audits are derived from it — the per-shard
:class:`~repro.analysis.invariants.InvariantMonitor` battery reads each
record's ``deps``, the cross-shard check both edge kinds — and
:class:`~repro.shard.barrier.StablePointBarrier` folds read values from
it, so reads survive store compaction and crashes without any
per-member key/value state machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.types import MessageId

#: Operation kinds that carry object-space data.  ``barrier`` is control
#: traffic: it synchronises but writes nothing.
DATA_KINDS = frozenset({"put", "migrate"})


@dataclass(frozen=True)
class OpRecord:
    """One issued operation, as recorded at send time.

    ``deps`` is the in-group ``Occurs-After`` AND-dependency the envelope
    carries; ``cross_deps`` the foreign labels stamped for audit (their
    in-group projections were already folded into ``deps`` by the
    router — see ``docs/SHARDING.md``).  ``index`` is the global issue
    ordinal; every dependency points at a lower index.
    """

    label: MessageId
    shard: int
    kind: str
    key: Optional[str]
    slot: Optional[int]
    value: object
    deps: FrozenSet[MessageId]
    cross_deps: FrozenSet[MessageId]
    session: Optional[str]
    index: int
    time: float
