"""The premise of ``Session.observe``'s shortcut: a session's frontier
already dominates every write the session issued.

``observe`` returns at once for a label its own session issued, without
asking the ledger graph whether a frontier head follows it.  That is
sound because the frontier only moves causally forward — a put replaces
its shard's frontier with a label stamped after it, and absorbing a
read, a served write or a token keeps the maximal elements of a
superset.  Over random histories of puts, gets, barrier reads, token
merges, crash/revive and slot moves, after every step, each put a
session issued is a head of its frontier on the put's shard or precedes
one.  (A get serves only writes; a session's barrier labels join its
frontier when their read completes, and an aborted read's never do.)
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.cluster import ShardedCluster

from tests.shard.test_audit_equivalence import operations, run_history


def undominated_puts(cluster: ShardedCluster, sessions) -> list:
    """The puts a session issued that its frontier does not dominate."""
    ledger = cluster.ledger
    frontiers = {session.name: session.frontier for session in sessions}
    return [
        (record.session, record.label)
        for record in ledger.ops.values()
        if record.kind == "put" and record.session in frontiers
        and not any(
            head == record.label or ledger.precedes(record.label, head)
            for head in frontiers[record.session].get(record.shard, ())
        )
    ]


@settings(max_examples=60, deadline=None)
@given(
    shards=st.sampled_from((2, 3)),
    ops=st.lists(operations, min_size=4, max_size=36),
)
def test_a_sessions_own_writes_are_always_under_its_frontier(shards, ops):
    found = []

    def check(cluster, sessions):
        found.extend(undominated_puts(cluster, sessions))

    cluster = run_history(shards, ops, None, after_step=check)
    check(cluster, [cluster.router.session(f"s{n}") for n in range(3)])
    assert found == []
