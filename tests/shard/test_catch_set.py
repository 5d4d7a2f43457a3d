"""The catch-set table: every planted fault against every sharded auditor.

Each fault is planted in a small sharded run that is clean without it;
each auditor reports whether it flags the result.  The stamp audit's
three passes sit next to the references they replaced
(:mod:`tests.shard.audit_reference`): session order next to the four
white-box session checkers, ``cross-shard-causal`` next to the
set-closure checker with session edges, ``get-freshness`` next to the
label-decoding get audit.  ``snapshot-closure`` and ``InvariantMonitor``
(the per-shard battery) have no replacement.

Session order and ``cross-shard-causal`` are read off
``ShardedCluster.check_invariants`` — the audit every sharded campaign
runs — so the table also pins that both passes run there.

The table is the expected value.  Whatever a reference catches, some
stamp-audit pass catches too.  Two rows differ.  A put stamped without
a read that observed nothing: the four checkers see a read only through
the writes it observed, and the set closure only through deliveries
that happened to come in the wrong order.  A put stamped without the
session's previous put and delivered before it: the set closure's
session edges flag the delivery, the stamp audit flags the missing
stamp, in session order.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import pytest

from repro.shard import StablePointBarrier, sharded_campaign
from repro.shard.cluster import ShardedCluster

from tests.shard import audit_reference as reference
from tests.shard.test_router import key_for, quiet_cluster

#: What `InvariantMonitor.check_all` can report.
MONITOR = frozenset({
    "duplicate-delivery", "causal-order", "total-order", "sequencer-epoch",
    "view-synchrony", "gc-safety", "convergence", "holdback-drained",
    "final-view",
})

#: Auditors whose verdicts the stamp audit's passes replaced, paired
#: with their replacements.
REPLACED = {
    "session order": "session order (reference)",
    "cross-shard-causal": "cross-shard-causal (reference)",
    "get-freshness": "get-freshness (reference)",
}


def audit(cluster: ShardedCluster) -> Tuple[str, ...]:
    """The names of the auditors that flag ``cluster``'s history."""
    ledger = cluster.ledger
    protocols = {
        m: s for g in cluster.groups.values() for m, s in g.stacks.items()
    }
    battery = {v.invariant for v in cluster.check_invariants()}
    verdicts = {
        "session order": "session-guarantee" in battery,
        "session order (reference)": reference.session_violations(ledger),
        "cross-shard-causal": "cross-shard-causal" in battery,
        "cross-shard-causal (reference)":
            reference.ReferenceCrossShardChecker.of(
                ledger, protocols, cluster.shard_of_member
            ).check(),
        "get-freshness": ledger.get_violations(),
        "get-freshness (reference)": reference.get_violations(ledger),
        "snapshot-closure": "snapshot-closure" in battery,
        "InvariantMonitor": battery & MONITOR,
    }
    return tuple(name for name, found in verdicts.items() if found)


def unstamped(session) -> None:
    """The session's next put goes out stamped without its past."""
    session.frontier = {}
    session._token = None


def small_run(plant: Callable = lambda cluster, step: None) -> ShardedCluster:
    """Two sessions over two shards; ``plant(cluster, step)`` runs at
    each named step."""
    cluster = quiet_cluster()
    reference.record_gets(cluster.ledger)
    k0, k1 = key_for(cluster, 0), key_for(cluster, 1)
    a, b = cluster.router.session("a"), cluster.router.session("b")
    plant(cluster, "start")
    a.put(k0, "a1")
    cluster.drain()
    plant(cluster, "second put")
    a.put(k0, "a2")
    a.put(k1, "a3")
    a.read()
    b.put(k1, "b1")
    b.get(k0, lambda served: None)
    cluster.drain()
    violations, _rounds = cluster.settle()
    assert violations == []
    plant(cluster, "settled")
    return cluster


def ordered_puts(cluster: ShardedCluster):
    """s0n1's delivery log and the positions of a's two shard-0 puts."""
    first, second = (
        r.label for r in cluster.ledger.ops.values()
        if r.session == "a" and r.shard == 0 and r.kind == "put"
    )
    envelopes = cluster.groups[0].stacks["s0n1"]._delivered_envelopes
    position = {e.msg_id: i for i, e in enumerate(envelopes)}
    return envelopes, position[first], position[second]


def put_without_previous_put(cluster, step):
    if step == "second put":
        unstamped(cluster.router.session("a"))


def put_without_previous_read(cluster, step):
    if step == "start":
        reader = cluster.router.session("r")
        reader.read()
        cluster.drain()
        unstamped(reader)
        reader.put(key_for(cluster, 0, salt=1), "r1")


def swapped_deliveries(cluster, step):
    if step == "settled":
        envelopes, i, j = ordered_puts(cluster)
        envelopes[i], envelopes[j] = envelopes[j], envelopes[i]


def unstamped_put_delivered_first(cluster, step):
    put_without_previous_put(cluster, step)
    swapped_deliveries(cluster, step)


def duplicated_delivery(cluster, step):
    if step == "settled":
        envelopes, i, _j = ordered_puts(cluster)
        envelopes.append(envelopes[i])


def get_below_floor(cluster, step):
    if step == "settled":
        envelopes, i, _j = ordered_puts(cluster)
        older = envelopes[i].msg_id
        key = cluster.ledger.ops[older].key
        cluster.ledger.audit_get("a", key, 0, older, "s0n0")


def get_below_read(cluster, step):
    """A session whose only past is a read is served a write older than
    one the read observed."""
    if step == "settled":
        envelopes, i, _j = ordered_puts(cluster)
        older = envelopes[i].msg_id
        reader = cluster.router.session("reader")
        reader.read()
        cluster.drain()
        cluster.ledger.audit_get(
            "reader", cluster.ledger.ops[older].key, 0, older, "s0n0"
        )


def unclosed_barrier_read(monkeypatch) -> ShardedCluster:
    """PR 22's seed-17 campaign with the barrier's closure check off."""
    monkeypatch.setattr(
        StablePointBarrier, "_check_closure", StablePointBarrier._complete
    )
    cluster = ShardedCluster(shards=2, members_per_shard=3, seed=17)
    reference.record_gets(cluster.ledger)
    cluster.run_campaign(sharded_campaign(
        cluster.shard_map,
        {s: g.members for s, g in cluster.groups.items()},
        seed=17,
        ops_per_session=10,
    ))
    return cluster


RUNS: Dict[str, Callable] = {
    "none": lambda _monkeypatch: small_run(),
    "put stamped without the session's previous put":
        lambda _monkeypatch: small_run(put_without_previous_put),
    "put stamped without the session's previous read (of nothing)":
        lambda _monkeypatch: small_run(put_without_previous_read),
    "put stamped without the session's previous put, delivered before it":
        lambda _monkeypatch: small_run(unstamped_put_delivered_first),
    "two deliveries swapped in one member's log":
        lambda _monkeypatch: small_run(swapped_deliveries),
    "a duplicated delivery":
        lambda _monkeypatch: small_run(duplicated_delivery),
    "a get answered below the session's floor":
        lambda _monkeypatch: small_run(get_below_floor),
    "a get answered below what the session's read observed":
        lambda _monkeypatch: small_run(get_below_read),
    "a barrier read completed without its closure check":
        unclosed_barrier_read,
}

CATCH_SET: Dict[str, Tuple[str, ...]] = {
    "none": (),
    "put stamped without the session's previous put": (
        "session order", "session order (reference)",
    ),
    "put stamped without the session's previous read (of nothing)": (
        "session order",
    ),
    "put stamped without the session's previous put, delivered before it": (
        "session order", "session order (reference)",
        "cross-shard-causal (reference)",
    ),
    "two deliveries swapped in one member's log": (
        "cross-shard-causal", "cross-shard-causal (reference)",
        "InvariantMonitor",
    ),
    "a duplicated delivery": ("InvariantMonitor",),
    "a get answered below the session's floor": (
        "get-freshness", "get-freshness (reference)",
    ),
    "a get answered below what the session's read observed": (
        "get-freshness", "get-freshness (reference)",
    ),
    "a barrier read completed without its closure check": (
        "snapshot-closure",
    ),
}


@pytest.mark.parametrize("fault", list(RUNS))
def test_catch_set(fault, monkeypatch):
    caught = audit(RUNS[fault](monkeypatch))
    assert caught == CATCH_SET[fault]


def test_the_stamp_audit_catches_whatever_a_reference_catches():
    stamp_passes = set(REPLACED)
    for fault, caught in CATCH_SET.items():
        if set(caught) & set(REPLACED.values()):
            assert set(caught) & stamp_passes, fault
        for new, old in REPLACED.items():
            if old in caught and new not in caught:
                # The reference's find is the other pass's: a missing
                # session edge shows up in deliveries only by chance.
                assert "session order" in caught, fault


def test_a_campaign_audit_checks_session_order():
    """``ShardedCluster.check_invariants`` — the audit of every sharded
    campaign, not only of a server's drain — flags a put stamped without
    the session's previous put and delivered before it."""
    cluster = small_run(unstamped_put_delivered_first)
    found = [
        v for v in cluster.check_invariants()
        if v.invariant == "session-guarantee"
    ]
    assert [v.detail.split(":")[0] for v in found] == [
        "monotonic-writes violated in session a"
    ]
