"""The ledger's audit gives the verdicts of the audit it replaced.

Random sharded serving histories — puts, gets, barrier reads, token
imports, crash/restart and slot moves on 2 and 3 shards — each with an
optional planted fault from the catch-set table
(``tests/shard/test_catch_set.py``), audited twice:

* the stamp audit: ``Ledger.session_order_violations``, the mask-pass
  ``CrossShardChecker`` and ``Ledger.get_violations``;
* the references in :mod:`tests.shard.audit_reference`: the four
  white-box session checkers, the set-closure cross-shard checker with
  its session edges, and the label-decoding get audit over each
  session's log with its gets recorded in place.

One is clean exactly when the other is, the two get audits agree item
for item, and while session order lies inside the stamps the two
cross-shard checkers report the same violations.
"""

from __future__ import annotations

from typing import Callable, List, Optional
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import CrossShardChecker
from repro.shard import StablePointBarrier
from repro.shard.cluster import ShardedCluster

from tests.shard import audit_reference as reference
from tests.shard.test_catch_set import unstamped

KEYS = 10

FAULTS = (None, "unstamped", "swap", "duplicate", "stale-get", "closure")

operations = st.tuples(
    st.sampled_from(
        ("put",) * 5
        + ("get", "get", "read", "merge", "crash", "restart", "move", "drain")
    ),
    st.integers(0, KEYS - 1),
    st.integers(0, 200),
)


def protocols(cluster: ShardedCluster):
    return {m: s for g in cluster.groups.values() for m, s in g.stacks.items()}


def new_audit(cluster: ShardedCluster):
    ledger = cluster.ledger
    return (
        ledger.session_order_violations(),
        CrossShardChecker(
            protocols(cluster), ledger, cluster.shard_of_member
        ).check(),
        ledger.get_violations(),
    )


def reference_audit(cluster: ShardedCluster):
    ledger = cluster.ledger
    return (
        reference.session_violations(ledger),
        reference.ReferenceCrossShardChecker.of(
            ledger, protocols(cluster), cluster.shard_of_member
        ).check(),
        reference.get_violations(ledger),
    )


def plant_unstamped(session) -> bool:
    """Drop the session's frontier before a put whose previous op was a
    write: the put goes out stamped without it.  (After a read, the four
    reference checkers see the session edge only through the writes the
    read observed — none, for a read of an empty snapshot — so there the
    stamp audit is the stricter one; ``test_catch_set`` pins that.)"""
    if not (session.idle and session.log and session.log[-1][0] == "write"):
        return False
    unstamped(session)
    return True


def ordered_pair(cluster: ShardedCluster):
    """A member's delivery log and two positions i < j of ledger labels
    with log[i] ≺ log[j], or None."""
    ledger = cluster.ledger
    for _member, stack in sorted(protocols(cluster).items()):
        envelopes = stack._delivered_envelopes
        seen: List[int] = []
        for j, envelope in enumerate(envelopes):
            if envelope.msg_id not in ledger:
                continue
            for i in seen:
                if ledger.precedes(envelopes[i].msg_id, envelope.msg_id):
                    return envelopes, i, j
            seen.append(j)
    return None


def plant_after(
    cluster: ShardedCluster, sessions, fault: Optional[str], salt: int
) -> None:
    """Plant the faults that act on a finished history; ``salt`` picks
    where."""
    if fault in ("swap", "duplicate"):
        found = ordered_pair(cluster)
        if found is not None:
            envelopes, i, j = found
            if fault == "swap":
                envelopes[i], envelopes[j] = envelopes[j], envelopes[i]
            else:
                envelopes.append(envelopes[i])
    elif fault == "stale-get":
        session = sessions[0]
        for value in ("old", "new"):
            session.put("stale", value)
            cluster.drain()
        writes = [l for kind, l in session.log if kind == "write"]
        shard = cluster.ledger.shard_of(writes[-1])
        older = cluster.ledger.key_writes[shard].get("stale", [])
        if len(older) >= 2:
            # Twice: a stale answer must not lower the floor.
            for _ in range(2):
                cluster.ledger.audit_get(
                    session.name, "stale", shard, older[0], "planted"
                )


def plant_get(cluster: ShardedCluster, sessions, salt: int) -> None:
    """Some session is served a get of some key, answered with any write
    of it so far, or with nothing."""
    key = f"k{salt % KEYS}"
    shard = cluster.shard_map.shard_of(key)
    writes = cluster.ledger.key_writes[shard].get(key, [])
    label = writes[salt % len(writes)] if salt % 4 and writes else None
    cluster.ledger.audit_get(
        sessions[salt % len(sessions)].name, key, shard, label, "planted"
    )


def run_history(
    shards: int, ops, fault: Optional[str], salt: int = 0,
    after_step: Callable[[ShardedCluster, list], None] = lambda c, s: None,
) -> ShardedCluster:
    cluster = ShardedCluster(shards=shards, members_per_shard=3, hop_events="off")
    reference.record_gets(cluster.ledger)
    sessions = [cluster.router.session(f"s{n}") for n in range(3)]
    keys = [f"k{n}" for n in range(KEYS)]
    planted = False
    for step, (op, key, number) in enumerate(ops):
        if fault == "stale-get" and step == salt % len(ops):
            # One get at some step, before that step's operation.
            plant_get(cluster, sessions, salt)
        session = sessions[number % len(sessions)]
        group = cluster.groups[number % shards]
        if op == "put":
            if fault == "unstamped" and not planted:
                planted = plant_unstamped(session)
            session.put(keys[key], number)
        elif op == "get":
            session.get(keys[key], lambda served: None)
        elif op == "read":
            session.read()
        elif op == "merge":
            other = sessions[(number + 1) % len(sessions)]
            session.import_token(other.export_token())
        elif op == "crash":
            up = group.up_members()
            if len(up) > 1:
                group.crash(up[number % len(up)])
        elif op == "restart":
            group.revive()
        elif op == "move" and not cluster.rebalancer.active():
            slot = cluster.shard_map.slot_of(keys[key])
            cluster.rebalancer.move_slot(slot, number % shards)
        elif op == "drain":
            cluster.drain()
        after_step(cluster, sessions)
    cluster.drain()
    for group in cluster.groups.values():
        group.revive()
    cluster.drain()
    plant_after(cluster, sessions, fault, salt)
    return cluster


def as_rows(violations):
    return {(v.invariant, v.member, v.detail) for v in violations}


class TestSameVerdicts:
    @settings(max_examples=80, deadline=None)
    @given(
        shards=st.sampled_from((2, 3)),
        ops=st.lists(operations, min_size=4, max_size=36),
        fault=st.sampled_from(FAULTS),
        salt=st.integers(0, 1000),
    )
    def test_clean_exactly_when_the_references_are(
        self, shards, ops, fault, salt
    ):
        if fault == "closure":
            with mock.patch.object(
                StablePointBarrier, "_check_closure", StablePointBarrier._complete
            ):
                cluster = run_history(shards, ops, fault, salt)
        else:
            cluster = run_history(shards, ops, fault, salt)
        session, cross, gets = new_audit(cluster)
        ref_session, ref_cross, ref_gets = reference_audit(cluster)
        assert (not (session or cross or gets)) == (
            not (ref_session or ref_cross or ref_gets)
        )
        assert gets == ref_gets
        if not session:
            assert not ref_session
            assert as_rows(cross) == as_rows(ref_cross)
