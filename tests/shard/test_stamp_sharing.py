"""One stamp per put: the session's frontier *is* the put's Occurs-After.

A put's in-group dependencies are the destination shard's frontier
frozenset itself, and its cross-group dependencies the other shard's
frontier when exactly one other shard has one — shared by the session,
the ledger record, the ledger graph and the envelope.  Only a handoff or
three or more shards combine sets, through ``maximal()``.

The stamp this replaced rebuilt every set through ``maximal()``;
:func:`reference_stamp` keeps that computation as the oracle, and the
property test below holds every put's ``OpRecord`` to it through random
puts, gets, observes, barrier reads, token merges and slot moves.
"""

from __future__ import annotations

import gc
from typing import Dict, FrozenSet, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.cluster import ShardedCluster
from repro.types import MessageId

from tests.shard.test_router import key_for

Stamp = Tuple[FrozenSet[MessageId], FrozenSet[MessageId]]


def reference_stamp(
    cluster: ShardedCluster,
    frontier: Dict[int, FrozenSet[MessageId]],
    shard: int,
    handoff: Optional[MessageId],
) -> Stamp:
    """The per-put stamp as it was computed before it was shared:
    ``maximal(frontier[shard] | {handoff})`` and ``maximal(⋃ others)``."""
    deps = set(frontier.get(shard, ()))
    if handoff is not None:
        deps.add(handoff)
    cross = set()
    for other, labels in frontier.items():
        if other != shard:
            cross |= labels
    return cluster.maximal(deps), cluster.maximal(cross)


def spy_on_stamps(cluster: ShardedCluster) -> Dict[MessageId, Stamp]:
    """Record, for every session put, the reference stamp computed from
    the session's frontier just before the put was sent."""
    expected: Dict[MessageId, Stamp] = {}
    send = cluster.shard_send

    def shard_send(shard, kind, payload, **fields):
        stamp = None
        if kind == "put":
            session = cluster.router.session(fields["session"])
            stamp = reference_stamp(
                cluster, session.frontier, shard,
                cluster.router.handoff_dep(fields["slot"]),
            )
        label = send(shard, kind, payload, **fields)
        if label is not None and stamp is not None:
            expected[label] = stamp
        return label

    cluster.shard_send = shard_send
    return expected


def live_frozensets() -> Dict[int, frozenset]:
    """Every live frozenset by id (held, so no id is reused meanwhile)."""
    gc.collect()
    return {id(o): o for o in gc.get_objects() if type(o) is frozenset}


def new_frozensets(before: Dict[int, frozenset]) -> list:
    return [o for key, o in live_frozensets().items() if key not in before]


SESSIONS = 2
KEYS = 12

#: (kind, first, second); puts weighted up so that a session's frontier
#: spans several shards often enough to need pruning.
operations = st.tuples(
    st.sampled_from(
        ("put",) * 5 + ("get", "read", "observe", "merge", "move", "drain")
    ),
    st.integers(0, KEYS - 1),
    st.integers(0, 200),
)


class TestStampEquivalence:
    @settings(max_examples=250, deadline=None)
    @given(
        shards=st.sampled_from((2, 3)),
        ops=st.lists(operations, min_size=4, max_size=40),
    )
    def test_every_put_is_stamped_as_the_reference_would(self, shards, ops):
        cluster = ShardedCluster(shards=shards, members_per_shard=3, hop_events="off")
        expected = spy_on_stamps(cluster)
        sessions = [cluster.router.session(f"s{n}") for n in range(SESSIONS)]
        keys = [f"k{n}" for n in range(KEYS)]
        for op, key, number in ops:
            session = sessions[number % SESSIONS]
            if op == "put":
                session.put(keys[key], number)
            elif op == "get":
                session.get(keys[key], lambda served: None)
            elif op == "read":
                session.read()
            elif op == "observe" and len(cluster.ledger):
                order = cluster.ledger.issue_order
                session.observe(order[number % len(order)])
            elif op == "merge":
                other = sessions[(number + 1) % SESSIONS]
                session.import_token(other.export_token())
            elif op == "move" and not cluster.rebalancer.active():
                slot = cluster.shard_map.slot_of(keys[key])
                cluster.rebalancer.move_slot(slot, number % shards)
            elif op == "drain":
                cluster.drain()
        cluster.drain()
        for label, (deps, cross) in expected.items():
            record = cluster.ledger.ops[label]
            assert record.deps == deps, label
            assert record.cross_deps == cross, label

    def test_the_property_meets_handoffs_and_three_shard_combinations(self):
        # One fixed sequence that is sure to take both maximal() paths.
        cluster = ShardedCluster(shards=3, members_per_shard=3, hop_events="off")
        expected = spy_on_stamps(cluster)
        session = cluster.router.session("s")
        k0, k1, k2 = (key_for(cluster, shard) for shard in range(3))
        for key in (k0, k1, k2, k0):
            session.put(key, key)
        slot = cluster.shard_map.slot_of(k0)
        record = cluster.rebalancer.move_slot(slot, 1)
        cluster.drain()
        assert record.phase == "done"
        session.put(k0, "after the move")
        cluster.drain()
        last = cluster.ledger.ops[cluster.ledger.issue_order[-1]]
        assert record.migrate_label in last.deps
        assert len(expected) == 5
        for label, (deps, cross) in expected.items():
            assert cluster.ledger.ops[label].deps == deps
            assert cluster.ledger.ops[label].cross_deps == cross


class TestOneStampShared:
    def test_consecutive_puts_to_a_shard_reuse_one_frozenset(self):
        cluster = ShardedCluster(shards=2, members_per_shard=3, hop_events="off")
        session = cluster.router.session("s")
        k0, k1 = key_for(cluster, 0), key_for(cluster, 1)
        session.put(k0, "a")
        after_a = session.frontier[0]
        session.put(k1, "b")
        after_b = session.frontier[1]
        session.put(k0, "c")
        cluster.drain()
        a, b, c = (cluster.ledger.ops[label] for label in cluster.ledger.issue_order)
        # The frontier a left behind is b's cross stamp and c's deps.
        assert b.cross_deps is after_a == {a.label}
        assert c.deps is after_a
        assert c.cross_deps is after_b == {b.label}
        # The envelope's predicate and the ledger graph share it too.
        for stack in cluster.groups[0].stacks.values():
            assert stack._envelopes_by_id[c.label].occurs_after.ancestors is after_a
        stored = cluster.graph._ancestors[c.label]
        assert stored[0] is c.deps and stored[1] is c.cross_deps

    def test_a_put_leaves_one_new_frozenset_and_record_keeps_none(self):
        cluster = ShardedCluster(shards=2, members_per_shard=3, hop_events="off")
        session = cluster.router.session("s")
        k0, k1 = key_for(cluster, 0), key_for(cluster, 1)
        for key in (k0, k1, k0, k1):
            session.put(key, key)
        cluster.drain()
        before = live_frozensets()
        session.put(k0, "next")
        cluster.drain()
        # The session's new frontier, {next}: the stamp it was sent with
        # was the frontier already.  The stamp this replaced kept three
        # more: two maximal() copies and the ledger graph's union.
        assert new_frozensets(before) == [session.frontier[0]]

        ledger = cluster.ledger
        deps, cross = session.frontier[0], session.frontier[1]
        label = MessageId("probe", 0)
        before = live_frozensets()
        ledger.record(
            label, shard=0, kind="put", key=k0, slot=None,
            value={"key": k0, "value": 1}, deps=deps, cross_deps=cross,
            session="s",
        )
        assert new_frozensets(before) == []
        assert ledger.graph.ancestors_of(label) == deps | cross
