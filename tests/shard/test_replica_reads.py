"""Replica-read plumbing: coverage gate, per-key index, amnesia, caches.

The session layer's read-anywhere routing stands on five cluster
primitives — ``covers`` (the eligibility gate), ``member_read`` (the
per-member LWW fold), ``read_members`` (who may serve), ``read_replica``
(who serves next), and the ``key_writes`` index they walk — plus two
regressions fixed alongside them:
``contact`` must not pick a just-restarted amnesiac, and the barrier
snapshot cache must be dropped on rebalance cutover and member restart.
``read_replica`` decides in one pass what ``read_members`` filtered by
``covers`` decides in three; a hypothesis property holds the two to the
same pick, on the same cursor, through every event that reshapes a
member's settled set.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.state_transfer import Snapshot, install_snapshot
from repro.types import MessageId
from tests.shard.test_rebalance import settle
from tests.shard.test_router import key_for, quiet_cluster


class TestKeyWritesIndex:
    def test_puts_append_in_issue_order(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        session = cluster.router.session("s")
        session.put(key, "v1")
        session.put(key, "v2")
        cluster.drain()
        assert cluster.ledger.key_writes[0][key] == list(cluster.ledger.issue_order)

    def test_migrate_indexes_every_moved_key(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        cluster.router.session("s").put(key, "v")
        cluster.drain()
        record = cluster.rebalancer.move_slot(
            cluster.shard_map.slot_of(key), 1
        )
        settle(cluster)
        assert record.migrate_label in cluster.ledger.key_writes[1][key]


class TestCoverageGate:
    def test_drained_member_covers_the_write(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        cluster.router.session("s").put(key, "v")
        cluster.drain()
        (label,) = cluster.ledger.issue_order
        for member in cluster.groups[0].members:
            assert cluster.covers(0, member, {label})

    def test_undelivered_label_is_not_covered(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        label = cluster.shard_send(
            0, "put", {"key": key, "value": "v"},
            occurs_after=frozenset(), cross_deps=frozenset(), session="s",
        )
        # No drain: the send is in flight, nobody has settled it.
        member = cluster.groups[0].members[0]
        assert not cluster.covers(0, member, {label})
        assert cluster.covers(0, member, frozenset())  # empty floor

    def test_member_read_returns_newest_settled_write(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        session = cluster.router.session("s")
        session.put(key, "old")
        session.put(key, "new")
        cluster.drain()
        member = cluster.contact(0)
        value, label = cluster.member_read(0, member, key)
        assert value == "new"
        assert label == cluster.ledger.issue_order[-1]

    def test_member_read_unknown_key_is_none(self):
        cluster = quiet_cluster()
        member = cluster.groups[0].members[0]
        assert cluster.member_read(0, member, "never-written") == (None, None)

    def test_member_read_serves_migrated_entry(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        cluster.router.session("s").put(key, "carried")
        cluster.drain()
        cluster.rebalancer.move_slot(cluster.shard_map.slot_of(key), 1)
        settle(cluster)
        member = cluster.contact(1)
        value, _label = cluster.member_read(1, member, key)
        assert value == "carried"


class TestReadMembers:
    def test_all_healthy_members_serve(self):
        cluster = quiet_cluster()
        group = cluster.groups[0]
        assert cluster.read_members(0) == list(group.members)

    def test_crashed_member_is_excluded(self):
        cluster = quiet_cluster()
        group = cluster.groups[0]
        group.crash(group.members[1])
        assert group.members[1] not in cluster.read_members(0)

    def test_read_replica_round_robins_over_covering_members(self):
        cluster = quiet_cluster()
        group = cluster.groups[0]
        label = cluster.shard_send(
            0, "put", {"key": "k", "value": "v"},
            occurs_after=frozenset(), cross_deps=frozenset(), session="s",
        )
        # In flight: nobody has settled the label, nobody may serve.
        assert cluster.read_replica(0, {label}) is None
        cluster.drain()
        picks = [cluster.read_replica(0, {label}) for _ in range(6)]
        assert picks == list(group.members) * 2
        group.crash(group.members[1])
        assert group.members[1] not in {
            cluster.read_replica(0, {label}) for _ in range(4)
        }


class TestAmnesiacContact:
    """Regression: ``contact`` picked a just-restarted, empty replica.

    A restarted member replays its own outbox (so a write's *origin*
    self-recovers immediately); the amnesiac shape is a restarted member
    that only ever received — its settled prefix stays empty until
    anti-entropy refills it, so these tests route the write through a
    different member via ``shard_send(..., preferred=)``.
    """

    def _put_via(self, cluster, member):
        key = key_for(cluster, 0)
        label = cluster.shard_send(
            0, "put", {"key": key, "value": "v"},
            occurs_after=frozenset(), cross_deps=frozenset(),
            session="s", key=key, preferred=member,
        )
        assert label is not None
        cluster.drain()

    def test_contact_skips_restarted_member(self):
        cluster = quiet_cluster(shards=1)
        group = cluster.groups[0]
        first = group.members[0]
        self._put_via(cluster, group.members[1])
        assert cluster.contact(0) == first
        # Restart wipes the member's settled prefix; until anti-entropy
        # refills it, routing barrier reads through it would stall on a
        # replica that remembers nothing.
        group.crash(first)
        group.restart(first)
        contact = cluster.contact(0)
        assert contact is not None
        assert contact != first

    def test_contact_recovers_after_anti_entropy(self):
        cluster = quiet_cluster(shards=1)
        group = cluster.groups[0]
        first = group.members[0]
        self._put_via(cluster, group.members[1])
        group.crash(first)
        group.restart(first)
        settle(cluster)
        assert cluster.contact(0) == first

    def test_all_amnesiac_falls_back_to_first_up(self):
        cluster = quiet_cluster(shards=1)
        group = cluster.groups[0]
        origin = group.members[1]
        self._put_via(cluster, origin)
        # The origin stays down (its replay would self-recover it); the
        # other two come back amnesiac.  A group still needs *a* contact
        # to rebuild through, so the first-up fallback answers.
        group.crash(origin)
        for member in (group.members[0], group.members[2]):
            group.crash(member)
            group.restart(member)
        assert cluster.contact(0) == group.members[0]

    def test_read_members_excludes_amnesiac_when_fresh_exist(self):
        cluster = quiet_cluster(shards=1)
        group = cluster.groups[0]
        self._put_via(cluster, group.members[1])
        group.crash(group.members[0])
        group.restart(group.members[0])
        members = cluster.read_members(0)
        assert group.members[0] not in members
        assert members  # the other two still serve


def reference_pick(cluster, shard, floor):
    """The rule as the three named questions state it."""
    eligible = [
        member for member in cluster.read_members(shard)
        if cluster.covers(shard, member, floor)
    ]
    if not eligible:
        return None
    return eligible[cluster._read_cursor.get(shard, 0) % len(eligible)]


#: (event, shard, member index): what a step of the property does.
EVENTS = (
    "put", "send", "drain", "crash", "wipe", "shrink", "evict", "rejoin",
    "skip", "transfer", "barrier", "move", "repair",
)


def apply_event(cluster, step: int, event: str, shard: int, index: int):
    """One event; a precondition that does not hold makes it a no-op."""
    group = cluster.groups[shard]
    member = group.members[index]
    stack = group.stacks[member]
    others = [m for m in group.members if m != member]
    key = key_for(cluster, shard, salt=index)
    if event == "put":
        # Left in flight: the next probes see a floor nobody covers.
        cluster.router.session(f"s{index}").put(key, step)
    elif event == "send":
        # Through one chosen origin: the others hold it only by receipt,
        # which is what a restart wipes.
        cluster.shard_send(
            shard, "put", {"key": key, "value": step},
            occurs_after=frozenset(), cross_deps=frozenset(),
            session=None, key=key, preferred=member,
        )
        cluster.drain()
    elif event == "drain":
        cluster.drain()
    elif event == "crash" and not stack.crashed:
        group.crash(member)
    elif event == "wipe":
        if not stack.crashed:
            group.crash(member)
        if member in group.group.view:
            group.restart(member)
    elif event == "shrink" and member in group.group.view:
        group.remove(member)
        cluster.drain()
    elif event == "evict" and member in group.group.view:
        # A false suspicion: the view drops a member that stays up.
        group.propose_with_retry("leave", member)
        cluster.drain()
    elif event == "rejoin" and member not in group.group.view:
        group.rejoin(member)
        cluster.drain()
    elif event == "skip" and not stack.crashed:
        # A gossiped stable frontier: the peers' contiguous prefix of
        # each origin, skip-settled here without delivery.
        donor = set().union(
            *(group.stacks[m]._delivered_ids for m in others)
        )
        for origin in group.members:
            prefix = 0
            while MessageId(origin, prefix) in donor:
                prefix += 1
            stack.note_stable_prefix(origin, prefix)
    elif event == "transfer" and not stack.crashed and not stack.delivered:
        donor = others[0]
        labels = cluster.ledger.labels(shard)
        covered = group.stacks[donor]._delivered_ids & labels
        install_snapshot(
            SimpleNamespace(protocol=stack),
            Snapshot(state={}, covered=frozenset(covered), donor=donor,
                     stable_index=-1),
        )
    elif event == "barrier":
        # A fresh session's read carries no Occurs-After: an amnesiac
        # settles its barrier labels and nothing else.
        cluster.router.session(f"r{step}").read(shards=(shard,))
        cluster.drain()
    elif event == "move" and not cluster.rebalancer.active():
        slot = cluster.shard_map.slot_of(key)
        cluster.rebalancer.move_slot(
            slot, 1 - cluster.shard_map.shard_for_slot(slot)
        )
        cluster.drain()
        cluster.settle(max_rounds=8)
    elif event == "repair":
        for each in cluster.groups.values():
            each.repair_round()
        cluster.drain()


def probe_floors(cluster):
    """(shard, floor) pairs a get could carry, and a few it could not."""
    for shard in cluster.shard_ids:
        labels = sorted(cluster.ledger.labels(shard))
        yield shard, frozenset()
        yield shard, frozenset(labels)
        for label in labels[-3:]:
            yield shard, {label}
    for name in ("s0", "s1", "s2"):
        session = cluster.router.session(name)
        for shard in cluster.shard_ids:
            for salt in range(3):
                # After a move, a moved key's floor carries the handoff.
                floor_shard, _slot, floor = session.read_floor(
                    key_for(cluster, shard, salt=salt)
                )
                yield floor_shard, floor


def assert_same_picks(cluster):
    for shard, floor in probe_floors(cluster):
        expected = reference_pick(cluster, shard, floor)
        cursor = cluster._read_cursor.get(shard, 0)
        misses = cluster.read_misses
        assert cluster.read_replica(shard, floor) == expected, (shard, floor)
        moved = expected is not None
        assert cluster._read_cursor.get(shard, 0) == cursor + moved
        assert cluster.read_misses == misses + (not moved)


STEPS = st.lists(
    st.tuples(
        st.sampled_from(EVENTS),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=8,
)


class TestOnePassEquivalence:
    """``read_replica`` picks what ``read_members`` + ``covers`` pick."""

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(STEPS)
    # Every up member settled nothing but barrier labels.
    @example([("barrier", 0, 0)])
    # One amnesiac among fresh members, then with a barrier label only.
    @example([("send", 0, 1), ("wipe", 0, 0), ("barrier", 0, 0)])
    # Every up member amnesiac: the fallback serves the empty floor.
    @example([("send", 0, 1), ("crash", 0, 1), ("wipe", 0, 0),
              ("wipe", 0, 2)])
    @example([("put", 0, 0), ("drain", 0, 0), ("shrink", 0, 1),
              ("rejoin", 0, 1)])
    @example([("send", 0, 0), ("evict", 0, 1), ("rejoin", 0, 1)])
    @example([("send", 0, 1), ("wipe", 0, 0), ("skip", 0, 0)])
    @example([("send", 0, 1), ("wipe", 0, 0), ("transfer", 0, 0)])
    @example([("put", 0, 0), ("drain", 0, 0), ("move", 0, 0), ("put", 1, 0)])
    def test_same_member_on_the_same_cursor(self, steps):
        cluster = quiet_cluster()
        assert_same_picks(cluster)
        for step, (event, shard, index) in enumerate(steps):
            apply_event(cluster, step, event, shard, index)
            assert_same_picks(cluster)

    def test_the_examples_reach_every_shape(self):
        """Not vacuous: the fallback, a barrier-only member, a skip, a
        transfer and a handoff floor each occur."""
        cluster = quiet_cluster(shards=1)
        group = cluster.groups[0]
        first, origin, third = group.members
        apply_event(cluster, 0, "send", 0, 1)
        apply_event(cluster, 1, "crash", 0, 1)
        for step, index in ((2, 0), (3, 2)):
            apply_event(cluster, step, "wipe", 0, index)
        # All amnesiac: only the fallback pool serves, and only an empty
        # floor.
        assert all(cluster._lagging(0, m) for m in (first, third))
        assert [cluster.read_replica(0, frozenset()) for _ in range(2)] == [
            first, third,
        ]
        (label,) = cluster.ledger.labels(0)
        assert cluster.read_replica(0, {label}) is None
        apply_event(cluster, 4, "barrier", 0, 0)
        barriers = cluster.ledger.labels(0) - {label}
        settled = group.stacks[first]._delivered_ids & cluster.ledger.labels(0)
        assert barriers and settled == barriers
        assert not cluster._lagging(0, first)
        apply_event(cluster, 5, "skip", 0, 2)
        assert group.stacks[third].skipped_stable
        assert_same_picks(cluster)

        cluster = quiet_cluster(shards=1)
        apply_event(cluster, 0, "send", 0, 1)
        apply_event(cluster, 1, "wipe", 0, 0)
        apply_event(cluster, 2, "transfer", 0, 0)
        assert not cluster._lagging(0, cluster.groups[0].members[0])
        assert_same_picks(cluster)

        cluster = quiet_cluster()
        apply_event(cluster, 0, "put", 0, 0)
        apply_event(cluster, 1, "drain", 0, 0)
        key = key_for(cluster, 0)
        apply_event(cluster, 2, "move", 0, 0)
        handoff = cluster.router.handoff_dep(cluster.shard_map.slot_of(key))
        _shard, _slot, floor = cluster.router.session("s0").read_floor(key)
        assert handoff is not None and handoff in floor
        assert_same_picks(cluster)


class TestMeasuredPremise:
    """On a ``get_heavy``-shaped run a floor and a stamp are one label.

    Two sessions on private keys over two shards, pipelined puts and
    gets, one ``drain()`` a cycle: what per-origin vectors would make
    cheaper is a set of at most one label, so ``covers`` is one lookup
    either way and a get's cost is the call structure around it.
    """

    def test_floors_and_stamps_hold_one_label(self):
        cluster = quiet_cluster()
        sessions = [cluster.router.session(f"w{n}") for n in range(2)]
        floors = []
        for session in sessions:
            reference = session.read_floor

            def recorded(key, reference=reference):
                shard, slot, floor = reference(key)
                floors.append(floor)
                return shard, slot, floor

            session.read_floor = recorded
        served = []
        for cycle in range(12):
            for n, session in enumerate(sessions):
                for op in range(8):
                    key = f"w{n}.k{(cycle + op) % 4}"
                    if op % 4 == 0:
                        session.put(key, (cycle, op))
                    else:
                        session.get(key, served.append)
            cluster.drain()
        assert len(served) == 12 * 2 * 6 and None not in served
        assert len(floors) >= len(served)
        assert max(len(floor) for floor in floors) == 1
        for shard in cluster.shard_ids:
            stamps = cluster.ledger.dependencies(shard).values()
            assert stamps and max(len(deps) for deps in stamps) <= 1


class TestSnapshotCacheInvalidation:
    """A read after a slot move folds the moved entry.

    PR 6's snapshot cache needed dropping at every cutover and restart
    for this to hold; the per-shard fold that replaced it is a pure
    function of the cut mask, so there is nothing left to invalidate
    (the class keeps its name for the test id).
    """

    def _populate(self, cluster):
        """One single-shard read per shard, so both shards hold a fold."""
        writer = cluster.router.session("w")
        writer.put(key_for(cluster, 0), "a")
        writer.put(key_for(cluster, 1), "b")
        cluster.drain()
        reader = cluster.router.session("r")
        reader.read(shards=(0,))
        reader.read(shards=(1,))
        settle(cluster)

    def test_post_move_read_serves_moved_value(self):
        # Ground truth: a read issued right after the cutover folds the
        # moved entry, not the pre-move folds `_populate` left behind.
        cluster = quiet_cluster()
        self._populate(cluster)
        key = key_for(cluster, 0)
        session = cluster.router.session("w2")
        session.put(key, "newer")
        cluster.drain()
        cluster.rebalancer.move_slot(cluster.shard_map.slot_of(key), 1)
        settle(cluster)
        reader = cluster.router.session("r2")
        reader.read()
        settle(cluster)
        assert reader.reads[0].value[key] == "newer"
