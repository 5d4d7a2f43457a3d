"""Replica-read plumbing: coverage gate, per-key index, amnesia, caches.

The session layer's read-anywhere routing stands on five cluster
primitives — ``covers`` (the eligibility gate), ``member_read`` (the
per-member LWW fold), ``read_members`` (who may serve), ``read_replica``
(who serves next), and the ``key_writes`` index they walk — plus two
regressions fixed alongside them:
``contact`` must not pick a just-restarted amnesiac, and the barrier
snapshot cache must be dropped on rebalance cutover and member restart.
"""

from __future__ import annotations

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
