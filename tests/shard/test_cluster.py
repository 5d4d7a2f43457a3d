"""ShardedCluster plumbing: ledger, validation, watch, projection."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.shard import ShardedCluster
from repro.types import MessageId

from tests.shard.test_router import key_for, quiet_cluster


class TestConstruction:
    def test_groups_are_disjoint_osend_stacks(self):
        cluster = ShardedCluster(shards=3, members_per_shard=2, seed=0)
        members = sorted(cluster.shard_of_member)
        assert members == ["s0n0", "s0n1", "s1n0", "s1n1", "s2n0", "s2n1"]
        assert {cluster.shard_of_member[m] for m in members} == {0, 1, 2}
        schedulers = {id(g.scheduler) for g in cluster.groups.values()}
        assert schedulers == {id(cluster.scheduler)}

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ConfigurationError):
            ShardedCluster(shards=0)


class TestShardSendValidation:
    def test_foreign_occurs_after_rejected(self):
        cluster = quiet_cluster()
        cluster.router.session("s").put(key_for(cluster, 1), "v")
        cluster.drain()
        foreign = cluster.ledger.issue_order[0]  # lives on shard 1
        with pytest.raises(ProtocolError):
            cluster.shard_send(
                0, "put", {"key": "k", "value": "v"},
                occurs_after=frozenset({foreign}),
                cross_deps=frozenset(),
                session="s",
            )

    def test_in_group_cross_deps_rejected(self):
        cluster = quiet_cluster()
        cluster.router.session("s").put(key_for(cluster, 0), "v")
        cluster.drain()
        local = cluster.ledger.issue_order[0]
        with pytest.raises(ProtocolError):
            cluster.shard_send(
                0, "put", {"key": "k", "value": "v"},
                occurs_after=frozenset(),
                cross_deps=frozenset({local}),
                session="s",
            )

    def test_send_returns_none_when_group_down(self):
        cluster = quiet_cluster()
        for member in cluster.groups[0].members:
            cluster.groups[0].crash(member)
        label = cluster.shard_send(
            0, "put", {"key": "k", "value": "v"},
            occurs_after=frozenset(),
            cross_deps=frozenset(),
            session="s",
        )
        assert label is None


class TestWatch:
    def test_watch_fires_on_delivery(self):
        cluster = quiet_cluster()
        label = cluster.shard_send(
            0, "put", {"key": "k0", "value": "v"},
            occurs_after=frozenset(), cross_deps=frozenset(), session="s",
        )
        fired = []
        cluster.watch(label, fired.append)
        assert fired == []
        cluster.drain()
        assert len(fired) == 1
        assert cluster.shard_of_member[fired[0]] == 0

    def test_watch_fires_immediately_when_already_settled(self):
        cluster = quiet_cluster()
        label = cluster.shard_send(
            0, "put", {"key": "k0", "value": "v"},
            occurs_after=frozenset(), cross_deps=frozenset(), session="s",
        )
        cluster.drain()
        fired = []
        cluster.watch(label, fired.append)
        assert len(fired) == 1


class TestCausalUtilities:
    def test_maximal_prunes_dominated_labels(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        key = key_for(cluster, 0)
        session.put(key, "a")
        session.put(key, "b")
        cluster.drain()
        first, second = cluster.ledger.issue_order
        assert cluster.maximal({first, second}) == frozenset({second})

    def test_project_follows_cross_edges(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        session.put(key_for(cluster, 0), "a")
        session.put(key_for(cluster, 1), "b")
        cluster.drain()
        first, second = cluster.ledger.issue_order
        # Projecting the shard-1 label back onto shard 0 must surface the
        # shard-0 ancestor it was stamped with.
        assert cluster.project((second,), 0) == frozenset({first})
        assert cluster.project((second,), 1) == frozenset({second})

    def test_delivered_frontier_is_maximal(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        key = key_for(cluster, 0)
        session.put(key, "a")
        session.put(key, "b")
        cluster.drain()
        _, second = cluster.ledger.issue_order
        contact = cluster.contact(0)
        assert cluster.delivered_frontier(0, contact) == frozenset({second})

    def test_contact_skips_crashed_members(self):
        cluster = quiet_cluster()
        group = cluster.groups[0]
        assert cluster.contact(0) == group.members[0]
        group.crash(group.members[0])
        assert cluster.contact(0) == group.members[1]
        for member in group.members[1:]:
            group.crash(member)
        assert cluster.contact(0) is None


class TestQuiescentAudit:
    def test_clean_run_settles_with_no_violations(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        session.put(key_for(cluster, 0), "a")
        session.put(key_for(cluster, 1), "b")
        session.read()
        cluster.drain()
        violations, rounds = cluster.settle()
        assert violations == []
        assert cluster.converged()
        assert cluster.check_invariants() == []

    def test_unknown_label_watch_raises(self):
        cluster = quiet_cluster()
        with pytest.raises(KeyError):
            cluster.watch(MessageId("ghost", 0), lambda member: None)


class TestPerShardAuditNonVacuity:
    """The per-shard battery is fed from the ledger; planted anomalies in
    one member's delivery log must come back under their own names (the
    cross-shard checker alone would call both `cross-shard-causal`)."""

    @staticmethod
    def two_ordered_puts():
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        key = key_for(cluster, 0)
        session.put(key, "a")
        session.put(key, "b")
        cluster.drain()
        assert cluster.check_invariants() == []
        first, second = cluster.ledger.issue_order
        assert cluster.ledger.ops[second].deps == frozenset({first})
        envelopes = cluster.groups[0].stacks["s0n1"]._delivered_envelopes
        positions = {
            e.msg_id: i for i, e in enumerate(envelopes)
            if e.msg_id in (first, second)
        }
        return cluster, envelopes, positions[first], positions[second]

    def test_planted_swap_is_reported_as_causal_order(self):
        cluster, envelopes, i, j = self.two_ordered_puts()
        envelopes[i], envelopes[j] = envelopes[j], envelopes[i]
        found = {(v.invariant, v.member) for v in cluster.check_invariants()}
        assert ("causal-order", "s0n1") in found

    def test_planted_duplicate_is_reported_as_duplicate_delivery(self):
        cluster, envelopes, i, _j = self.two_ordered_puts()
        envelopes.append(envelopes[i])
        found = {(v.invariant, v.member) for v in cluster.check_invariants()}
        assert ("duplicate-delivery", "s0n1") in found
