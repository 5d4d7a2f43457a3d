"""Slot moves: drain -> transfer -> cutover, and the routing audit."""

from __future__ import annotations

from repro.shard import ShardedCluster, sharded_campaign

from tests.shard.test_router import key_for, quiet_cluster


def settle(cluster: ShardedCluster) -> None:
    cluster.drain()
    violations, _rounds = cluster.settle()
    assert violations == []


class TestMoveSlot:
    def test_move_relocates_keys_and_bumps_version(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        cluster.router.session("s").put(key, "v")
        cluster.drain()
        slot = cluster.shard_map.slot_of(key)
        record = cluster.rebalancer.move_slot(slot, 1)
        settle(cluster)
        assert record.phase == "done"
        assert record.entries == 1
        assert cluster.shard_map.version == 1
        assert cluster.shard_map.shard_of(key) == 1

    def test_migrate_record_carries_moved_labels_as_cross_deps(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        cluster.router.session("s").put(key, "v")
        cluster.drain()
        put_label = cluster.ledger.issue_order[0]
        record = cluster.rebalancer.move_slot(
            cluster.shard_map.slot_of(key), 1
        )
        settle(cluster)
        migrate = cluster.ledger.ops[record.migrate_label]
        assert migrate.kind == "migrate"
        assert migrate.shard == 1
        assert put_label in migrate.cross_deps

    def test_value_survives_the_move(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        cluster.router.session("w").put(key, "carried")
        cluster.drain()
        cluster.rebalancer.move_slot(cluster.shard_map.slot_of(key), 1)
        settle(cluster)
        reader = cluster.router.session("r")
        reader.read()
        settle(cluster)
        assert reader.reads[0].value[key] == "carried"

    def test_a_put_issued_just_before_the_move_reaches_the_new_home(self):
        """Regression: the source barrier was stamped only after what the
        contact had delivered, so a put still in flight to it was left
        out of the snapshot — the migrate record carried ``{}`` and the
        new home served the session ``None``."""
        cluster = ShardedCluster(shards=2, members_per_shard=3)
        session = cluster.router.session("s")
        session.put("k3", "v")
        slot = cluster.shard_map.slot_of("k3")
        source = cluster.shard_map.shard_for_slot(slot)
        record = cluster.rebalancer.move_slot(slot, 1 - source)
        cluster.drain()
        assert record.phase == "done"
        assert cluster.ledger.ops[record.migrate_label].value["entries"] == {
            "k3": "v"
        }
        served = []
        session.get("k3", served.append)
        cluster.drain()
        value, label, _member, shard = served[0]
        assert (value, shard) == ("v", 1 - source)
        assert label == record.migrate_label
        assert cluster.ledger.get_violations() == []

    def test_post_move_writes_route_to_dest_with_handoff(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        cluster.router.session("w").put(key, "old")
        cluster.drain()
        record = cluster.rebalancer.move_slot(
            cluster.shard_map.slot_of(key), 1
        )
        settle(cluster)
        cluster.router.session("other").put(key, "new")
        settle(cluster)
        put = cluster.ledger.ops[cluster.ledger.issue_order[-1]]
        assert put.shard == 1
        assert record.migrate_label in put.deps
        assert cluster.check_invariants() == []

    def test_blocked_session_resumes_onto_dest_after_cutover(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        session = cluster.router.session("s")
        session.put(key, "seed")
        cluster.drain()
        cluster.rebalancer.move_slot(cluster.shard_map.slot_of(key), 1)
        session.put(key, "during-move")
        settle(cluster)
        assert session.idle
        put = cluster.ledger.ops[cluster.ledger.issue_order[-1]]
        assert put.shard == 1
        assert put.value == {"key": key, "value": "during-move"}

    def test_noop_move_completes_without_traffic(self):
        cluster = quiet_cluster()
        slot = cluster.shard_map.slots_of(0)[0]
        record = cluster.rebalancer.move_slot(slot, 0)
        assert record.phase == "done"
        assert cluster.ledger.issue_order == []
        assert cluster.shard_map.version == 0

    def test_move_aborts_when_source_unreachable(self):
        cluster = quiet_cluster()
        for member in cluster.groups[0].members:
            cluster.groups[0].crash(member)
        slot = cluster.shard_map.slots_of(0)[0]
        record = cluster.rebalancer.move_slot(slot, 1)
        cluster.drain()
        assert record.phase == "aborted"
        assert not cluster.router.slot_frozen(slot)
        assert cluster.shard_map.version == 0


class TestRoutingAudit:
    def test_stale_route_after_cutover_is_flagged(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        slot = cluster.shard_map.slot_of(key)
        cluster.rebalancer.move_slot(slot, 1)
        settle(cluster)
        # Bypass the router and write the moved slot on its *old* group.
        cluster.shard_send(
            0,
            "put",
            {"key": key, "value": "stale"},
            occurs_after=frozenset(),
            cross_deps=frozenset(),
            session="rogue",
            key=key,
            slot=slot,
        )
        cluster.drain()
        violations = cluster.ledger.check_routing(cluster.rebalancer.moves)
        assert len(violations) == 1
        assert violations[0].invariant == "shard-routing"


class TestRebalanceUnderChaos:
    def test_rebalance_overlapping_crash_stays_consistent(self):
        """Acceptance: a slot move inside a crash window, fully audited."""
        cluster = ShardedCluster(shards=3, members_per_shard=3, seed=1)
        campaign = sharded_campaign(
            cluster.shard_map,
            {s: g.members for s, g in cluster.groups.items()},
            seed=1,
            sessions=4,
            ops_per_session=10,
            cross_fraction=0.5,
            read_fraction=0.2,
        )
        crash_times = {
            e.time: e.arg[0]
            for e in campaign.events
            if e.action == "crash"
        }
        moves = [e for e in campaign.events if e.action == "rebalance"]
        assert moves and crash_times, "campaign must overlap a move and a crash"
        result = cluster.run_campaign(campaign)
        assert result.ok, [str(v) for v in result.violations]
        assert result.rebalances == 1
        assert result.crashes >= 1
