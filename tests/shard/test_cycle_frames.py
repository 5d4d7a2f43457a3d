"""A batch cycle leaves as one frame per (sender, destination).

`ShardedCluster.shard_send` corks its group's network whenever it is
called between two drives, so back-to-back puts followed by one
``drain()`` — a serving cycle, an example, a test — reach every replica
in send order, in one hop each.  Sends issued from inside a drive go out
hop by hop as before (which is what keeps the seeded campaigns of
``tests/test_replica_group_pins.py`` where they were).
"""

from __future__ import annotations

import pytest

from repro.shard.cluster import ShardedCluster

SESSIONS = 2
DEPTH = 32


def build(seed: int = 0) -> ShardedCluster:
    return ShardedCluster(
        shards=2, members_per_shard=3, seed=seed, hop_events="off"
    )


def stacks(cluster):
    return [
        stack
        for group in cluster.groups.values()
        for stack in group.stacks.values()
    ]


def issue_cycle(cluster, cycle: int, keys: int = 10**9) -> None:
    for number in range(SESSIONS):
        session = cluster.router.session(f"s{number}")
        for op in range(DEPTH):
            index = cycle * DEPTH + op
            session.put(f"k{number}-{index % keys}", index)


class TestExactCounts:
    """The packing cannot silently fall off: both counts repeat exactly."""

    def test_a_full_cycle_is_a_handful_of_events(self):
        cluster = build()
        issue_cycle(cluster, 0)
        before = cluster.scheduler.events_processed
        cluster.drain()
        # Per shard: the flush, then one frame to each of three members
        # (the parent fired 198: 64 puts x 3 hops, plus six scan timers).
        assert cluster.scheduler.events_processed - before == 8
        # Every arrival found its ancestors delivered (the parent: up to 26).
        assert [stack.max_holdback for stack in stacks(cluster)] == [1] * 6
        for group in cluster.groups.values():
            assert group.network.frames_sent == 3
        assert sum(
            group.network.hops_sent for group in cluster.groups.values()
        ) == SESSIONS * DEPTH * 3
        assert all(
            stack.delivered_count == stack.predicate_evaluations
            for stack in stacks(cluster)
        )

    def test_a_cycle_of_one_costs_one_event_more_than_a_bare_hop(self):
        cluster = build()
        cluster.router.session("s").put("k", 0)
        before = cluster.scheduler.events_processed
        cluster.drain()
        assert cluster.scheduler.events_processed - before == 3 + 1


class TestAFrameOfOneIsTheOrdinaryHop:
    def delivery_times(self, cluster):
        return {
            stack.entity_id: [
                (record.time, record.msg_id) for record in stack.delivery_log
            ]
            for stack in stacks(cluster)
        }

    def test_depth_one_arrivals_match_the_uncorked_path(self):
        corked, plain = build(seed=3), build(seed=3)
        for index in range(4):
            corked.router.session("s").put(f"k{index}", index)
            corked.drain()
            # Issued from inside the drive: not corked (the parent's path).
            plain.scheduler.call_now(
                plain.router.session("s").put, f"k{index}", index
            )
            plain.drain()
        assert self.delivery_times(corked) == self.delivery_times(plain)
        # Measured at the parent commit, same seed and sequence.
        assert corked.scheduler.now == pytest.approx(4.741912632600908)
        times = self.delivery_times(corked)
        assert [round(time, 6) for time, _label in times["s1n2"]] == [
            0.227374, 1.850273, 2.831032, 3.565139,
        ]
        for group in corked.groups.values():
            assert group.network.frames_sent == group.network.hops_sent


class TestNothingStaysParked:
    @pytest.mark.parametrize("drive", ["cluster", "group", "scheduler"])
    def test_whoever_drives_next_flushes_first(self, drive):
        cluster = build()
        session = cluster.router.session("s")
        labels = []
        session.put("k", 1, on_issued=labels.append)
        shard = cluster.ledger.shard_of(labels[0])
        group = cluster.groups[shard]
        assert not any(stack.delivered_count for stack in group.stacks.values())
        if drive == "cluster":
            cluster.drain()
        elif drive == "group":
            group.drain()
        else:
            cluster.scheduler.run()
        assert all(
            stack.has_delivered(labels[0]) for stack in group.stacks.values()
        )

    def test_sends_inside_a_drive_are_not_corked(self):
        cluster = build()
        session = cluster.router.session("s")
        for index in range(8):
            cluster.scheduler.call_now(session.put, "k", index)
        cluster.drain()
        sent = [
            (group.network.frames_sent, group.network.hops_sent)
            for group in cluster.groups.values()
        ]
        assert sorted(sent) == [(0, 0), (24, 24)]


class TestCrashes:
    def test_source_crashed_before_the_flush_replays_at_restart(self):
        cluster = build()
        session = cluster.router.session("s")
        labels = []
        for index in range(6):
            session.put("k", index, on_issued=labels.append)
        shard = cluster.ledger.shard_of(labels[0])
        group = cluster.groups[shard]
        sender = labels[0].sender
        group.crash(sender)
        cluster.drain()
        # Nothing left the crashed sender: its frames were never sent.
        assert group.network.frames_sent == 0
        assert not any(
            stack.has_delivered(label)
            for stack in group.stacks.values()
            for label in labels
        )
        group.restart(sender)  # the outbox replays what was parked
        cluster.drain()
        violations, _rounds = cluster.settle()
        assert violations == []
        for stack in group.stacks.values():
            assert [l for l in stack.delivered if l in set(labels)] == labels
        assert cluster.check_invariants() == []

    def test_destination_crashed_in_flight_loses_the_frame_and_heals(self):
        cluster = build()
        session = cluster.router.session("s")
        labels = []
        for index in range(6):
            session.put("k", index, on_issued=labels.append)
        shard = cluster.ledger.shard_of(labels[0])
        group = cluster.groups[shard]
        victim = next(m for m in group.members if m != labels[0].sender)
        cluster.scheduler.call_at(0.1, group.crash, victim)
        cluster.drain()
        network = group.network
        assert network.hops_dropped == len(labels)
        assert group.stacks[victim].delivered_count == 0
        group.restart(victim)
        violations, _rounds = cluster.settle()
        assert violations == []
        assert all(group.stacks[victim].has_delivered(l) for l in labels)
        assert cluster.check_invariants() == []


class TestBurstLoss:
    def test_lossy_duplicating_cycles_with_a_crash_settle_clean(self):
        """A lost frame is a burst of NACKs; recovery must still heal it."""
        cluster = build(seed=1)
        for group in cluster.groups.values():
            group.set_loss(0.3)
            group.set_duplicate(0.2)
        for cycle in range(12):
            if cycle == 4:
                cluster.groups[0].crash("s0n1")
            if cycle == 8:
                cluster.groups[0].restart("s0n1")
            issue_cycle(cluster, cycle, keys=48)
            cluster.drain()
        assert len(cluster.ledger.ops) == 12 * SESSIONS * DEPTH
        for group in cluster.groups.values():
            network = group.network
            assert network.hops_dropped > 0
            assert network.frames_sent < network.hops_sent
            group.clear_faults()
        violations, _rounds = cluster.settle()
        assert violations == []
        assert cluster.check_invariants() == []
