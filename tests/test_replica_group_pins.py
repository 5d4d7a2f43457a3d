"""Pins for the ``ReplicaGroup`` / ``ChaosCluster`` / ``ShardedCluster`` split.

Three things a refactor of these classes must not move, checkable from
``pytest``: what a seeded campaign does (literals captured at the commit
before the split, identical under every ``PYTHONHASHSEED`` tried), which
options the two cluster constructors take, and that the sharded data
plane is built on the plain replica group — no ground-truth container,
no campaign code, no reach into its privates.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

from repro.chaos import ChaosCluster, random_campaign
from repro.group.replica_group import ReplicaGroup
from repro.shard import ShardedCluster, sharded_campaign

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

MEMBERS = ("n0", "n1", "n2", "n3")

#: (protocol, overlap) -> what ``repro chaos --seed 1`` does, field by
#: field: sends, skipped, crashes, restarts, settle rounds, sim clock,
#: repair metrics.
CHAOS_SEED_1 = {
    ("osend", False): (19, 5, 2, 2, 1, 106.553118, {
        "suspicions": 3.0, "suspicion_delay_mean": 6.18,
        "suspicion_delay_max": 6.18, "removals_proposed": 1.0,
        "flushes": 12.0, "flush_duration_mean": 2.138993,
        "flush_duration_max": 6.309213,
    }),
    ("cbcast", False): (23, 1, 2, 2, 0, 102.203637, {
        "suspicions": 5.0, "suspicion_delay_mean": 18.308,
        "suspicion_delay_max": 49.32, "removals_proposed": 3.0,
        "flushes": 24.0, "flush_duration_mean": 1.805399,
        "flush_duration_max": 6.488449,
    }),
    ("sequencer", False): (8, 16, 1, 1, 2, 121.862324, {
        "suspicions": 4.0, "suspicion_delay_mean": 17.445,
        "suspicion_delay_max": 49.32, "flushes": 7.0,
        "flush_duration_mean": 44.581798, "flush_duration_max": 81.775159,
    }),
    ("cbcast", True): (7, 17, 2, 2, 1, 202.655209, {
        "suspicions": 5.0, "suspicion_delay_mean": 7.29,
        "suspicion_delay_max": 7.55, "removals_proposed": 1.0,
        "flushes": 19.0, "flush_duration_mean": 3.088098,
        "flush_duration_max": 20.875652,
    }),
}

#: (protocol, seed, overlap) -> the same fields for the four campaigns of
#: ``make chaos-quick`` that used to read differently from one
#: ``PYTHONHASHSEED`` to the next (`RecoveryAgent._scan` walked a frozenset
#: of labels); captured once the NACK order was sorted, identical under
#: every hash seed tried.
CHAOS_ONCE_HASH_SEED_DEPENDENT = {
    ("osend", 2, False): (16, 8, 2, 2, 0, 129.549086, {
        "suspicions": 3.0, "suspicion_delay_mean": 7.51,
        "suspicion_delay_max": 7.51, "removals_proposed": 2.0,
        "flushes": 13.0, "flush_duration_mean": 1.788656,
        "flush_duration_max": 11.943242,
    }),
    ("osend", 1, True): (7, 17, 2, 2, 2, 222.466071, {
        "suspicions": 5.0, "suspicion_delay_mean": 7.29,
        "suspicion_delay_max": 7.55, "removals_proposed": 1.0,
        "flushes": 14.0, "flush_duration_mean": 23.158633,
        "flush_duration_max": 157.724744,
    }),
    ("lamport_total", 1, True): (9, 15, 2, 2, 3, 131.825356, {
        "suspicions": 5.0, "suspicion_delay_mean": 6.79,
        "suspicion_delay_max": 7.55, "removals_proposed": 1.0,
        "flushes": 12.0, "flush_duration_mean": 30.285067,
        "flush_duration_max": 108.618097,
    }),
    ("lamport_total", 2, True): (9, 15, 2, 2, 4, 189.762517, {
        "suspicions": 5.0, "suspicion_delay_mean": 7.25,
        "suspicion_delay_max": 7.39, "removals_proposed": 1.0,
        "flushes": 12.0, "flush_duration_mean": 30.344621,
        "flush_duration_max": 100.117098,
    }),
}

#: seed -> what ``repro shard --seed <seed>`` does: ops, skipped, reads,
#: failed reads, moves, crashes, restarts, ledger size, settle rounds,
#: sim clock.
SHARD = {
    0: (33, 0, 8, 0, 1, 1, 1, 49, 0, 49.474487),
    1: (35, 0, 6, 0, 1, 1, 1, 47, 1, 155.175849),
}


class TestDeterminism:
    @staticmethod
    def check_chaos(protocol, seed, overlap, expected):
        cluster = ChaosCluster(
            protocol=protocol, members=MEMBERS, seed=seed, overlap=overlap
        )
        result = cluster.run_campaign(
            random_campaign(MEMBERS, seed=seed, overlap=overlap)
        )
        assert result.ok
        *counts, sim_time, repair = expected
        assert [
            result.sends, result.sends_skipped, result.crashes,
            result.restarts, result.settle_rounds,
        ] == counts
        assert result.data_messages == result.sends
        assert result.sim_time == pytest.approx(sim_time, abs=1e-5)
        assert result.repair == pytest.approx(repair, abs=1e-5)

    @pytest.mark.parametrize("protocol,overlap", sorted(CHAOS_SEED_1))
    def test_chaos_campaign_matches_the_parent(self, protocol, overlap):
        self.check_chaos(protocol, 1, overlap, CHAOS_SEED_1[protocol, overlap])

    @pytest.mark.parametrize(
        "protocol,seed,overlap", sorted(CHAOS_ONCE_HASH_SEED_DEPENDENT)
    )
    def test_once_hash_seed_dependent_campaign(self, protocol, seed, overlap):
        self.check_chaos(
            protocol, seed, overlap,
            CHAOS_ONCE_HASH_SEED_DEPENDENT[protocol, seed, overlap],
        )

    @pytest.mark.parametrize("seed", sorted(SHARD))
    def test_sharded_campaign_matches_the_parent(self, seed):
        cluster = ShardedCluster(shards=3, members_per_shard=3, seed=seed)
        result = cluster.run_campaign(sharded_campaign(
            cluster.shard_map,
            {s: g.members for s, g in cluster.groups.items()},
            seed=seed,
            ops_per_session=10,
        ))
        assert result.ok
        *counts, sim_time = SHARD[seed]
        assert [
            result.ops, result.ops_skipped, result.reads,
            result.reads_failed, result.rebalances, result.crashes,
            result.restarts, result.data_messages, result.settle_rounds,
        ] == counts
        assert result.sim_time == pytest.approx(sim_time, abs=1e-5)


class TestOptionSurface:
    @staticmethod
    def parameters(cls):
        signature = inspect.signature(cls.__init__)
        return [
            (name, parameter.kind)
            for name, parameter in signature.parameters.items()
        ][1:]

    def test_sharded_cluster_options(self):
        positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert self.parameters(ShardedCluster) == [
            ("shards", positional),
            ("members_per_shard", positional),
            ("seed", positional),
            ("hop_events", inspect.Parameter.KEYWORD_ONLY),
        ]

    @pytest.mark.parametrize("cls", [ChaosCluster, ReplicaGroup])
    def test_group_options(self, cls):
        assert [name for name, _kind in self.parameters(cls)] == [
            "protocol", "members", "seed", "overlap", "auto_membership",
            "scheduler", "hop_events",
        ]


class TestLayering:
    def test_shards_are_plain_replica_groups(self):
        cluster = ShardedCluster(shards=2, members_per_shard=3, seed=0)
        for group in cluster.groups.values():
            assert type(group) is ReplicaGroup
            for name in (
                "app_send", "data_labels", "dependencies", "audience",
                "run_campaign", "monitor", "check_invariants",
            ):
                assert not hasattr(group, name), name

    def test_no_reach_into_a_groups_privates(self):
        reach_in = re.compile(r"group\._[a-z]|groups\[[^]]*\]\._")
        offenders = [
            f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for package in ("shard", "serve")
            for path in sorted((SRC / package).glob("*.py"))
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            )
            if reach_in.search(line)
        ]
        assert offenders == []
