"""Multi-shard workload generation and replay."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.shard import ShardMap, ShardedCluster
from repro.workload import (
    ScheduledRequest,
    WorkloadDriver,
    sharded_schedule,
)

SHARD_MAP = ShardMap(3, num_slots=16)


def sample_schedule(seed: int = 0, **overrides):
    config = dict(
        sessions=3, ops_per_session=6, cross_fraction=0.4, read_fraction=0.25
    )
    config.update(overrides)
    return sharded_schedule(SHARD_MAP, rng=random.Random(seed), **config)


class TestGenerator:
    def test_deterministic_per_seed(self):
        assert sample_schedule(seed=2) == sample_schedule(seed=2)
        assert sample_schedule(seed=2) != sample_schedule(seed=3)

    def test_every_request_names_a_session(self):
        schedule = sample_schedule()
        assert len(schedule) == 18
        assert {r.session for r in schedule} == {"sess0", "sess1", "sess2"}

    def test_sessions_interleave_but_stay_ordered(self):
        schedule = sample_schedule()
        assert [r.time for r in schedule] == sorted(r.time for r in schedule)
        for name in ("sess0", "sess1", "sess2"):
            times = [r.time for r in schedule if r.session == name]
            assert times == sorted(times)
        # Round-robin dealt arrivals: no session owns a contiguous block.
        first_session = schedule[0].session
        assert any(r.session != first_session for r in schedule[:4])

    def test_put_keys_route_to_their_member_shard(self):
        schedule = sample_schedule(cross_fraction=1.0, read_fraction=0.0)
        for request in schedule:
            assert request.operation == "put"
            shard = SHARD_MAP.shard_of(request.payload["key"])
            assert request.member == f"shard{shard}"

    def test_zero_cross_fraction_pins_sessions_home(self):
        schedule = sample_schedule(cross_fraction=0.0, read_fraction=0.0)
        for request in schedule:
            number = int(request.session.removeprefix("sess"))
            home = number % SHARD_MAP.num_shards
            assert SHARD_MAP.shard_of(request.payload["key"]) == home

    def test_reads_touch_two_sorted_shards(self):
        schedule = sample_schedule(read_fraction=1.0)
        for request in schedule:
            assert request.operation == "read"
            touched = request.payload["shards"]
            assert len(touched) == 2 and touched == sorted(touched)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_schedule(sessions=0)
        with pytest.raises(ConfigurationError):
            sample_schedule(cross_fraction=2.0)
        with pytest.raises(ConfigurationError):
            sample_schedule(read_fraction=-0.5)


class TestReplay:
    def test_schedule_drives_a_sharded_cluster_deterministically(self):
        cluster_map = ShardedCluster(shards=2, members_per_shard=3).shard_map
        schedule = sharded_schedule(
            cluster_map, sessions=2, ops_per_session=5,
            rng=random.Random(4), cross_fraction=0.5, read_fraction=0.2,
        )

        def run(sched):
            cluster = ShardedCluster(shards=2, members_per_shard=3, seed=6)

            def submit(session, operation, payload):
                target = cluster.router.session(session)
                if operation == "put":
                    target.put(payload["key"], payload["value"])
                else:
                    target.read(payload["shards"])

            for request in sched:
                cluster.scheduler.call_at(
                    request.time, submit,
                    request.session, request.operation, request.payload,
                )
            cluster.drain()
            violations, _rounds = cluster.settle()
            assert violations == []
            assert cluster.check_invariants() == []
            return (
                cluster.ledger.issue_order,
                [read.value for read in cluster.ledger.barrier_reads],
            )

        assert run(schedule) == run(list(schedule))

    def test_workload_driver_accepts_sharded_requests(self):
        # The generic driver still works: session rides in the payload
        # closure via request introspection.
        calls = []
        schedule = sample_schedule(seed=1, sessions=2, ops_per_session=3)

        class FakeScheduler:
            def call_at(self, time, fn, *args):
                calls.append((time, fn, args))

        driver = WorkloadDriver(
            FakeScheduler(),
            lambda member, operation, payload: None,
            schedule,
        )
        assert len(calls) == len(schedule)
        assert driver.issued == []
