"""Pins for the ``ReplicaGroup`` / ``ChaosCluster`` / ``ShardedCluster`` split.

Three things a refactor of these classes must not move, checkable from
``pytest``: what a seeded campaign does (literals captured at the commit
before the split, identical under every ``PYTHONHASHSEED`` tried; a
change that moves them on purpose re-captures them with
``tests/chaos/capture_pins.py`` under two hash seeds), which
options the two cluster constructors take, and that the sharded data
plane is built on the plain replica group — no ground-truth container,
no campaign code, no reach into its privates.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro.broadcast.base import BroadcastProtocol
from repro.broadcast.gc import StabilityTracker
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import RecoveryAgent
from repro.chaos import ChaosCluster, random_campaign
from repro.chaos.cluster import CHAOS_PROTOCOLS
from repro.chaos.wire import run_wire_campaign
from repro.core.frontend import FrontEndManager
from repro.group.auto_membership import MembershipManager, manage_membership
from repro.group.membership import GroupMembership
from repro.group.replica_group import ReplicaGroup
from repro.group.view_sync import ViewSyncAgent
from repro.serve import ServeServer
from repro.serve.client import ServeClient
from repro.shard import ShardedCluster, sharded_campaign

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

MEMBERS = ("n0", "n1", "n2", "n3")

#: (protocol, overlap) -> what ``repro chaos --seed 1`` does, field by
#: field: sends, skipped, crashes, restarts, settle rounds, sim clock,
#: repair metrics.
CHAOS_SEED_1 = {
    ("osend", False): (19, 5, 2, 2, 1, 106.070854, {
        "suspicions": 3.0, "suspicion_delay_mean": 6.18,
        "suspicion_delay_max": 6.18, "removals_proposed": 1.0,
        "flushes": 12.0, "flush_duration_mean": 2.138993,
        "flush_duration_max": 6.309213,
    }),
    ("cbcast", False): (23, 1, 2, 2, 1, 162.076057, {
        "suspicions": 5.0, "suspicion_delay_mean": 18.308,
        "suspicion_delay_max": 49.32, "removals_proposed": 3.0,
        "flushes": 24.0, "flush_duration_mean": 1.765771,
        "flush_duration_max": 6.696572,
    }),
    ("sequencer", False): (8, 16, 1, 1, 4, 203.161385, {
        "suspicions": 4.0, "suspicion_delay_mean": 17.445,
        "suspicion_delay_max": 49.32, "flushes": 7.0,
        "flush_duration_mean": 90.625846, "flush_duration_max": 162.17854,
    }),
    ("cbcast", True): (7, 17, 2, 2, 2, 205.828631, {
        "suspicions": 5.0, "suspicion_delay_mean": 7.29,
        "suspicion_delay_max": 7.55, "removals_proposed": 1.0,
        "flushes": 20.0, "flush_duration_mean": 2.946527,
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
    ("osend", 1, True): (7, 17, 2, 2, 2, 181.931337, {
        "suspicions": 5.0, "suspicion_delay_mean": 7.29,
        "suspicion_delay_max": 7.55, "removals_proposed": 1.0,
        "flushes": 10.0, "flush_duration_mean": 46.809954,
        "flush_duration_max": 157.724744,
    }),
    ("lamport_total", 1, True): (9, 15, 2, 2, 3, 131.976058, {
        "suspicions": 5.0, "suspicion_delay_mean": 6.79,
        "suspicion_delay_max": 7.55, "removals_proposed": 1.0,
        "flushes": 12.0, "flush_duration_mean": 30.440849,
        "flush_duration_max": 108.980401,
    }),
    ("lamport_total", 2, True): (9, 15, 2, 2, 3, 131.534673, {
        "suspicions": 5.0, "suspicion_delay_mean": 7.25,
        "suspicion_delay_max": 7.39, "removals_proposed": 1.0,
        "flushes": 12.0, "flush_duration_mean": 30.664136,
        "flush_duration_max": 100.876248,
    }),
}

#: (protocol, seed, overlap) -> the same fields for the other twenty of
#: the 28 single-group campaigns ``make chaos-quick`` runs (seven
#: protocols x seeds 1, 2 x overlap off / on), captured at PR 22 and
#: identical under ``PYTHONHASHSEED`` 0 and 7.
CHAOS_QUICK_REST = {
    ("cbcast", 2, False): (16, 8, 2, 2, 0, 105.914822, {
        "suspicions": 3.0, "suspicion_delay_mean": 6.676667,
        "suspicion_delay_max": 7.51, "removals_proposed": 2.0,
        "flushes": 13.0, "flush_duration_mean": 1.852125,
        "flush_duration_max": 11.943242,
    }),
    ("cbcast", 2, True): (9, 15, 2, 2, 1, 119.612648, {
        "suspicions": 1.0, "suspicion_delay_mean": 4.54,
        "suspicion_delay_max": 4.54, "removals_proposed": 2.0,
        "flushes": 10.0, "flush_duration_mean": 10.19898,
        "flush_duration_max": 78.464387,
    }),
    ("fifo", 1, False): (20, 4, 2, 2, 1, 101.199397, {
        "suspicions": 4.0, "suspicion_delay_mean": 16.965,
        "suspicion_delay_max": 49.32, "removals_proposed": 1.0,
        "flushes": 12.0, "flush_duration_mean": 1.505854,
        "flush_duration_max": 7.739274,
    }),
    ("fifo", 1, True): (8, 16, 2, 2, 3, 258.250337, {
        "suspicions": 2.0, "suspicion_delay_mean": 6.9,
        "suspicion_delay_max": 6.9, "removals_proposed": 1.0, "flushes": 8.0,
        "flush_duration_mean": 58.580901, "flush_duration_max": 160.034784,
    }),
    ("fifo", 2, False): (16, 8, 2, 2, 0, 107.549086, {
        "suspicions": 3.0, "suspicion_delay_mean": 7.51,
        "suspicion_delay_max": 7.51, "removals_proposed": 2.0,
        "flushes": 13.0, "flush_duration_mean": 1.788656,
        "flush_duration_max": 11.943242,
    }),
    ("fifo", 2, True): (9, 15, 2, 2, 1, 122.457942, {
        "suspicions": 1.0, "suspicion_delay_mean": 4.54,
        "suspicion_delay_max": 4.54, "removals_proposed": 2.0,
        "flushes": 10.0, "flush_duration_mean": 10.274299,
        "flush_duration_max": 79.217573,
    }),
    # Moved when the stability tracker began to count Lamport acks: the
    # digests' stable frontiers now advance, and each advance reaches the
    # view-sync agent's stable-skip hook, which re-checks flush progress.
    # (These and most others moved again when the settled prefix joined
    # the digest: a repair round sends one frame fewer a member, which
    # shifts every later latency draw.)
    ("lamport_total", 1, False): (7, 17, 1, 1, 3, 124.323601, {
        "suspicions": 3.0, "suspicion_delay_mean": 6.82,
        "suspicion_delay_max": 6.82, "removals_proposed": 1.0,
        "flushes": 12.0, "flush_duration_mean": 26.346412,
        "flush_duration_max": 81.544288,
    }),
    ("lamport_total", 2, False): (12, 12, 1, 1, 3, 210.550759, {
        "suspicions": 3.0, "suspicion_delay_mean": 5.883333,
        "suspicion_delay_max": 7.55, "flushes": 7.0,
        "flush_duration_mean": 76.995996, "flush_duration_max": 153.401626,
    }),
    ("osend", 2, True): (10, 14, 2, 2, 0, 52.364974, {
        "suspicions": 2.0, "suspicion_delay_mean": 7.04,
        "suspicion_delay_max": 7.04, "removals_proposed": 2.0,
        "flushes": 10.0, "flush_duration_mean": 3.770379,
        "flush_duration_max": 9.079323,
    }),
    ("rst", 1, False): (20, 4, 2, 2, 2, 257.592556, {
        "suspicions": 6.0, "suspicion_delay_mean": 19.203333,
        "suspicion_delay_max": 49.32, "removals_proposed": 3.0,
        "flushes": 34.0, "flush_duration_mean": 1.905896,
        "flush_duration_max": 9.546257,
    }),
    ("rst", 1, True): (7, 17, 2, 2, 2, 205.828631, {
        "suspicions": 5.0, "suspicion_delay_mean": 7.29,
        "suspicion_delay_max": 7.55, "removals_proposed": 1.0,
        "flushes": 20.0, "flush_duration_mean": 2.946527,
        "flush_duration_max": 20.875652,
    }),
    ("rst", 2, False): (16, 8, 2, 2, 1, 110.995930, {
        "suspicions": 3.0, "suspicion_delay_mean": 7.51,
        "suspicion_delay_max": 7.51, "removals_proposed": 2.0,
        "flushes": 13.0, "flush_duration_mean": 1.813514,
        "flush_duration_max": 11.943242,
    }),
    ("rst", 2, True): (9, 15, 2, 2, 1, 119.401304, {
        "suspicions": 1.0, "suspicion_delay_mean": 4.54,
        "suspicion_delay_max": 4.54, "removals_proposed": 2.0,
        "flushes": 10.0, "flush_duration_mean": 10.19898,
        "flush_duration_max": 78.464387,
    }),
    ("sequencer", 1, True): (7, 17, 2, 2, 2, 127.719250, {
        "suspicions": 6.0, "suspicion_delay_mean": 8.058333,
        "suspicion_delay_max": 14.4, "removals_proposed": 2.0,
        "flushes": 14.0, "flush_duration_mean": 26.919874,
        "flush_duration_max": 101.915957, "handoffs": 1.0,
    }),
    ("sequencer", 2, False): (9, 15, 1, 1, 3, 216.589625, {
        "suspicions": 3.0, "suspicion_delay_mean": 7.55,
        "suspicion_delay_max": 7.55, "flushes": 7.0,
        "flush_duration_mean": 89.08819, "flush_duration_max": 159.545413,
    }),
    ("sequencer", 2, True): (9, 15, 2, 2, 2, 266.560459, {
        "suspicions": 5.0, "suspicion_delay_mean": 7.25,
        "suspicion_delay_max": 7.39, "removals_proposed": 2.0,
        "flushes": 13.0, "flush_duration_mean": 53.355384,
        "flush_duration_max": 220.144133,
    }),
    ("unordered", 1, False): (17, 7, 2, 2, 2, 221.547287, {
        "suspicions": 4.0, "suspicion_delay_mean": 16.965,
        "suspicion_delay_max": 49.32, "removals_proposed": 1.0,
        "flushes": 12.0, "flush_duration_mean": 36.551993,
        "flush_duration_max": 147.34215,
    }),
    ("unordered", 1, True): (7, 17, 2, 2, 2, 258.929288, {
        "suspicions": 5.0, "suspicion_delay_mean": 7.29,
        "suspicion_delay_max": 7.55, "removals_proposed": 1.0,
        "flushes": 15.0, "flush_duration_mean": 36.641574,
        "flush_duration_max": 158.436223,
    }),
    ("unordered", 2, False): (16, 8, 2, 2, 1, 110.513875, {
        "suspicions": 1.0, "suspicion_delay_mean": 5.01,
        "suspicion_delay_max": 5.01, "removals_proposed": 2.0,
        "flushes": 12.0, "flush_duration_mean": 1.01741,
        "flush_duration_max": 1.621036,
    }),
    ("unordered", 2, True): (8, 16, 2, 2, 2, 261.519762, {
        "suspicions": 1.0, "suspicion_delay_mean": 4.54,
        "suspicion_delay_max": 4.54, "removals_proposed": 2.0, "flushes": 8.0,
        "flush_duration_mean": 48.881662, "flush_duration_max": 161.63165,
    }),
}

#: seed -> what ``repro shard --seed <seed>`` does: ops, skipped, reads,
#: failed reads, moves, crashes, restarts, ledger size, settle rounds,
#: sim clock.  Seed 0's move once carried one of its slot's two writes
#: (a put still in flight to the source contact was left behind) and
#: ended at 49.474487; since the move's barrier is fenced after the
#: slot's issued writes it carries both.
SHARD = {
    0: (33, 0, 8, 0, 1, 1, 1, 49, 0, 49.449754),
    1: (35, 0, 6, 0, 1, 1, 1, 47, 1, 155.273359),
}

#: seed -> the same fields for ``repro shard --shards 2 --seed <seed>``:
#: the two campaigns of ``make chaos-quick``'s two-shard run whose reads
#: were not causally closed before PR 22 (one supplemental round each
#: now), captured after the fix.
SHARD_TWO = {
    12: (34, 0, 7, 0, 1, 1, 1, 51, 0, 61.834211),
    17: (34, 0, 7, 0, 1, 1, 1, 49, 1, 53.947616),
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

    @pytest.mark.parametrize("protocol,seed,overlap", sorted(CHAOS_QUICK_REST))
    def test_rest_of_chaos_quick(self, protocol, seed, overlap):
        self.check_chaos(
            protocol, seed, overlap, CHAOS_QUICK_REST[protocol, seed, overlap]
        )

    def test_every_chaos_quick_campaign_is_pinned(self):
        pinned = (
            {(protocol, 1, overlap) for protocol, overlap in CHAOS_SEED_1}
            | set(CHAOS_ONCE_HASH_SEED_DEPENDENT)
            | set(CHAOS_QUICK_REST)
        )
        assert pinned == {
            (protocol, seed, overlap)
            for protocol in CHAOS_PROTOCOLS
            for seed in (1, 2)
            for overlap in (False, True)
        }
        assert len(pinned) == 28

    @staticmethod
    def check_shard(shards, seed, expected):
        cluster = ShardedCluster(shards=shards, members_per_shard=3, seed=seed)
        result = cluster.run_campaign(sharded_campaign(
            cluster.shard_map,
            {s: g.members for s, g in cluster.groups.items()},
            seed=seed,
            ops_per_session=10,
        ))
        assert result.ok
        *counts, sim_time = expected
        assert [
            result.ops, result.ops_skipped, result.reads,
            result.reads_failed, result.rebalances, result.crashes,
            result.restarts, result.data_messages, result.settle_rounds,
        ] == counts
        assert result.sim_time == pytest.approx(sim_time, abs=1e-5)

    @pytest.mark.parametrize("seed", sorted(SHARD))
    def test_sharded_campaign_matches_the_parent(self, seed):
        self.check_shard(3, seed, SHARD[seed])

    @pytest.mark.parametrize("seed", sorted(SHARD_TWO))
    def test_two_shard_campaign_with_closure_rounds(self, seed):
        self.check_shard(2, seed, SHARD_TWO[seed])


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

    GROUP_OPTIONS = {
        ChaosCluster: (
            "protocol", "members", "seed", "overlap", "auto_membership",
        ),
        ReplicaGroup: (
            "protocol", "members", "seed", "overlap", "auto_membership",
            "scheduler",
        ),
    }

    @pytest.mark.parametrize("cls", [ChaosCluster, ReplicaGroup])
    def test_group_options(self, cls):
        assert tuple(
            name for name, _kind in self.parameters(cls)
        ) == self.GROUP_OPTIONS[cls]

    def test_replica_group_has_no_restart_hook(self):
        # Its one user was the barrier snapshot cache's invalidation.
        group = ShardedCluster(shards=1, members_per_shard=3).groups[0]
        assert not hasattr(group, "on_restart")


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

    def test_a_member_registers_two_quiet_delivery_callbacks(self):
        """View sync's and the watchers'; the stability tracker's
        prefixes and the member's frontier are views of the delivery
        log, so neither registers a callback."""
        cluster = ShardedCluster(shards=2, members_per_shard=3, seed=0)
        for group in cluster.groups.values():
            for member, stack in group.stacks.items():
                view_sync, watchers = stack._callbacks
                assert view_sync.__self__ is group.view_syncs[member]
                assert watchers.__qualname__.startswith(
                    "ShardedCluster._watcher_hook."
                )
                assert len(stack._quiet_checks) == 2
        stack = OSendBroadcast("a", GroupMembership(["a", "b"]))
        StabilityTracker(stack)
        assert stack._callbacks == [] and stack._quiet_checks == []

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

    #: What only ``shard/ledger.py`` may touch: the ledger's containers
    #: and the graph's mask API, and the put / migrate payload format.
    LEDGER_STATE = re.compile(
        r"\.ops[\[.]|\.shard_of_label|\.shard_labels|\.label_mask|"
        r"\.write_mask|\.key_writes|\.session_batches|\.cut_folds|"
        r"graph\.(?:past_mask|labels_of|maximal_mask)|"
        r"record\.kind == \"put\"|\[\"entries\"\]"
    )

    def test_only_the_ledger_module_reads_ledger_state(self):
        offenders = [
            f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for package in ("shard", "serve")
            for path in sorted((SRC / package).glob("*.py"))
            if path.name != "ledger.py"
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            )
            if self.LEDGER_STATE.search(line)
        ]
        assert offenders == []
        # Not vacuous: the module that owns the state trips every clause.
        owner = (SRC / "shard" / "ledger.py").read_text()
        for needle in (
            ".ops[", ".key_writes", "graph.past_mask", "graph.labels_of",
            "graph.maximal_mask", 'record.kind == "put"', '["entries"]',
        ):
            assert needle in owner and self.LEDGER_STATE.search(needle)

    def test_the_cluster_owns_no_ledger_container(self):
        cluster = ShardedCluster(shards=1, members_per_shard=2)
        for name in (
            "ops", "shard_of_label", "shard_labels", "label_mask",
            "write_mask", "key_writes", "session_batches", "cut_folds",
            "barrier_reads", "issue_order", "note_session_batch",
        ):
            assert not hasattr(cluster, name), name
        assert cluster.graph is cluster.ledger.graph

    def test_the_server_is_callbacks_not_coroutines(self):
        """Only the lifecycle awaits; every connection, cycle and repair
        step is a synchronous callback (asyncio's Protocol seam)."""
        source = (SRC / "serve" / "server.py").read_text()
        assert re.findall(r"async def (\w+)", source) == [
            "start", "serve_forever", "shutdown",
        ]
        for needle in (
            "asyncio.Event", "ensure_future", "create_task", "asyncio.sleep",
            "StreamReader", "StreamWriter",
        ):
            assert needle not in source, needle

    def test_the_chassis_has_one_delivery_engine(self):
        """The rescan drain is a test-side reference
        (``tests/broadcast/naive_drain.py``), not a mode of the chassis."""
        offenders = [
            f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            )
            if "drain_mode" in line or "_drain_naive" in line
        ]
        assert offenders == []

    @pytest.mark.parametrize("call, removed", [
        (ViewSyncAgent, ("flush_resend_interval", "max_flush_resends")),
        (RecoveryAgent, ("min_hold_age",)),
        (ServeClient, ("op_attempts", "backoff_base", "backoff_cap")),
        (ServeServer, ("cluster",)),
        (ReplicaGroup, ("hop_events",)),
        (ChaosCluster, ("hop_events", "scheduler")),
        (ChaosCluster.run_campaign, ("max_settle_rounds", "check_invariants")),
        (ChaosCluster.settle, ("max_rounds",)),
        (ShardedCluster.run_campaign, (
            "max_settle_rounds", "check_invariants",
        )),
        (random_campaign, ("sends_per_member",)),
        (ReplicaGroup.propose_with_retry, ("attempts",)),
        (ReplicaGroup.rejoin, ("attempts",)),
        (MembershipManager, ("fallback_delay",)),
        (manage_membership, ("fallback_delay",)),
        (run_wire_campaign, ("shards", "members_per_shard")),
        (BroadcastProtocol.on_deliver, ("run",)),
        (FrontEndManager, ("track_remote",)),
    ])
    def test_options_no_caller_set_are_constants(self, call, removed):
        parameters = inspect.signature(call).parameters
        for name in removed:
            assert name not in parameters, name

    @staticmethod
    def method_assignments(source: str):
        """``obj.name = f`` or ``setattr(obj, name, f)`` in a function, where
        ``f`` is a lambda or a function the module defines that no
        parameter shadows: an instance's method replaced."""
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        tree = ast.parse(source)
        defined = {n.name for n in ast.walk(tree) if isinstance(n, functions)}
        hits = set()
        for scope in (n for n in ast.walk(tree) if isinstance(n, functions)):
            parameters = {
                a.arg for a in ast.walk(scope) if isinstance(a, ast.arg)
            }
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Attribute) for t in node.targets
                ):
                    value = node.value
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "setattr"
                    and len(node.args) == 3
                ):
                    value = node.args[2]
                else:
                    continue
                if isinstance(value, ast.Lambda) or (
                    isinstance(value, ast.Name)
                    and value.id in defined - parameters
                ):
                    hits.add((node.lineno, ast.unparse(node)))
        return sorted(hits)

    def test_no_instance_method_is_assigned(self):
        offenders = [
            f"{path.relative_to(SRC)}:{line}: {text}"
            for path in sorted(SRC.rglob("*.py"))
            for line, text in self.method_assignments(path.read_text())
        ]
        assert offenders == []
        # Not vacuous: the patch this replaced is caught.
        assert self.method_assignments(
            "def attach(protocol):\n"
            "    original = protocol.bcast\n"
            "    def guarded(*args):\n"
            "        return original(*args)\n"
            "    protocol.bcast = guarded\n"
        )
