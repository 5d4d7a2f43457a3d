"""Tests for NACK-based loss recovery."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.cbcast import CbcastBroadcast
from repro.broadcast.fifo import FifoBroadcast
from repro.broadcast.lamport_total import LamportTotalOrder
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import (
    DIGEST_OPERATION,
    RecoveryAgent,
    protect_group,
)
from repro.errors import ConfigurationError
from repro.group.membership import GroupMembership
from repro.group.view_sync import ViewSyncAgent
from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.types import Envelope, Message, MessageId


def lossy_group(protocol_cls, drop: float, seed: int = 0, members=("a", "b", "c")):
    scheduler = Scheduler()
    faults = FaultPlan(drop_probability=drop)
    net = Network(
        scheduler,
        latency=UniformLatency(0.2, 1.5),
        faults=faults,
        rng=RngRegistry(seed),
    )
    membership = GroupMembership(members)
    stacks = {
        m: net.register(protocol_cls(m, membership)) for m in members
    }
    agents = protect_group(stacks, scan_interval=1.0, nack_backoff=2.0)
    return scheduler, net, faults, stacks, agents


class TestRepairPath:
    def test_lost_dependency_is_repaired(self):
        scheduler, net, faults, stacks, agents = lossy_group(OSendBroadcast, 0.0)
        # Lose m1 entirely, then send m2 depending on it.
        faults.drop_probability = 1.0
        m1 = stacks["a"].osend("first")
        scheduler.run()
        faults.drop_probability = 0.0
        m2 = stacks["a"].osend("second", occurs_after=m1)
        scheduler.run()
        for stack in stacks.values():
            assert stack.delivered == [m1, m2]
        assert sum(a.nacks_sent for a in agents.values()) > 0
        assert agents["a"].repairs_sent > 0

    def test_community_repair_when_origin_cannot_answer(self):
        """If the origin's copies to one member keep vanishing, another
        member that holds the envelope repairs it."""
        scheduler, net, faults, stacks, agents = lossy_group(OSendBroadcast, 0.0)
        m1 = stacks["a"].osend("first")
        scheduler.run()
        # Everyone has m1.  Now partition 'a' away and have 'b' (which has
        # the copy) send a dependent message that reaches 'c'.
        faults.partition({"b", "c"}, {"a"})
        m2 = stacks["b"].osend("second", occurs_after=m1)
        scheduler.run()
        assert stacks["c"].delivered == [m1, m2]

    def test_recovered_duplicates_are_harmless(self):
        scheduler, net, faults, stacks, agents = lossy_group(OSendBroadcast, 0.0)
        m1 = stacks["a"].osend("first")
        scheduler.run()
        # Manually NACK an already-received label: repair arrives as dup.
        agents["b"]._maybe_nack(m1, scheduler.now)
        scheduler.run()
        assert stacks["b"].delivered == [m1]


def run_until_complete(scheduler, stacks, agents, count, max_rounds=60):
    """Drain; run anti-entropy rounds until everyone delivered ``count``."""
    scheduler.run(max_events=300_000)
    for _ in range(max_rounds):
        if all(len(s.delivered) == count for s in stacks.values()):
            return
        for agent in agents.values():
            agent.anti_entropy_round()
        scheduler.run(max_events=300_000)


class TestLivenessUnderLoss:
    @pytest.mark.parametrize("protocol_cls", [OSendBroadcast, FifoBroadcast, CbcastBroadcast])
    def test_full_delivery_despite_heavy_loss(self, protocol_cls):
        scheduler, net, faults, stacks, agents = lossy_group(protocol_cls, 0.35, seed=5)
        count = 10
        previous = None
        for i in range(count):
            sender = ("a", "b", "c")[i % 3]
            if protocol_cls is OSendBroadcast:
                previous = stacks[sender].osend("op", occurs_after=previous)
            else:
                stacks[sender].bcast("op")
        run_until_complete(scheduler, stacks, agents, count)
        for stack in stacks.values():
            assert len(stack.delivered) == count
            assert stack.holdback_size == 0

    def test_lamport_total_recovers_fifo_gaps(self):
        scheduler, net, faults, stacks, agents = lossy_group(
            LamportTotalOrder, 0.25, seed=9
        )
        for i in range(6):
            stacks[("a", "b", "c")[i % 3]].total_send("op")
        run_until_complete(
            scheduler, stacks, agents, count=6 + 6 * 2
        )  # 6 data + 2 acks each
        orders = [s.app_delivered for s in stacks.values()]
        assert all(len(order) == 6 for order in orders)
        assert all(order == orders[0] for order in orders)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), drop=st.floats(0.05, 0.45))
    def test_osend_chain_always_completes(self, seed, drop):
        scheduler, net, faults, stacks, agents = lossy_group(
            OSendBroadcast, drop, seed=seed
        )
        previous = None
        for i in range(6):
            sender = ("a", "b", "c")[i % 3]
            previous = stacks[sender].osend("op", occurs_after=previous)
        run_until_complete(scheduler, stacks, agents, count=6)
        for stack in stacks.values():
            assert len(stack.delivered) == 6

    def test_scheduled_anti_entropy(self):
        scheduler, net, faults, stacks, agents = lossy_group(
            OSendBroadcast, 0.5, seed=3
        )
        for agent in agents.values():
            agent.schedule_anti_entropy(period=5.0, rounds=8)
        for i in range(5):
            stacks[("a", "b", "c")[i % 3]].osend("op")
        scheduler.run(max_events=300_000)
        delivered_counts = [len(s.delivered) for s in stacks.values()]
        assert all(c == 5 for c in delivered_counts)


class TestTermination:
    def test_event_loop_drains_when_idle(self):
        scheduler, net, faults, stacks, agents = lossy_group(OSendBroadcast, 0.0)
        stacks["a"].osend("op")
        scheduler.run(max_events=10_000)
        assert scheduler.pending == 0

    def test_unrecoverable_label_gives_up(self):
        from repro.types import MessageId

        scheduler, net, faults, stacks, agents = lossy_group(OSendBroadcast, 0.0)
        ghost = MessageId("nobody", 0)
        stacks["a"].osend("blocked", occurs_after=ghost)
        scheduler.run(max_events=100_000)
        # The agent stopped chasing after max_nacks_per_label attempts and
        # the queue drained (no livelock); the envelope stays held.
        assert scheduler.pending == 0
        assert stacks["a"].holdback_size == 1

    def test_validation(self):
        membership = GroupMembership(["a"])
        scheduler = Scheduler()
        net = Network(scheduler, rng=RngRegistry(0))
        stack = net.register(OSendBroadcast("a", membership))
        with pytest.raises(ConfigurationError):
            RecoveryAgent(stack, scan_interval=0.0)
        with pytest.raises(ConfigurationError):
            RecoveryAgent(stack, max_nacks_per_label=0)


class TestDigestFrontierBelowThePrefix:
    """A digest frontier at or below the receiver's settled prefix settles
    nothing, but one above its skip floor still runs the stable-skip
    hooks and a drain: the view-sync agent re-checks flush progress
    there, and some flushes complete only through that call (campaigns
    on ``lamport_total`` failed ``liveness`` without it)."""

    def test_the_view_sync_hook_and_the_drain_still_run(self, monkeypatch):
        scheduler, _net, _faults, stacks, agents = lossy_group(
            OSendBroadcast, 0.0
        )
        ViewSyncAgent(stacks["c"])
        for _ in range(5):
            stacks["b"].osend("op")
        scheduler.run()
        stack = stacks["c"]
        assert MessageId("b", 4) in stack.delivered
        skips = []
        hook = ViewSyncAgent.on_stable_skip

        def spy(self, origin, frontier):
            skips.append((origin, frontier))
            hook(self, origin, frontier)

        monkeypatch.setattr(ViewSyncAgent, "on_stable_skip", spy)
        drains = []
        drain = stack._drain

        def counting():
            drains.append(True)
            drain()

        monkeypatch.setattr(stack, "_drain", counting)
        digest = {"labels": {}, "frontiers": {"b": 3}}
        stack.on_frame("a", [Envelope(
            Message(MessageId("a!rec", 99), DIGEST_OPERATION, digest)
        )])
        assert skips == [("b", 3)]
        assert drains
        assert stack.skipped_stable == frozenset()
        # The same frontier again is below the skip floor: nothing runs.
        stack.on_frame("a", [Envelope(
            Message(MessageId("a!rec", 100), DIGEST_OPERATION, digest)
        )])
        assert skips == [("b", 3)]
