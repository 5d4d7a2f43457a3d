"""Tests for the shared broadcast chassis."""

from __future__ import annotations

import pytest

from repro.broadcast.unordered import UnorderedBroadcast
from repro.errors import ProtocolError
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from tests.conftest import build_group


class TestSendPath:
    def test_bcast_returns_sequential_labels(self):
        _, __, stacks = build_group(UnorderedBroadcast)
        first = stacks["a"].bcast("op")
        second = stacks["a"].bcast("op")
        assert first.sender == "a" and first.seqno == 0
        assert second.seqno == 1

    def test_unknown_options_rejected(self):
        _, __, stacks = build_group(UnorderedBroadcast)
        with pytest.raises(ProtocolError):
            stacks["a"].bcast("op", nonsense=True)


class TestReceivePath:
    def test_duplicates_discarded(self):
        scheduler = Scheduler()
        net = Network(
            scheduler,
            latency=ConstantLatency(1.0),
            faults=FaultPlan(duplicate_probability=1.0),
            rng=RngRegistry(0),
        )
        from repro.group.membership import GroupMembership

        membership = GroupMembership(["a", "b"])
        stacks = {}
        for member in ("a", "b"):
            stacks[member] = net.register(
                UnorderedBroadcast(member, membership)
            )
        stacks["a"].bcast("op")
        scheduler.run()
        assert len(stacks["b"].delivered) == 1
        assert stacks["b"].duplicates_discarded == 1

    def test_delivery_log_positions_are_sequential(self):
        scheduler, _, stacks = build_group(UnorderedBroadcast)
        for _ in range(3):
            stacks["a"].bcast("op")
        scheduler.run()
        positions = [r.position for r in stacks["b"].delivery_log]
        assert positions == [0, 1, 2]

    def test_callbacks_invoked_per_delivery(self):
        scheduler, _, stacks = build_group(UnorderedBroadcast)
        seen = []
        stacks["b"].on_deliver(lambda env: seen.append(env.msg_id))
        stacks["a"].bcast("op")
        scheduler.run()
        assert len(seen) == 1

    def test_has_delivered(self):
        scheduler, _, stacks = build_group(UnorderedBroadcast)
        label = stacks["a"].bcast("op")
        scheduler.run()
        assert stacks["c"].has_settled(label)

    def test_trace_records_hold_and_deliver(self):
        scheduler, net, stacks = build_group(UnorderedBroadcast)
        stacks["a"].bcast("op")
        scheduler.run()
        assert len(net.trace.of_kind("hold")) == 3
        assert len(net.trace.of_kind("deliver")) == 3

    def test_sender_delivers_its_own_broadcast(self):
        scheduler, _, stacks = build_group(UnorderedBroadcast)
        label = stacks["a"].bcast("op")
        scheduler.run()
        assert label in stacks["a"].delivered
