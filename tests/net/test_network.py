"""Tests for the simulated network transport."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.errors import ConfigurationError, MembershipError
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency, PerPairLatency
from repro.net.network import Network
from repro.sim.node import SimNode
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder
from repro.types import Envelope, Message, MessageId


class RecordingNode(SimNode):
    """Collects (time, sender, msg_id) for every arrival."""

    def __init__(self, entity_id: str) -> None:
        super().__init__(entity_id)
        self.received: List[Tuple[float, str, MessageId]] = []

    def on_receive(self, sender, envelope):
        self.received.append((self.now, sender, envelope.msg_id))


def envelope(sender: str = "a", seqno: int = 0) -> Envelope:
    return Envelope(Message(MessageId(sender, seqno), "op"))


@pytest.fixture
def net() -> Network:
    return Network(Scheduler(), latency=ConstantLatency(1.0), rng=RngRegistry(0))


class TestRegistration:
    def test_register_and_lookup(self, net):
        node = RecordingNode("a")
        assert net.register(node) is node
        assert net.node("a") is node

    def test_duplicate_id_rejected(self, net):
        net.register(RecordingNode("a"))
        with pytest.raises(ConfigurationError):
            net.register(RecordingNode("a"))

    def test_unknown_node_lookup(self, net):
        with pytest.raises(MembershipError):
            net.node("ghost")

    def test_entity_ids_in_registration_order(self, net):
        for name in ("c", "a", "b"):
            net.register(RecordingNode(name))
        assert net.entity_ids == ["c", "a", "b"]
        assert len(net) == 3


class TestUnicast:
    def test_delivers_after_latency(self, net):
        a, b = RecordingNode("a"), RecordingNode("b")
        net.register(a)
        net.register(b)
        net.unicast("a", "b", envelope())
        net.scheduler.run()
        assert len(b.received) == 1
        time, sender, _ = b.received[0]
        assert time == 1.0 and sender == "a"

    def test_unknown_destination_rejected(self, net):
        net.register(RecordingNode("a"))
        with pytest.raises(MembershipError):
            net.unicast("a", "ghost", envelope())


class TestBroadcast:
    def test_reaches_everyone_including_sender(self, net):
        nodes = [RecordingNode(n) for n in ("a", "b", "c")]
        for node in nodes:
            net.register(node)
        net.broadcast("a", envelope())
        net.scheduler.run()
        assert all(len(node.received) == 1 for node in nodes)

    def test_hop_counters(self, net):
        for name in ("a", "b", "c"):
            net.register(RecordingNode(name))
        net.broadcast("a", envelope())
        net.scheduler.run()
        assert net.hops_sent == 3
        assert net.hops_delivered == 3
        assert net.hops_dropped == 0

    def test_send_and_receive_traced(self, net):
        for name in ("a", "b"):
            net.register(RecordingNode(name))
        net.broadcast("a", envelope())
        net.scheduler.run()
        assert len(net.trace.of_kind("send")) == 1
        assert len(net.trace.of_kind("receive")) == 2

    def test_per_pair_latency_reorders_arrivals(self):
        sched = Scheduler()
        latency = PerPairLatency(
            {("a", "b"): ConstantLatency(5.0)}, default=ConstantLatency(1.0)
        )
        net = Network(sched, latency=latency, rng=RngRegistry(0))
        nodes = {n: RecordingNode(n) for n in ("a", "b", "c")}
        for node in nodes.values():
            net.register(node)
        net.broadcast("a", envelope("a", 0))
        net.broadcast("c", envelope("c", 0))
        sched.run()
        # b got a's copy late (t=5), c's copy early (t=1).
        order_at_b = [msg.sender for _, __, msg in nodes["b"].received]
        assert order_at_b == ["c", "a"]


class TestFaults:
    def test_drops_count_and_trace(self):
        sched = Scheduler()
        net = Network(
            sched,
            latency=ConstantLatency(1.0),
            faults=FaultPlan(drop_probability=1.0),
            rng=RngRegistry(0),
        )
        receiver = RecordingNode("b")
        net.register(RecordingNode("a"))
        net.register(receiver)
        net.broadcast("a", envelope())
        sched.run()
        assert receiver.received == []
        assert net.hops_dropped == 2
        assert len(net.trace.of_kind("drop")) == 2

    def test_a_disabled_recorder_is_not_called_for_drops(self):
        # Hop-path producers test `enabled` before building an event.
        class CountingRecorder(TraceRecorder):
            calls = 0

            def record(self, time, kind, **details):
                CountingRecorder.calls += 1

        sched = Scheduler()
        net = Network(
            sched,
            latency=ConstantLatency(1.0),
            faults=FaultPlan(drop_probability=1.0),
            rng=RngRegistry(0),
            trace=CountingRecorder(enabled=False),
        )
        net.register(RecordingNode("a"))
        net.register(RecordingNode("b"))
        net.broadcast("a", envelope())
        sched.run()
        assert net.hops_dropped == 2
        assert CountingRecorder.calls == 0

    def test_duplication_delivers_twice(self):
        sched = Scheduler()
        net = Network(
            sched,
            latency=ConstantLatency(1.0),
            faults=FaultPlan(duplicate_probability=1.0),
            rng=RngRegistry(0),
        )
        receiver = RecordingNode("b")
        net.register(receiver)
        net.unicast("b", "b", envelope())
        sched.run()
        assert len(receiver.received) == 2

    def test_partition_blocks_until_healed(self):
        sched = Scheduler()
        faults = FaultPlan()
        net = Network(
            sched,
            latency=ConstantLatency(1.0),
            faults=faults,
            rng=RngRegistry(0),
        )
        a, b = RecordingNode("a"), RecordingNode("b")
        net.register(a)
        net.register(b)
        faults.partition({"a"}, {"b"})
        net.unicast("a", "b", envelope("a", 0))
        sched.run()
        assert b.received == []
        faults.heal()
        net.unicast("a", "b", envelope("a", 1))
        sched.run()
        assert len(b.received) == 1
