"""What a frame is: corked sends leave as one hop per (source, destination).

A frame shares one crash check, one fault decision, one latency draw and
one scheduler event; its envelopes reach the node one by one, in send
order, and the ``hops_*`` counters keep counting envelopes.
"""

from __future__ import annotations

import pytest

from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from tests.net.test_network import RecordingNode, envelope


def build(faults: FaultPlan = None, seed: int = 0, **kwargs):
    net = Network(
        Scheduler(),
        latency=UniformLatency(0.2, 1.8),
        faults=faults,
        rng=RngRegistry(seed),
        **kwargs,
    )
    nodes = {name: net.register(RecordingNode(name)) for name in "abc"}
    return net, nodes


class TestOrder:
    def test_a_frame_arrives_at_once_in_send_order(self):
        net, nodes = build()
        net.cork()
        for seqno in range(10):
            net.broadcast("a", envelope("a", seqno))
        assert net.scheduler.run() == 1 + 3  # the flush, then one hop each
        assert net.frames_sent == 3
        assert net.hops_sent == net.hops_delivered == 30
        for node in nodes.values():
            times = {time for time, _sender, _label in node.received}
            assert len(times) == 1
            assert [label.seqno for _t, _s, label in node.received] == list(
                range(10)
            )

    def test_frames_of_different_sources_do_not_merge(self):
        net, nodes = build()
        net.cork()
        for seqno in range(4):
            net.unicast("a", "c", envelope("a", seqno))
            net.unicast("b", "c", envelope("b", seqno))
        net.scheduler.run()
        assert net.frames_sent == 2
        received = nodes["c"].received
        by_sender = {
            sender: [
                (time, label.seqno)
                for time, source, label in received
                if source == sender
            ]
            for sender in "ab"
        }
        for sender, arrivals in by_sender.items():
            assert [seqno for _time, seqno in arrivals] == [0, 1, 2, 3]
            assert len({time for time, _seqno in arrivals}) == 1
        # Two hops, two latency draws.
        assert by_sender["a"][0][0] != by_sender["b"][0][0]

    def test_frames_leave_at_the_instant_they_were_sent(self):
        net, nodes = build()
        net.scheduler.run_until(5.0)
        net.cork()
        net.unicast("a", "b", envelope("a", 0))
        net.scheduler.run()
        (time, _sender, _label), = nodes["b"].received
        assert 5.2 <= time <= 6.8

    def test_cork_is_idempotent_and_ends_at_the_flush(self):
        net, nodes = build()
        net.cork()
        net.cork()
        net.unicast("a", "b", envelope("a", 0))
        assert net.scheduler.pending == 1  # one flush, nothing sent yet
        net.scheduler.run()
        net.unicast("a", "b", envelope("a", 1))  # uncorked: leaves at once
        assert net.scheduler.pending == 1
        net.scheduler.run()
        assert net.frames_sent == 2 and len(nodes["b"].received) == 2


class TestAFrameOfOneIsAHop:
    def test_same_seed_same_draws_same_arrivals(self):
        plain, plain_nodes = build(FaultPlan(0.2, 0.2), seed=7)
        corked, corked_nodes = build(FaultPlan(0.2, 0.2), seed=7)
        for seqno in range(40):
            plain.broadcast("a", envelope("a", seqno))
            plain.scheduler.run()
            corked.cork()
            corked.broadcast("a", envelope("a", seqno))
            corked.scheduler.run()
        for name in "abc":
            assert corked_nodes[name].received == plain_nodes[name].received
        assert corked.frames_sent == corked.hops_sent == plain.hops_sent
        assert corked.hops_dropped == plain.hops_dropped > 0
        assert corked.hops_delivered == plain.hops_delivered
        # Duplicates arrived too: more deliveries than undropped sends.
        assert plain.hops_delivered > plain.hops_sent - plain.hops_dropped


class TestFaultsHitTheFrameAsAUnit:
    def send_frame(self, net, size=5):
        net.cork()
        for seqno in range(size):
            net.unicast("a", "b", envelope("a", seqno))
        net.scheduler.run()

    def test_dropped(self):
        net, nodes = build(FaultPlan(drop_probability=1.0))
        self.send_frame(net)
        assert nodes["b"].received == []
        assert (net.frames_sent, net.hops_sent) == (1, 5)
        assert (net.hops_dropped, net.hops_delivered) == (5, 0)
        drops = net.trace.of_kind("drop")
        assert [event.get("msg_id").seqno for event in drops] == [0, 1, 2, 3, 4]
        assert not any(event.get("blocked") for event in drops)

    def test_partitioned(self):
        faults = FaultPlan()
        faults.partition({"a"}, {"b", "c"})
        net, nodes = build(faults)
        self.send_frame(net)
        assert nodes["b"].received == []
        assert (net.hops_sent, net.hops_dropped) == (5, 5)
        assert all(event.get("blocked") for event in net.trace.of_kind("drop"))

    def test_duplicated(self):
        net, nodes = build(FaultPlan(duplicate_probability=1.0))
        self.send_frame(net)
        received = nodes["b"].received
        assert (net.frames_sent, net.hops_sent) == (1, 5)
        assert net.hops_delivered == len(received) == 10
        first, second = received[:5], received[5:]
        # Two copies of the whole frame, each with its own latency draw.
        assert [label.seqno for _t, _s, label in first] == [0, 1, 2, 3, 4]
        assert [label.seqno for _t, _s, label in second] == [0, 1, 2, 3, 4]
        assert len({time for time, _s, _l in received}) == 2

    def test_source_crashed_before_the_flush_sends_nothing(self):
        net, nodes = build()
        net.cork()
        for seqno in range(5):
            net.unicast("a", "b", envelope("a", seqno))
        nodes["a"].crash()
        net.scheduler.run()
        assert nodes["b"].received == []
        assert (net.frames_sent, net.hops_sent, net.hops_dropped) == (0, 0, 5)

    def test_destination_crashed_in_flight_drops_every_envelope(self):
        net, nodes = build()
        net.cork()
        for seqno in range(5):
            net.unicast("a", "b", envelope("a", seqno))
        net.scheduler.call_at(0.1, nodes["b"].crash)
        net.scheduler.run()
        assert nodes["b"].received == []
        assert (net.hops_sent, net.hops_dropped, net.hops_delivered) == (5, 5, 0)


class TestServiceTime:
    def test_each_envelope_of_a_frame_occupies_the_node(self):
        net, nodes = build(service_time=0.5)
        net.cork()
        for seqno in range(3):
            net.unicast("a", "b", envelope("a", seqno))
        net.scheduler.run()
        times = [time for time, _s, _l in nodes["b"].received]
        assert times[1] - times[0] == pytest.approx(0.5)
        assert times[2] - times[1] == pytest.approx(0.5)
