"""Tests for stability tracking and store compaction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.gc import (
    GC_VECTOR_OPERATION,
    StabilityTracker,
    track_group,
)
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import protect_group
from repro.graph.predicates import OccursAfter
from repro.group.replica_group import ReplicaGroup
from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from repro.group.membership import GroupMembership
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder
from repro.types import Envelope, Message, MessageId
from tests.broadcast.eager_tracker import EagerTracker
from tests.conftest import build_group


def tracked_group(seed: int = 0, faults: FaultPlan | None = None):
    scheduler = Scheduler()
    net = Network(
        scheduler,
        latency=UniformLatency(0.2, 1.5),
        faults=faults,
        rng=RngRegistry(seed),
    )
    membership = GroupMembership(["a", "b", "c"])
    stacks = {
        m: net.register(OSendBroadcast(m, membership)) for m in ("a", "b", "c")
    }
    trackers = track_group(stacks)
    return scheduler, stacks, trackers


class TestPrefixes:
    def test_local_prefix_tracks_contiguous_deliveries(self):
        scheduler, stacks, trackers = tracked_group()
        for _ in range(3):
            stacks["a"].osend("op")
        scheduler.run()
        assert trackers["b"].local_prefix("a") == 3
        assert trackers["b"].local_prefix("c") == 0

    def test_frontier_is_zero_before_gossip(self):
        scheduler, stacks, trackers = tracked_group()
        stacks["a"].osend("op")
        scheduler.run()
        # Without hearing from others, nothing can be considered stable.
        assert trackers["a"].stable_frontier("a") == 0


class TestCompaction:
    def test_gossip_reclaims_stable_bodies(self):
        scheduler, stacks, trackers = tracked_group()
        for _ in range(4):
            stacks["a"].osend("op")
        scheduler.run()
        before = trackers["b"].store_size
        assert before >= 4
        for tracker in trackers.values():
            tracker.gossip_round()
        scheduler.run()
        # One more exchange so everyone has everyone's vector.
        for tracker in trackers.values():
            tracker.gossip_round()
        scheduler.run()
        for tracker in trackers.values():
            assert tracker.stable_frontier("a") == 4
            assert tracker.envelopes_reclaimed >= 4
            assert tracker.store_size == 0

    def test_unstable_bodies_survive_compaction(self):
        faults = FaultPlan()
        scheduler, stacks, trackers = tracked_group(faults=faults)
        faults.partition({"a", "b"}, {"c"})
        stacks["a"].osend("op")  # never reaches c
        scheduler.run()
        faults.heal()
        for tracker in trackers.values():
            tracker.gossip_round()
        scheduler.run()
        # c's prefix for a is 0, so nothing may be reclaimed at a or b.
        assert trackers["a"].stable_frontier("a") == 0
        assert trackers["a"].store_size >= 1

    def test_gc_composes_with_recovery(self):
        faults = FaultPlan()
        scheduler, stacks, trackers = tracked_group(faults=faults)
        agents = protect_group(stacks, scan_interval=1.0, nack_backoff=2.0)
        faults.partition({"a", "b"}, {"c"})
        m1 = stacks["a"].osend("op")
        scheduler.run()
        faults.heal()
        # GC ran but must not have dropped m1 (c still lacks it)...
        for tracker in trackers.values():
            tracker.gossip_round()
        scheduler.run()
        assert stacks["a"].envelope_of(m1) is not None
        # ...so recovery can still repair c via anti-entropy.
        agents["a"].anti_entropy_round()
        scheduler.run()
        assert m1 in stacks["c"].delivered

    def test_scheduled_gossip(self):
        scheduler, stacks, trackers = tracked_group()
        for tracker in trackers.values():
            tracker.schedule_gossip(period=2.0, rounds=3)
        stacks["a"].osend("op")
        scheduler.run()
        assert all(t.stable_frontier("a") == 1 for t in trackers.values())
        assert all(t.store_size == 0 for t in trackers.values())


class _ReferenceTracker(StabilityTracker):
    """`_on_delivery` as it was before the in-order fast path (PR 23)."""

    def _on_delivery(self, envelope):
        origin = envelope.msg_id.sender
        seqnos = self._delivered_seqnos.setdefault(origin, set())
        seqnos.add(envelope.msg_id.seqno)
        prefix = self._own_prefix.get(origin, 0)
        while prefix in seqnos:
            seqnos.discard(prefix)
            prefix += 1
        self._own_prefix[origin] = prefix


class TestInOrderFastPath:
    """The fast path is an optimisation of the set walk, nothing else."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["deliver", "deliver", "deliver", "skip", "reset"]),
                st.sampled_from(["a", "b"]),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=60,
        )
    )
    def test_prefixes_match_the_set_walk_at_every_step(self, steps):
        membership = GroupMembership(["a", "b"])
        fast = StabilityTracker(OSendBroadcast("a", membership))
        slow = _ReferenceTracker(OSendBroadcast("a", membership))
        delivered = set()
        for action, origin, number in steps:
            if action == "deliver":
                # A label is delivered at most once, and never below a
                # prefix a stable skip already settled.
                if (origin, number) in delivered or number < max(
                    fast.local_prefix(origin), slow.local_prefix(origin)
                ):
                    continue
                delivered.add((origin, number))
                envelope = Envelope(Message(MessageId(origin, number), "op"))
                fast._on_delivery(envelope)
                slow._on_delivery(envelope)
            elif action == "skip":
                fast.on_stable_skip(origin, number)
                slow.on_stable_skip(origin, number)
            else:
                delivered.clear()
                fast._init_volatile()
                slow._init_volatile()
            assert fast._own_prefix == slow._own_prefix, (action, origin, number)
            for each in ("a", "b"):
                assert fast.local_prefix(each) == slow.local_prefix(each)

    def test_in_order_deliveries_touch_no_set(self):
        tracker = StabilityTracker(
            OSendBroadcast("a", GroupMembership(["a", "b"]))
        )
        for seqno in range(5):
            tracker._on_delivery(Envelope(Message(MessageId("b", seqno), "op")))
        assert tracker.local_prefix("b") == 5
        assert tracker._delivered_seqnos == {}


class WithControl(OSendBroadcast):
    """OSend whose ``ctl`` deliveries are control: no callback sees them.
    Overriding `_is_control` keeps it off the run path."""

    def _is_control(self, envelope):
        return envelope.message.operation == "ctl"


class _Recording(Network):
    """Keeps what `gossip_round` broadcasts instead of sending it."""

    def __init__(self):
        super().__init__(
            Scheduler(), rng=RngRegistry(0), trace=TraceRecorder(enabled=False)
        )
        self.gossip = []

    def broadcast(self, source, envelope):
        self.gossip.append(list(envelope.message.payload.items()))


@st.composite
def tracker_steps(draw):
    """Frames of ``b`` / ``c`` labels (gaps, duplicates and ``ctl``
    envelopes included), stable skips, restarts, peers' gossip and our
    own, the steps after which the trackers are read, and the step at
    which they attach."""
    frame = st.tuples(
        st.just("frame"),
        st.sampled_from(["b", "c"]),
        st.lists(
            st.tuples(st.integers(0, 9), st.booleans()),
            min_size=1, max_size=8,
        ),
    )
    step = st.one_of(
        frame, frame, frame,
        st.tuples(st.just("skip"), st.sampled_from(["b", "c"]), st.integers(0, 10)),
        st.tuples(st.just("restart")),
        st.tuples(
            st.just("gossip"), st.sampled_from(["b", "c"]),
            st.integers(0, 10), st.integers(0, 10),
        ),
        st.tuples(st.just("out")),
    )
    return (
        draw(st.sampled_from([OSendBroadcast, WithControl])),
        draw(st.integers(0, 4)),
        # Each step says whether the trackers are read after it.
        draw(st.lists(st.tuples(step, st.booleans()), max_size=24)),
    )


def envelope(origin, seqno, operation="op"):
    return Envelope(
        Message(MessageId(origin, seqno), operation),
        occurs_after=OccursAfter.after(()),
    )


class TestLogFedTracker:
    """The tracker's prefixes are a view of the delivery log: they match
    a tracker fed by a delivery callback at every step."""

    @staticmethod
    def observe(tracker):
        own = [tracker.local_prefix(origin) for origin in ("b", "c")]
        return (
            own,
            list(tracker._own_prefix.items()),
            {o: sorted(s) for o, s in tracker._delivered_seqnos.items()},
            tracker.store_size,
            tracker.envelopes_reclaimed,
            list(tracker.advertised_frontiers().items()),
        )

    @settings(max_examples=300, deadline=None)
    @given(tracker_steps())
    def test_the_view_matches_the_eager_tracker_at_every_step(self, case):
        cls, attach_at, steps = case
        membership = GroupMembership(["a", "b", "c"])
        stacks, networks = [], []
        for _ in range(2):
            network = _Recording()
            networks.append(network)
            stacks.append(network.register(cls("a", membership)))
        trackers = []
        gossip = [0]
        for at, (step, read) in enumerate(steps + [(("out",), True)]):
            if at == attach_at:
                trackers = [
                    StabilityTracker(stacks[0]), EagerTracker(stacks[1])
                ]
            kind = step[0]
            for stack, tracker in zip(stacks, trackers or [None] * 2):
                if kind == "frame":
                    _, origin, labels = step
                    stack.on_frame(origin, [
                        envelope(origin, seqno, "ctl" if ctl else "op")
                        for seqno, ctl in labels
                    ])
                elif kind == "skip":
                    stack.note_stable_prefix(step[1], step[2])
                elif kind == "restart":
                    stack.crash()
                    stack.restart()
                elif kind == "gossip" and tracker is not None:
                    _, sender, b, c = step
                    stack.on_frame(sender, [Envelope(Message(
                        MessageId(f"{sender}!gc", gossip[0]),
                        GC_VECTOR_OPERATION,
                        {"b": b, "c": c},
                    ))])
                elif tracker is not None:
                    tracker.gossip_round()
            gossip[0] += 1
            if trackers and read:
                assert self.observe(trackers[0]) == self.observe(trackers[1])
            assert stacks[0].delivered == stacks[1].delivered
        assert networks[0].gossip == networks[1].gossip

    def test_a_run_is_folded_when_the_prefix_is_read(self):
        stack = OSendBroadcast("a", GroupMembership(["a", "b", "c"]))
        _Recording().register(stack)
        tracker = StabilityTracker(stack)
        assert stack._callbacks == []
        stack.on_frame("b", [envelope("b", seqno) for seqno in range(5)])
        assert stack.run_deliveries == 5
        assert tracker._own_prefix == {}  # nothing folded yet
        assert tracker.local_prefix("b") == 5

    def test_control_deliveries_are_not_counted(self):
        stack = WithControl("a", GroupMembership(["a", "b", "c"]))
        _Recording().register(stack)
        tracker = StabilityTracker(stack)
        stack.on_frame("b", [
            envelope("b", 0), envelope("b", 1, "ctl"), envelope("b", 2)
        ])
        assert stack.delivered_count == 3
        assert tracker.local_prefix("b") == 1
        assert tracker._delivered_seqnos == {"b": {2}}


class TestLamportCompaction:
    """The tracker counts no control delivery (ROADMAP 6(d))."""

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP 6(d): on lamport_total each member's acks ride its "
            "own label stream and the tracker counts no control delivery, "
            "so every origin's prefix stops at its first ack and nothing "
            "after it is compacted"
        ),
    )
    def test_repair_rounds_empty_the_store(self):
        group = ReplicaGroup(
            protocol="lamport_total", members=("n0", "n1", "n2"), seed=0
        )
        for _batch in range(3):
            for member in group.members:
                for value in range(20):
                    group.stacks[member].bcast("op", value)
            group.drain()
            for _round in range(3):
                group.repair_round()
                group.drain()
        # Measured: 480 bodies a member after the third batch, with
        # `envelopes_reclaimed` stuck at 60 since the first.
        assert [t.store_size for t in group.trackers.values()] == [0, 0, 0]
