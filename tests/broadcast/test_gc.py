"""Tests for stability tracking and store compaction."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.gc import StabilityTracker, track_group
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import DIGEST_OPERATION, RecoveryAgent
from repro.core.commutativity import counter_spec
from repro.core.replica import Replica
from repro.core.state_machine import counter_machine
from repro.core.state_transfer import Snapshot, install_snapshot
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
    """Three stacks, each with a tracker and a recovery agent that is not
    started: it scans nothing and only sends the digests the trackers
    learn their peers' prefixes from."""
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
    agents = {
        m: RecoveryAgent(stack, scan_interval=1.0, nack_backoff=2.0)
        for m, stack in stacks.items()
    }
    return scheduler, stacks, trackers, agents


def digest_round(scheduler, agents):
    for agent in agents.values():
        agent.anti_entropy_round()
    scheduler.run()


class TestPrefixes:
    def test_local_prefix_tracks_contiguous_deliveries(self):
        scheduler, stacks, trackers, _ = tracked_group()
        for _ in range(3):
            stacks["a"].osend("op")
        scheduler.run()
        assert trackers["b"].local_prefix("a") == 3
        assert trackers["b"].local_prefix("c") == 0

    def test_frontier_is_zero_before_gossip(self):
        scheduler, stacks, trackers, _ = tracked_group()
        stacks["a"].osend("op")
        scheduler.run()
        # Without hearing from others, nothing can be considered stable.
        assert trackers["a"].stable_frontier("a") == 0


class TestCompaction:
    def test_gossip_reclaims_stable_bodies(self):
        scheduler, stacks, trackers, agents = tracked_group()
        for _ in range(4):
            stacks["a"].osend("op")
        scheduler.run()
        before = trackers["b"].store_size
        assert before >= 4
        digest_round(scheduler, agents)
        # One more exchange so everyone has everyone's vector.
        digest_round(scheduler, agents)
        for tracker in trackers.values():
            assert tracker.stable_frontier("a") == 4
            assert tracker.envelopes_reclaimed >= 4
            assert tracker.store_size == 0

    def test_unstable_bodies_survive_compaction(self):
        faults = FaultPlan()
        scheduler, stacks, trackers, agents = tracked_group(faults=faults)
        faults.partition({"a", "b"}, {"c"})
        stacks["a"].osend("op")  # never reaches c
        scheduler.run()
        faults.heal()
        digest_round(scheduler, agents)
        # c's digest reported 0 for a, so nothing may be reclaimed at a
        # or b (the digests also got c its copy: it NACKed a for it).
        assert trackers["a"].stable_frontier("a") == 0
        assert trackers["a"].store_size >= 1

    def test_gc_composes_with_recovery(self):
        faults = FaultPlan()
        scheduler, stacks, trackers, agents = tracked_group(faults=faults)
        for agent in agents.values():
            agent.start()
        faults.partition({"a", "b"}, {"c"})
        m1 = stacks["a"].osend("op")
        scheduler.run()
        faults.heal()
        # c's digest reports nothing of a's: compaction must not drop m1
        # (c still lacks it)...
        agents["c"].anti_entropy_round()
        scheduler.run()
        assert stacks["a"].envelope_of(m1) is not None
        assert m1 not in stacks["c"].delivered
        # ...so recovery can still repair c via anti-entropy.
        agents["a"].anti_entropy_round()
        scheduler.run()
        assert m1 in stacks["c"].delivered

    def test_scheduled_gossip(self):
        scheduler, stacks, trackers, agents = tracked_group()
        for agent in agents.values():
            agent.schedule_anti_entropy(period=2.0, rounds=3)
        stacks["a"].osend("op")
        scheduler.run()
        assert all(t.stable_frontier("a") == 1 for t in trackers.values())
        assert all(t.store_size == 0 for t in trackers.values())


class WithControl(OSendBroadcast):
    """OSend whose ``ctl`` deliveries are control: no callback sees them.
    Overriding `_is_control` keeps it off the run path."""

    def _is_control(self, envelope):
        return envelope.message.operation == "ctl"


class _Recording(Network):
    """Keeps the prefix vector of each digest broadcast instead of
    sending it."""

    def __init__(self):
        super().__init__(
            Scheduler(), rng=RngRegistry(0), trace=TraceRecorder(enabled=False)
        )
        self.prefixes = []

    def broadcast(self, source, envelope):
        self.prefixes.append(list(envelope.message.payload["prefix"].items()))


@st.composite
def tracker_steps(draw):
    """Frames of ``b`` / ``c`` labels (gaps, duplicates and ``ctl``
    envelopes included), stable skips, restarts, peers' digests and our
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
            st.just("digest"), st.sampled_from(["b", "c"]),
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


def settled_prefix(stack, origin):
    """The contiguous prefix of ``origin``'s labels in the settled set,
    counted from scratch."""
    prefix = 0
    while stack.has_settled(MessageId(origin, prefix)):
        prefix += 1
    return prefix


def play(stack, step, agent=None, digest_seqno=0):
    """Apply one `tracker_steps` step to ``stack``; ``agent`` is its
    recovery agent, there once the tracker is."""
    kind = step[0]
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
    elif kind == "digest" and agent is not None:
        _, sender, b, c = step
        stack.on_frame(sender, [Envelope(Message(
            MessageId(f"{sender}!rec", digest_seqno),
            DIGEST_OPERATION,
            {"labels": {}, "frontiers": {}, "prefix": {"b": b, "c": c}},
        ))])
    elif agent is not None:
        agent.anti_entropy_round()


class TestSettledPrefix:
    """The tracker's own prefix is the contiguous prefix of the
    protocol's settled set, and it keeps no record of its own."""

    @settings(max_examples=300, deadline=None)
    @given(tracker_steps())
    def test_the_prefix_is_the_settled_sets_at_every_step(self, case):
        cls, attach_at, steps = case
        network = _Recording()
        stack = network.register(cls("a", GroupMembership(["a", "b", "c"])))
        tracker = agent = None
        for at, (step, read) in enumerate(steps + [(("out",), True)]):
            if at == attach_at:
                tracker, agent = StabilityTracker(stack), RecoveryAgent(stack)
            play(stack, step, agent, at)
            if tracker is not None and read:
                for origin in ("b", "c"):
                    assert tracker.local_prefix(origin) == settled_prefix(
                        stack, origin
                    ), (at, step, origin)

    def test_control_deliveries_count(self):
        stack = WithControl("a", GroupMembership(["a", "b", "c"]))
        _Recording().register(stack)
        tracker = StabilityTracker(stack)
        stack.on_frame("b", [
            envelope("b", 0), envelope("b", 1, "ctl"), envelope("b", 2)
        ])
        assert stack.delivered_count == 3
        assert tracker.local_prefix("b") == 3

    def test_labels_installed_from_a_snapshot_count(self):
        membership = GroupMembership(["a", "b", "c"])
        stack = OSendBroadcast("a", membership)
        _Recording().register(stack)
        tracker = StabilityTracker(stack)
        replica = Replica(stack, counter_machine(), counter_spec())
        covered = frozenset(MessageId("b", seqno) for seqno in (0, 1, 2, 4))
        install_snapshot(replica, Snapshot(
            state=3, covered=covered, donor="b", stable_index=0
        ))
        assert stack.delivered == []
        assert tracker.local_prefix("b") == 3
        # A later delivery fills the gap the snapshot left.
        stack.on_frame("b", [Envelope(
            Message(MessageId("b", 3), "inc", {"item": "x", "amount": 1}),
            occurs_after=OccursAfter.after(()),
        )])
        assert tracker.local_prefix("b") == 5


class TestLogFedTracker:
    """The settled-set read matches a tracker that folds each delivery
    and each stable skip into its own record as it happens."""

    @staticmethod
    def observe(tracker):
        return (
            [tracker.local_prefix(origin) for origin in ("b", "c")],
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
        trackers, agents = [], [None, None]
        for at, (step, read) in enumerate(steps + [(("out",), True)]):
            if at == attach_at:
                trackers = [
                    StabilityTracker(stacks[0]), EagerTracker(stacks[1])
                ]
                agents = [RecoveryAgent(stack) for stack in stacks]
            for stack, agent in zip(stacks, agents):
                play(stack, step, agent, at)
            if trackers and step[0] == "out":
                # The digest carries the eager record's vector, in order.
                assert networks[0].prefixes[-1] == list(
                    trackers[1].prefix_vector().items()
                )
            if trackers and read:
                assert self.observe(trackers[0]) == self.observe(trackers[1])
            assert stacks[0].delivered == stacks[1].delivered

    def test_a_run_is_folded_when_the_prefix_is_read(self):
        stack = OSendBroadcast("a", GroupMembership(["a", "b", "c"]))
        _Recording().register(stack)
        tracker = StabilityTracker(stack)
        assert stack._callbacks == []
        stack.on_frame("b", [envelope("b", seqno) for seqno in range(5)])
        assert stack.run_deliveries == 5
        assert tracker.local_prefix("b") == 5


class TestLamportCompaction:
    """Acks count: on lamport_total they ride each member's own label
    stream, and a prefix that stopped at the first one would compact
    nothing after it."""

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
        # A tracker that counted no control delivery kept 480 bodies a
        # member after the third batch, with `envelopes_reclaimed` stuck
        # at 60 since the first.
        assert [t.store_size for t in group.trackers.values()] == [0, 0, 0]
