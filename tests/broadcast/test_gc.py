"""Tests for stability tracking and store compaction."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.gc import StabilityTracker, track_group
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import protect_group
from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from repro.group.membership import GroupMembership
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.types import Envelope, Message, MessageId
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
                fast.reset_volatile()
                slow.reset_volatile()
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
