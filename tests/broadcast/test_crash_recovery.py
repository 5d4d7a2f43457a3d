"""Regressions for crash-recovery across GC, anti-entropy and RST accounting.

Pins three bugs found by the chaos campaigns:

* anti-entropy used to advertise every *seen* label, including bodies the
  stability tracker had compacted away — an amnesiac rejoiner then NACKed
  the advertiser forever for envelopes nobody could serve;
* the recovery agent's chase state (``_nack_state`` / ``_first_missing``)
  grew without bound because nothing purged entries for labels that had
  settled;
* RST counted raw deliveries per origin, so a rejoiner's own post-restart
  traffic "paid off" pre-crash history it never actually delivered.
"""

from __future__ import annotations

from repro.broadcast.gc import track_group
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import protect_group
from repro.broadcast.rst import RstBroadcast
from repro.group.membership import GroupMembership
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.types import Envelope, Message, MessageId
from tests.conftest import build_group, mid


def guarded_group(seed: int = 0, members=("a", "b", "c")):
    """A tracked *and* recovery-protected OSend group."""
    scheduler = Scheduler()
    net = Network(
        scheduler,
        latency=UniformLatency(0.2, 1.5),
        rng=RngRegistry(seed),
    )
    membership = GroupMembership(members)
    stacks = {
        m: net.register(OSendBroadcast(m, membership)) for m in members
    }
    trackers = track_group(stacks)
    agents = protect_group(stacks, scan_interval=1.0, nack_backoff=2.0)
    return scheduler, stacks, trackers, agents


def compact_everywhere(scheduler, stacks, trackers) -> None:
    """Two gossip exchanges: everyone learns everyone's prefix, compacts."""
    for _ in range(2):
        for tracker in trackers.values():
            tracker.gossip_round()
        scheduler.run()


class TestRejoinViaStableFrontier:
    """S2: compacted history must settle at a rejoiner, not NACK forever."""

    def test_digest_advertises_only_servable_labels(self):
        scheduler, stacks, trackers, agents = guarded_group()
        for _ in range(4):
            stacks["a"].osend("op")
        scheduler.run()
        compact_everywhere(scheduler, stacks, trackers)
        assert trackers["a"].store_size == 0
        # An amnesiac rejoiner receives the digest...
        stacks["b"].crash()
        stacks["b"].restart()
        agents["a"].anti_entropy_round()
        scheduler.run()
        # ...and settles the compacted prefix instead of chasing it.
        assert stacks["b"].skipped_stable == {mid("a", i) for i in range(4)}
        assert agents["b"].outstanding_labels == []
        assert agents["b"].nacks_sent == 0

    def test_rejoiner_unblocks_traffic_behind_compacted_deps(self):
        scheduler, stacks, trackers, agents = guarded_group()
        old = [stacks["a"].osend("op") for _ in range(3)]
        scheduler.run()
        compact_everywhere(scheduler, stacks, trackers)
        stacks["b"].crash()
        stacks["b"].restart()
        # New traffic names a compacted ancestor: b must hold it until the
        # frontier arrives, then deliver without ever seeing the ancestor.
        new = stacks["a"].osend("op", occurs_after=old[-1])
        scheduler.run()
        assert stacks["b"].holdback_size == 1
        agents["a"].anti_entropy_round()
        scheduler.run()
        assert stacks["b"].holdback_size == 0
        assert new in stacks["b"].delivered
        assert old[-1] in stacks["b"].skipped_stable

    def test_advertised_frontiers_and_volatile_reset(self):
        scheduler, stacks, trackers, _ = guarded_group()
        for _ in range(4):
            stacks["a"].osend("op")
        scheduler.run()
        compact_everywhere(scheduler, stacks, trackers)
        assert trackers["a"].advertised_frontiers().get("a", 0) == 4
        assert trackers["a"].applied_frontier.get("a", 0) == 4
        trackers["a"].reset_volatile()
        assert trackers["a"].advertised_frontiers() == {}
        assert trackers["a"].applied_frontier == {}

    def test_stable_skip_advances_trackers_own_prefix(self):
        scheduler, stacks, trackers, agents = guarded_group()
        for _ in range(4):
            stacks["a"].osend("op")
        scheduler.run()
        compact_everywhere(scheduler, stacks, trackers)
        stacks["b"].crash()
        stacks["b"].restart()
        assert trackers["b"].local_prefix("a") == 0
        agents["a"].anti_entropy_round()
        scheduler.run()
        # Skipped history counts as settled, so group-wide stability does
        # not collapse to zero whenever an amnesiac member rejoins.
        assert trackers["b"].local_prefix("a") == 4


class TestChaseStatePurge:
    """S4: chase state must shrink back to the set of labels still missing."""

    def test_arrival_purges_chase_state(self):
        from repro.net.faults import FaultPlan  # local: only this test

        # A fault plan so a dependency can be lost outright.
        scheduler = Scheduler()
        faults = FaultPlan()
        net = Network(
            scheduler,
            latency=UniformLatency(0.2, 1.5),
            faults=faults,
            rng=RngRegistry(0),
        )
        membership = GroupMembership(["a", "b", "c"])
        stacks = {
            m: net.register(OSendBroadcast(m, membership))
            for m in ("a", "b", "c")
        }
        agents = protect_group(stacks, scan_interval=1.0, nack_backoff=2.0)
        faults.drop_probability = 1.0
        m1 = stacks["a"].osend("first")
        scheduler.run()
        faults.drop_probability = 0.0
        m2 = stacks["a"].osend("second", occurs_after=m1)
        scheduler.run()
        for stack in stacks.values():
            assert stack.delivered == [m1, m2]
        assert sum(a.nacks_sent for a in agents.values()) > 0
        # Everything settled, so no agent may retain chase state.
        for agent in agents.values():
            assert agent._nack_state == {}
            assert agent._first_missing == {}

    def test_purge_settled_sweeps_stale_entries(self):
        scheduler, stacks, _, agents = guarded_group()
        label = stacks["a"].osend("op")
        scheduler.run()
        agent = agents["b"]
        # Simulate state left behind by a label that settled out of band
        # (e.g. via a stable-prefix skip, which `arrived` never hears of).
        agent._nack_state[label] = (0.0, 1)
        agent._first_missing[label] = 0.0
        agent._purge_settled()
        assert agent._nack_state == {}
        assert agent._first_missing == {}

    def test_reset_volatile_clears_chase_state(self):
        scheduler, stacks, _, agents = guarded_group()
        agent = agents["b"]
        agent._nack_state[mid("a", 7)] = (0.0, 1)
        agent._first_missing[mid("a", 7)] = 0.0
        agent.reset_volatile()
        assert agent._nack_state == {}
        assert agent._first_missing == {}
        assert agent.outstanding_labels == []


class TestRstPrefixAccounting:
    """RST settled-prefix semantics: out-of-order deliveries must not
    advance the per-origin counters other members' stamps rely on."""

    def _inject(self, stack, sender: str, seqno: int) -> None:
        envelope = Envelope(
            Message(MessageId(sender, seqno), "app", None)
        ).with_metadata(sent_matrix={})
        stack.on_receive(sender, envelope)

    def test_out_of_order_delivery_buffers_instead_of_counting(self):
        _, _, stacks = build_group(RstBroadcast)
        stack = stacks["a"]
        self._inject(stack, "b", 2)  # no deps claimed: delivered immediately
        assert mid("b", 2) in stack.delivered
        # The raw count is 1, but the contiguous settled prefix is still 0.
        assert stack._delivered_from.get("b", 0) == 0
        assert stack._delivered_seqnos["b"] == {2}

    def test_prefix_advances_once_contiguous(self):
        _, _, stacks = build_group(RstBroadcast)
        stack = stacks["a"]
        for seqno in (2, 0, 1):
            self._inject(stack, "b", seqno)
        assert stack._delivered_from["b"] == 3
        assert stack._delivered_seqnos["b"] == set()

    def test_restart_resets_prefix_accounting(self):
        scheduler, _, stacks = build_group(RstBroadcast)
        stacks["b"].bcast("op")
        scheduler.run()
        assert stacks["a"]._delivered_from["b"] == 1
        stacks["a"].crash()
        stacks["a"].restart()
        assert stacks["a"]._delivered_from == {}
        assert stacks["a"]._delivered_seqnos == {}
        assert stacks["a"]._sent == {}

    def test_stable_skip_fast_forwards_prefix(self):
        _, _, stacks = build_group(RstBroadcast)
        stack = stacks["a"]
        self._inject(stack, "b", 3)  # buffered beyond the skip frontier
        stack.note_stable_prefix("b", 3)
        # The skip settles 0..2 and absorbs the buffered 3.
        assert stack._delivered_from["b"] == 4
        assert stack._delivered_seqnos["b"] == set()
