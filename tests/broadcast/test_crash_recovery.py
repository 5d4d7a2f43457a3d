"""Regressions for crash-recovery across GC, anti-entropy and RST accounting.

Pins three bugs found by the chaos campaigns, and one waste:

* anti-entropy used to advertise every *seen* label, including bodies the
  stability tracker had compacted away — an amnesiac rejoiner then NACKed
  the advertiser forever for envelopes nobody could serve;
* the recovery agent's chase state (``_nack_state`` / ``_first_missing``)
  grew without bound because nothing purged entries for labels that had
  settled;
* RST counted raw deliveries per origin, so a rejoiner's own post-restart
  traffic "paid off" pre-crash history it never actually delivered;
* a restart replayed every send the member had ever made, stable or not,
  from a second store of own sends that nothing truncated;
* a restart then settled the member's compacted own prefix one label at a
  time, so its cost still grew with the member's history.
"""

from __future__ import annotations

import sys

from repro.broadcast.gc import track_group
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import protect_group
from repro.broadcast.rst import RstBroadcast
from repro.group.membership import GroupMembership
from repro.group.replica_group import ReplicaGroup
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.shard.cluster import ShardedCluster
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
        trackers["a"]._init_volatile()
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


class TestRestartReplaysTheUnstableWindow:
    """A restart keeps and replays only the sender's unstable sends.

    Failing-before: the chassis kept every own send in a durable outbox
    that nothing truncated, and a restart re-received and re-broadcast all
    of it — 3 hops per send ever made (600 after 200 sends, 2 400 after
    800).  A stable send was delivered at every member, so the restarted
    sender settles it by stable-prefix skip instead.
    """

    MEMBERS = ("n0", "n1", "n2")

    def restart_after(self, sends: int):
        """``n0`` sends, with a repair round every 10 sends, then crashes
        and restarts; returns the group, the labels and the hops the
        restart sent."""
        group = ReplicaGroup(protocol="osend", members=self.MEMBERS, seed=0)
        labels = []
        for count in range(1, sends + 1):
            labels.append(group.stacks["n0"].bcast("op", count))
            if count % 10 == 0:
                group.repair_round()
                group.drain()
        group.crash("n0")
        before = group.network.hops_sent
        group.restart("n0")
        return group, labels, group.network.hops_sent - before

    @staticmethod
    def converge(group: ReplicaGroup, labels) -> None:
        group.drain()
        for _ in range(5):
            if group.converged(labels):
                break
            group.repair_round()
            group.drain()
        assert group.converged(labels)
        assert group.settled("n0", labels) == set(labels)

    def test_restart_cost_does_not_grow_with_history(self):
        hops = []
        for sends in (200, 800):
            group, labels, sent = self.restart_after(sends)
            hops.append(sent)
            self.converge(group, labels)
        assert hops[0] == hops[1]

    def test_a_send_lost_on_every_hop_is_replayed(self):
        group = ReplicaGroup(protocol="osend", members=self.MEMBERS, seed=0)
        labels = [group.stacks["n0"].bcast("op", n) for n in range(10)]
        group.drain()
        group.repair_round()
        group.drain()
        assert group.trackers["n0"].store_size == 0  # all ten stable
        group.set_loss(1.0)
        labels.append(group.stacks["n0"].bcast("op", 10))
        group.crash("n0")
        group.clear_faults()
        before = group.network.hops_sent
        group.restart("n0")
        # Only the lost send is replayed: one broadcast to three members.
        assert group.network.hops_sent - before == 3
        self.converge(group, labels)
        assert labels[-1] in group.stacks["n1"].delivered

    def test_a_group_wide_restart_keeps_the_stable_prefix(self):
        """Failing-before: a compacted send was settled only by a peer's
        digest frontier, and no restarted member knows one.  With every
        member restarted after compaction, no member held the bodies and
        none could advertise the frontier: the ten labels were never
        settled again.  The sender's compaction floor is durable."""
        group = ReplicaGroup(protocol="osend", members=self.MEMBERS, seed=0)
        labels = [group.stacks["n0"].bcast("op", n) for n in range(10)]
        group.drain()
        group.repair_round()
        group.drain()
        assert group.trackers["n0"].store_size == 0  # all ten stable
        group.crash("n0")
        for member in ("n1", "n2"):
            group.crash(member)
            group.restart(member)
        group.restart("n0")
        # The sender settles its own stable prefix at once...
        assert group.settled("n0", labels) == set(labels)
        # ...and its first digest settles it at the amnesiac peers.
        self.converge(group, labels)
        for member in self.MEMBERS:
            assert group.settled(member, labels) == set(labels)
        # The floor outlives a second restart, before any gossip.
        group.crash("n0")
        group.restart("n0")
        assert group.settled("n0", labels) == set(labels)
        fresh = group.stacks["n0"].bcast("op", 10)
        group.drain()
        for member in self.MEMBERS:
            assert fresh in group.stacks[member].delivered


class TestRestartSettlesItsStreamsPerOrigin:
    """Failing-before: a restart settled the member's compacted own
    prefix by building, filing and signalling each of its labels, so the
    restart of ``s0n0`` made 503 Python calls after 400 puts and 1 783
    after 2 000.  The settled set is a prefix per origin, and the restart
    raises each of its own streams' prefixes in one step."""

    @staticmethod
    def restart_calls(puts: int) -> int:
        """The history of ``docs/ROBUSTNESS.md``'s restart measurement:
        one session puts ``k0``…``k9`` in turn, each put drained, with a
        repair round before every 10th; then ``s0n0`` crashes, and the
        Python calls its restart makes are counted."""
        cluster = ShardedCluster(shards=2, members_per_shard=3)
        session = cluster.router.session("s0")
        for op in range(puts):
            if op % 10 == 0:
                for group in cluster.groups.values():
                    group.repair_round()
                cluster.drain()
            session.put(f"k{op % 10}", op)
            cluster.drain()
        group = cluster.groups[0]
        group.crash("s0n0")
        calls = 0

        def profile(_frame, event, _arg) -> None:
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profile)
        try:
            group.restart("s0n0")
        finally:
            sys.setprofile(None)
        cluster.drain()
        for each in cluster.groups.values():
            each.repair_round()
        cluster.drain()
        assert cluster.converged()
        return calls

    def test_the_restart_does_not_grow_with_the_compacted_prefix(self):
        assert self.restart_calls(400) == self.restart_calls(2000)


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

    def test_init_volatile_clears_chase_state(self):
        scheduler, stacks, _, agents = guarded_group()
        agent = agents["b"]
        agent._nack_state[mid("a", 7)] = (0.0, 1)
        agent._first_missing[mid("a", 7)] = 0.0
        agent._init_volatile()
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
        assert stack._prefix.get("b", 0) == 0
        assert stack._above == {mid("b", 2)}

    def test_prefix_advances_once_contiguous(self):
        _, _, stacks = build_group(RstBroadcast)
        stack = stacks["a"]
        for seqno in (2, 0, 1):
            self._inject(stack, "b", seqno)
        assert stack._prefix["b"] == 3
        assert stack._above == set()

    def test_restart_resets_prefix_accounting(self):
        scheduler, _, stacks = build_group(RstBroadcast)
        stacks["b"].bcast("op")
        scheduler.run()
        assert stacks["a"]._prefix["b"] == 1
        stacks["a"].crash()
        stacks["a"].restart()
        assert stacks["a"]._prefix == {}
        assert stacks["a"]._above == set()
        assert stacks["a"]._sent == {}

    def test_restart_keeps_the_own_row(self):
        # The own row mirrors the durable label allocator: the first
        # stamp after a restart still owes every member the k sends made
        # before the crash, so none can deliver the new send first.  The
        # replayed sends cannot rebuild it: each owes b:0, which the
        # amnesiac member has lost, so they wait in its hold-back queue.
        scheduler, _, stacks = build_group(RstBroadcast)
        stacks["b"].bcast("op")
        scheduler.run()
        k = 3
        for _ in range(k):
            stacks["a"].bcast("op")
        scheduler.run()
        stacks["a"].crash()
        stacks["a"].restart()
        scheduler.run()
        label = stacks["a"].bcast("op")
        stamp = stacks["a"].envelope_of(label).metadata["sent_matrix"]
        assert {m: stamp.get("a", {}).get(m, 0) for m in "abc"} == {
            m: k for m in "abc"
        }

    def test_stable_skip_fast_forwards_prefix(self):
        _, _, stacks = build_group(RstBroadcast)
        stack = stacks["a"]
        self._inject(stack, "b", 3)  # buffered beyond the skip frontier
        stack.note_stable_prefix("b", 3)
        # The skip settles 0..2 and absorbs the buffered 3.
        assert stack._prefix["b"] == 4
        assert stack._above == set()
