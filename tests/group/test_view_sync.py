"""Tests for view-synchronous membership change."""

from __future__ import annotations

import sys

import pytest

from repro.broadcast.osend import OSendBroadcast
from repro.errors import MembershipError, ProtocolError
from repro.group.membership import GroupMembership
from repro.group.view_sync import ViewSyncAgent, attach_view_sync
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.shard.cluster import ShardedCluster
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler


def make_group(members=("a", "b", "c"), seed: int = 0):
    scheduler = Scheduler()
    net = Network(
        scheduler, latency=UniformLatency(0.2, 1.5), rng=RngRegistry(seed)
    )
    membership = GroupMembership(list(members))
    stacks = {
        m: net.register(OSendBroadcast(m, membership)) for m in members
    }
    agents = attach_view_sync(stacks)
    return scheduler, net, membership, stacks, agents


class TestFlushProtocol:
    def test_leave_installs_new_view_everywhere(self):
        scheduler, _, membership, stacks, agents = make_group()
        installed = []
        for member, agent in agents.items():
            agent.on_install(
                lambda view, member=member: installed.append(
                    (member, view.view_id)
                )
            )
        agents["a"].propose("leave", "c")
        scheduler.run()
        assert membership.view.members == ("a", "b")
        assert sorted(installed) == [("a", 1), ("b", 1), ("c", 1)]
        assert agents["a"].changes_installed == 1

    def test_join_installs_new_view(self):
        scheduler, _, membership, stacks, agents = make_group()
        agents["b"].propose("join", "d")
        scheduler.run()
        assert "d" in membership.view.members
        assert membership.view.view_id == 1

    def test_old_view_messages_flushed_before_install(self):
        """View synchrony: at FLUSH_OK every member had delivered the
        same old-view message set."""
        scheduler, _, membership, stacks, agents = make_group()
        m1 = stacks["a"].osend("op")
        m2 = stacks["b"].osend("op", occurs_after=m1)
        agents["a"].propose("leave", "c")
        scheduler.run()
        snapshots = {m: a.flush_snapshot for m, a in agents.items()}
        assert all(snap is not None for snap in snapshots.values())
        assert snapshots["a"] == snapshots["b"] == snapshots["c"]
        assert {m1, m2} <= snapshots["a"]

    def test_sends_frozen_during_flush(self):
        scheduler, _, membership, stacks, agents = make_group()
        # Block c's drain forever: dependency on a ghost message.
        from repro.types import MessageId

        stacks["c"].osend("blocked", occurs_after=MessageId("ghost", 0))
        agents["a"].propose("leave", "b")
        scheduler.run_until(5.0)
        assert agents["a"].frozen
        with pytest.raises(ProtocolError):
            stacks["a"].bcast("op")

    def test_a_frozen_bcast_raises_before_allocating_a_label(self):
        scheduler, _, membership, stacks, agents = make_group()
        from repro.types import MessageId

        stacks["c"].osend("blocked", occurs_after=MessageId("ghost", 0))
        agents["a"].propose("leave", "b")
        scheduler.run_until(5.0)
        assert agents["a"].frozen
        # The guard is a chassis hook, not a patched instance method.
        assert "bcast" not in vars(stacks["a"])
        with pytest.raises(ProtocolError):
            stacks["a"].bcast("op")
        agents["a"]._init_volatile()  # unfreeze
        assert stacks["a"].bcast("op") == MessageId("a", 0)

    def test_unfrozen_after_install(self):
        scheduler, _, membership, stacks, agents = make_group()
        agents["a"].propose("leave", "c")
        scheduler.run()
        assert not agents["a"].frozen
        stacks["a"].bcast("op")  # must not raise
        scheduler.run()

    def test_concurrent_proposal_rejected_locally(self):
        scheduler, _, membership, stacks, agents = make_group()
        agents["a"].propose("leave", "c")
        scheduler.run_until(0.1)
        # a has delivered its own proposal by now -> pending change set.
        if agents["a"]._pending_change is not None:
            with pytest.raises(ProtocolError):
                agents["a"].propose("leave", "b")

    def test_invalid_proposals_rejected(self):
        _, __, ___, ____, agents = make_group()
        with pytest.raises(MembershipError):
            agents["a"].propose("join", "a")
        with pytest.raises(MembershipError):
            agents["a"].propose("leave", "zz")
        with pytest.raises(ProtocolError):
            agents["a"].propose("explode", "a")

    def test_stale_proposal_for_old_view_ignored(self):
        scheduler, _, membership, stacks, agents = make_group()
        agents["a"].propose("leave", "c")
        scheduler.run()
        assert membership.view.view_id == 1
        # Replay a proposal built against view 0: must be ignored.
        from repro.group.view_sync import ViewChange

        agents["a"]._on_proposal(ViewChange("leave", "b", old_view_id=0))
        assert agents["a"]._pending_change is None
        assert membership.view.members == ("a", "b")


class TestSequentialChanges:
    def test_two_changes_back_to_back(self):
        scheduler, _, membership, stacks, agents = make_group(
            members=("a", "b", "c", "d")
        )
        agents["a"].propose("leave", "d")
        scheduler.run()
        assert membership.view.members == ("a", "b", "c")
        agents["b"].propose("join", "e")
        scheduler.run()
        assert membership.view.members == ("a", "b", "c", "e")
        assert membership.view.view_id == 2


class TestConcurrentProposals:
    """Concurrent same-view proposals used to deadlock: each member froze
    on "its" change and waited forever for the other's FLUSH_OK."""

    def test_concurrent_proposals_converge(self):
        scheduler, _, membership, stacks, agents = make_group(
            members=("a", "b", "c", "d")
        )
        # Two rival proposals in flight for view 0 at the same instant.
        agents["a"].propose("leave", "c")
        agents["b"].propose("leave", "d")
        scheduler.run()
        # The tie-break serialises them; both install, nobody deadlocks.
        assert membership.view.members == ("a", "b")
        assert membership.view.view_id == 2
        assert all(not agent.frozen for agent in agents.values())
        assert all(
            agent._pending_change is None for agent in agents.values()
        )

    def test_leave_beats_concurrent_join(self):
        scheduler, _, membership, stacks, agents = make_group()
        agents["a"].propose("join", "e")
        agents["b"].propose("leave", "c")
        scheduler.run()
        # The leave wins the tie-break and installs first; the join is
        # re-proposed against the new view and lands second.
        assert membership.view.members == ("a", "b", "e")
        assert membership.view.view_id == 2
        first, second = agents["a"].install_history[:2]
        assert first.change.kind == "leave"
        assert second.change.kind == "join"

    def test_duplicate_proposals_install_once(self):
        scheduler, _, membership, stacks, agents = make_group()
        agents["a"].propose("leave", "c")
        agents["b"].propose("leave", "c")
        scheduler.run()
        assert membership.view.members == ("a", "b")
        assert membership.view.view_id == 1


class TestStaleFlushFinalization:
    """A pending flush whose (shared) view moved on must resolve instead
    of waiting forever for FLUSH_OK re-broadcasts nobody sends anymore."""

    def test_adopts_outcome_when_change_already_applied(self):
        from repro.group.view_sync import ViewChange

        scheduler, _, membership, stacks, agents = make_group()
        agent = agents["a"]
        agent._consider(ViewChange("leave", "c", old_view_id=0))
        assert agent.frozen
        # A peer completes the flush first and advances the shared view.
        membership.leave("c")
        scheduler.run()
        assert not agent.frozen
        assert agent._pending_change is None
        assert agent.changes_installed == 1

    def test_reproposes_when_view_changed_some_other_way(self):
        from repro.group.view_sync import ViewChange

        scheduler, _, membership, stacks, agents = make_group()
        agents["a"]._consider(ViewChange("leave", "b", old_view_id=0))
        # The view advances, but b is still a member: the pending change
        # lost a race it never saw and must be re-proposed, not dropped.
        membership.leave("c")
        scheduler.run()
        assert "b" not in membership.view.members
        assert membership.view.view_id == 2
        assert all(not agent.frozen for agent in agents.values())

    def test_init_volatile_abandons_flush(self):
        from repro.group.view_sync import ViewChange

        _, __, ___, ____, agents = make_group()
        agent = agents["a"]
        agent._consider(ViewChange("leave", "c", old_view_id=0))
        assert agent.frozen
        agent._init_volatile()
        assert not agent.frozen
        assert agent._pending_change is None
        assert agent._deferred == []


class TestAViewChangeCostsWhatTheViewsDifferBy:
    """Failing-before: FLUSH_OK carried every label its sender had ever
    settled, held or stored, each delivery during a flush rebuilt the
    digest union and asked ``has_settled`` of every label in it, and
    every ``InstallRecord`` kept two history-sized frozensets.  The
    leave and rejoin of ``s0n0`` made 6 436 Python calls after 400 puts
    and 22 053 after 2 000; the largest FLUSH_OK carried 160, then 800
    labels.  Every view-change value is a cut now, sized by its origins
    plus the labels above their prefix."""

    @staticmethod
    def leave_and_rejoin(puts: int):
        """The history of ``docs/ROBUSTNESS.md``'s view-change
        measurement: one session puts ``k0``…``k9`` in turn, each put
        drained, with a repair round before every 10th.  Then the Python
        calls of ``remove("s0n0")``, a drain, ``rejoin("s0n0")``, a
        repair round and a drain are counted; the FLUSH_OK digests are
        read off the profiled frames, so reading them costs no call."""
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
        on_flush_ok = ViewSyncAgent._on_flush_ok.__code__
        calls, digests = 0, []

        def profile(frame, event, _arg) -> None:
            nonlocal calls
            if event == "call":
                calls += 1
                if frame.f_code is on_flush_ok:
                    digests.append(frame.f_locals["payload"][2])

        sys.setprofile(profile)
        try:
            group.remove("s0n0")
            cluster.drain()
            group.rejoin("s0n0")
            for each in cluster.groups.values():
                each.repair_round()
            cluster.drain()
        finally:
            sys.setprofile(None)
        assert cluster.converged()
        records = [
            record
            for agent in group.view_syncs.values()
            for record in agent.install_history
        ]
        return calls, digests, records

    @staticmethod
    def sizes(digests, records):
        """The largest FLUSH_OK cut, and what ``install_history`` keeps,
        each as origins plus labels above their prefix."""

        def size(cut) -> int:
            return len(cut.prefix) + len(cut.above)

        return max(map(size, digests)), sum(
            size(record.snapshot) + size(record.digest_union)
            for record in records
        )

    def test_a_leave_and_rejoin_do_not_grow_with_the_history(self):
        short_calls, *short = self.leave_and_rejoin(400)
        long_calls, *long = self.leave_and_rejoin(2000)
        # One FLUSH_OK resend and its hops are ~70 calls, ~3 % of the
        # change: whether a flush outlasts a resend interval follows the
        # latency draws the history left, not its length.
        assert abs(long_calls - short_calls) <= 0.05 * short_calls, (
            short_calls, long_calls
        )
        assert self.sizes(*short) == self.sizes(*long)
