"""Control traffic goes to the one agent that owns its operation.

The chassis files each sidecar under the control operations it declares
(``operations``).  A control envelope reaches its owner's ``intercept``
and nothing else; a data envelope reaches no agent at all.  The stability
tracker owns no operation: the recovery agent hands it each digest.  What
used to ride on every data receive — recovery forgetting a chased label
once it arrives — is a test of the chase set, made on arrival.
"""

from __future__ import annotations

import pytest

from repro.broadcast.gc import StabilityTracker
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import (
    DIGEST_OPERATION,
    NACK_OPERATION,
    RecoveryAgent,
    protect_group,
)
from repro.errors import ConfigurationError
from repro.group.auto_membership import HEARTBEAT_OPERATION, MembershipManager
from repro.group.membership import GroupMembership
from repro.group.replica_group import ReplicaGroup
from repro.group.view_sync import (
    FLUSH_OK_OPERATION,
    VCHG_OPERATION,
    ViewSyncAgent,
)
from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.shard.cluster import ShardedCluster
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.types import Envelope, Message, MessageId

AGENT_CLASSES = (RecoveryAgent, StabilityTracker, ViewSyncAgent, MembershipManager)

OWNER_CLASS = {
    NACK_OPERATION: RecoveryAgent,
    DIGEST_OPERATION: RecoveryAgent,
    VCHG_OPERATION: ViewSyncAgent,
    FLUSH_OK_OPERATION: ViewSyncAgent,
    HEARTBEAT_OPERATION: MembershipManager,
}


def spy_on_intercepts(monkeypatch, call_through: bool):
    """Wrap every agent class's ``intercept`` the way the benchmark's
    tracer does — on the class, after the stacks are built — and record
    ``(agent, operation)`` per call."""
    calls = []
    for cls in AGENT_CLASSES:
        original = cls.intercept

        def spy(self, sender, envelope, _original=original):
            calls.append((self, envelope.message.operation))
            if call_through:
                _original(self, sender, envelope)

        monkeypatch.setattr(cls, "intercept", spy)
    return calls


class TestOneOwnerPerOperation:
    def test_agents_declare_the_operations_they_consume(self):
        declared = {
            op: cls for cls in AGENT_CLASSES for op in cls.operations
        }
        assert declared == OWNER_CLASS

    def test_each_control_operation_reaches_exactly_its_owner(
        self, monkeypatch
    ):
        group = ReplicaGroup(protocol="osend", members=("a", "b", "c"))
        stack = group.stacks["a"]
        owners = {
            RecoveryAgent: group.recoveries["a"],
            ViewSyncAgent: group.view_syncs["a"],
            MembershipManager: group.managers["a"],
        }
        calls = spy_on_intercepts(monkeypatch, call_through=False)
        for seqno, (operation, cls) in enumerate(sorted(OWNER_CLASS.items())):
            envelope = Envelope(Message(MessageId("b!ctl", seqno), operation))
            stack.on_receive("b", envelope)
            assert calls == [(owners[cls], operation)]
            calls.clear()
        # None of it entered the ordering protocol.
        assert stack.holdback_size == 0
        assert stack.delivered_count == 0
        assert stack.duplicates_discarded == 0

    def test_a_data_envelope_meets_no_agent(self, monkeypatch):
        group = ReplicaGroup(protocol="osend", members=("a", "b", "c"))
        calls = spy_on_intercepts(monkeypatch, call_through=True)
        label = group.stacks["a"].osend("put", {"key": "k", "value": 1})
        group.scheduler.run()
        assert calls == []
        assert all(label in s.delivered for s in group.stacks.values())

    def test_a_second_owner_is_refused(self, monkeypatch):
        group = ReplicaGroup(protocol="osend", members=("a", "b", "c"))
        stack = group.stacks["a"]
        for make in (RecoveryAgent, ViewSyncAgent):
            with pytest.raises(ConfigurationError, match="already goes to"):
                make(stack)
        # The refusals changed nothing: the first agents still own their
        # operations, and recovery still hears of arrivals.
        assert stack._recovery is group.recoveries["a"]
        calls = spy_on_intercepts(monkeypatch, call_through=False)
        stack.on_receive(
            "b", Envelope(Message(MessageId("b!rec", 0), DIGEST_OPERATION))
        )
        assert calls == [(group.recoveries["a"], DIGEST_OPERATION)]


class TestNoInterceptsOnTheDataPath:
    def test_a_loss_free_put_loop_makes_no_intercept_call(self, monkeypatch):
        cluster = ShardedCluster(
            shards=2, members_per_shard=3, hop_events="off"
        )
        calls = spy_on_intercepts(monkeypatch, call_through=True)
        sessions = [cluster.router.session(f"s{n}") for n in range(2)]
        for cycle in range(4):
            for n, session in enumerate(sessions):
                for op in range(cycle * 16, cycle * 16 + 16):
                    session.put(f"k{(op * 7 + n) % 32}", op)
            cluster.drain()
        assert len(cluster.ledger) == 128
        assert calls == []
        # Not vacuous: a digest is control traffic and does reach its
        # owner, which hands it on to the stability tracker.
        group = cluster.groups[0]
        next(iter(group.recoveries.values())).anti_entropy_round()
        cluster.drain()
        assert {op for _, op in calls} == {DIGEST_OPERATION}
        assert {type(agent) for agent, _ in calls} == {
            RecoveryAgent, StabilityTracker
        }


class TestChasedLabelArrival:
    def test_arrival_empties_outstanding_labels(self, monkeypatch):
        scheduler = Scheduler()
        faults = FaultPlan()
        network = Network(
            scheduler,
            latency=UniformLatency(0.2, 1.5),
            faults=faults,
            rng=RngRegistry(0),
        )
        membership = GroupMembership(["a", "b", "c"])
        stacks = {
            m: network.register(OSendBroadcast(m, membership))
            for m in ("a", "b", "c")
        }
        agents = protect_group(stacks, scan_interval=1.0, nack_backoff=2.0)
        chaser = agents["b"]
        # Only the arrival may clear chase state here: the scan's sweep
        # of settled labels is switched off.
        monkeypatch.setattr(chaser, "_purge_settled", lambda: None)
        arrivals = []
        arrived = chaser.arrived
        monkeypatch.setattr(
            chaser, "arrived", lambda label: (arrivals.append(label), arrived(label))
        )
        faults.partition(["a", "c"], ["b"])
        first = stacks["a"].osend("first")
        scheduler.run()
        faults.heal()
        assert arrivals == []  # nothing chased yet: arrivals go unreported
        second = stacks["a"].osend("second", occurs_after=first)
        scheduler.run()
        assert chaser.nacks_sent > 0
        assert first in arrivals
        assert stacks["b"].delivered == [first, second]
        assert chaser.outstanding_labels == []
        assert chaser._first_missing == {}
