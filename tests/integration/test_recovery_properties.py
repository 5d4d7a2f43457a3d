"""Property-based tests for the recovery + GC composition.

Random workloads over random lossy networks: recovery must restore full
causal delivery, GC must never reclaim anything a member still needs,
and the combination must preserve every safety invariant.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.causal_check import verify_against_graph
from repro.broadcast.gc import track_group
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import protect_group
from repro.group.membership import GroupMembership
from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler

MEMBERS = ("a", "b", "c")


def build(drop: float, seed: int, with_gc: bool = False):
    scheduler = Scheduler()
    network = Network(
        scheduler,
        latency=UniformLatency(0.2, 1.5),
        faults=FaultPlan(drop_probability=drop),
        rng=RngRegistry(seed),
    )
    membership = GroupMembership(MEMBERS)
    stacks = {
        m: network.register(OSendBroadcast(m, membership)) for m in MEMBERS
    }
    agents = protect_group(stacks, scan_interval=1.0, nack_backoff=2.0)
    trackers = track_group(stacks) if with_gc else {}
    return scheduler, stacks, agents, trackers


def settle(scheduler, stacks, agents, count: int, rounds: int = 60) -> None:
    scheduler.run(max_events=1_000_000)
    for _ in range(rounds):
        if all(len(s.delivered) == count for s in stacks.values()):
            return
        for agent in agents.values():
            agent.anti_entropy_round()
        scheduler.run(max_events=1_000_000)


class TestRecoveryProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 50_000),
        drop=st.floats(0.0, 0.35),
        data=st.data(),
    )
    def test_random_graphs_fully_recover_causally(self, seed, drop, data):
        scheduler, stacks, agents, _ = build(drop, seed)
        issued: list = []
        count = data.draw(st.integers(2, 8), label="count")
        for i in range(count):
            sender = data.draw(st.sampled_from(MEMBERS), label=f"s{i}")
            deps = (
                data.draw(
                    st.sets(st.sampled_from(issued), max_size=2),
                    label=f"d{i}",
                )
                if issued
                else set()
            )
            issued.append(
                stacks[sender].osend("op", occurs_after=frozenset(deps))
            )
        settle(scheduler, stacks, agents, count)
        sequences = {m: s.delivered for m, s in stacks.items()}
        for sequence in sequences.values():
            assert len(sequence) == count
        reference = stacks[MEMBERS[0]].graph
        assert verify_against_graph(reference, sequences) == []
        # No double delivery ever.
        for sequence in sequences.values():
            assert len(set(sequence)) == len(sequence)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 50_000), drop=st.floats(0.0, 0.3))
    def test_gc_never_breaks_recovery(self, seed, drop):
        """Interleave digest rounds, and so compaction, with the traffic:
        compaction must only ever drop envelopes everyone already has,
        so recovery still completes."""
        scheduler, stacks, agents, trackers = build(drop, seed, with_gc=True)
        previous = None
        count = 9
        for i in range(count):
            previous = stacks[MEMBERS[i % 3]].osend(
                "op", occurs_after=previous
            )
            if i % 3 == 2:
                for agent in agents.values():
                    agent.anti_entropy_round()
        scheduler.run(max_events=1_000_000)
        for _ in range(60):
            if all(len(s.delivered) == count for s in stacks.values()):
                break
            for agent in agents.values():
                agent.anti_entropy_round()
            scheduler.run(max_events=1_000_000)
        for stack in stacks.values():
            assert len(stack.delivered) == count
        # Whatever was reclaimed was genuinely stable: every member ended
        # with the full history regardless.
        total_reclaimed = sum(
            t.envelopes_reclaimed for t in trackers.values()
        )
        assert total_reclaimed >= 0
