"""Whole-stack integration: loss + recovery + GC + join + consistency.

One scenario exercising every subsystem together, the way a deployment
would run them: a lossy network, the §6.1 access protocol, the recovery
layer keeping it live, stability tracking reclaiming stores, a member
joining mid-run via state transfer, and the full battery of consistency
checks at the end.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.causal_check import verify_against_graph
from repro.analysis.convergence import stable_points_agree, states_agree
from repro.broadcast.gc import track_group
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import protect_group
from repro.core.commutativity import counter_spec
from repro.core.frontend import FrontEndManager
from repro.core.replica import Replica
from repro.core.state_machine import counter_machine
from repro.core.state_transfer import bootstrap_joiner
from repro.group.membership import GroupMembership
from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler


class FullSystem:
    """Harness wiring every layer together on a lossy network."""

    def __init__(self, drop: float = 0.15, seed: int = 0) -> None:
        self.scheduler = Scheduler()
        self.faults = FaultPlan(drop_probability=drop)
        self.network = Network(
            self.scheduler,
            latency=UniformLatency(0.2, 1.5),
            faults=self.faults,
            rng=RngRegistry(seed),
        )
        self.membership = GroupMembership(["a", "b", "c"])
        self.spec = counter_spec()
        self.stacks = {}
        self.replicas = {}
        self.frontends = {}
        for member in ("a", "b", "c"):
            self._add_member(member)
        self.agents = protect_group(
            self.stacks, scan_interval=1.0, nack_backoff=2.0
        )
        self.trackers = track_group(self.stacks)

    def _add_member(self, member: str):
        stack = self.network.register(OSendBroadcast(member, self.membership))
        self.stacks[member] = stack
        self.replicas[member] = Replica(stack, counter_machine(), self.spec)
        self.frontends[member] = FrontEndManager(stack, self.spec)
        return stack

    def drive_cycles(self, cycles: int, f: int, rng: random.Random) -> int:
        """Issue §6.1 cycles through random front-ends; returns requests."""
        issued = 0
        for _ in range(cycles):
            for _ in range(f):
                member = rng.choice(list(self.frontends))
                self.frontends[member].request(
                    rng.choice(["inc", "dec"]), {"item": "x", "amount": 1}
                )
                issued += 1
                self.scheduler.run_until(self.scheduler.now + 0.5)
            self.frontends["a"].request("rd", {"item": "x"})
            issued += 1
            self.scheduler.run_until(self.scheduler.now + 2.0)
        return issued

    def settle(self, expected: int, max_rounds: int = 40) -> None:
        """Drain, anti-entropy until everyone has everything."""
        self.scheduler.run(max_events=500_000)
        for _ in range(max_rounds):
            if all(
                len(s.delivered) >= expected for s in self.stacks.values()
            ):
                return
            for agent in self.agents.values():
                agent.anti_entropy_round()
            self.scheduler.run(max_events=500_000)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lossy_full_stack_converges(seed):
    system = FullSystem(drop=0.15, seed=seed)
    rng = random.Random(seed)
    issued = system.drive_cycles(cycles=3, f=4, rng=rng)
    system.settle(expected=issued)

    # Everyone delivered everything, causally.
    sequences = {m: s.delivered for m, s in system.stacks.items()}
    assert all(len(seq) == issued for seq in sequences.values())
    reference = system.stacks["a"].graph
    assert verify_against_graph(reference, sequences) == []

    # Consistency: live convergence and stable-point agreement.
    states = {m: r.read_now() for m, r in system.replicas.items()}
    assert states_agree(states) == []
    assert stable_points_agree(system.replicas) == []
    assert all(r.stable_point_count == 3 for r in system.replicas.values())


def test_gc_runs_while_traffic_flows():
    system = FullSystem(drop=0.0, seed=9)
    rng = random.Random(9)
    issued = system.drive_cycles(cycles=2, f=3, rng=rng)
    system.settle(expected=issued)
    # Two digest rounds so every member knows every member's prefixes.
    for _ in range(2):
        for agent in system.agents.values():
            agent.anti_entropy_round()
        system.scheduler.run()
    for tracker in system.trackers.values():
        assert tracker.store_size == 0
        assert tracker.envelopes_reclaimed >= issued


def test_late_joiner_full_flow():
    system = FullSystem(drop=0.0, seed=4)
    rng = random.Random(4)
    issued = system.drive_cycles(cycles=2, f=3, rng=rng)
    system.settle(expected=issued)

    # d joins: new view, snapshot from a, replay, then more traffic.
    system.membership.join("d")
    joiner_stack = system.network.register(
        OSendBroadcast("d", system.membership)
    )
    joiner = Replica(joiner_stack, counter_machine(), system.spec)
    snapshot = bootstrap_joiner(joiner, system.replicas["a"])
    assert snapshot.covered
    assert joiner.read_now() == system.replicas["a"].read_now()

    system.frontends["d"] = FrontEndManager(joiner_stack, system.spec)
    system.replicas["d"] = joiner
    system.stacks["d"] = joiner_stack
    more = system.drive_cycles(cycles=1, f=2, rng=rng)
    system.scheduler.run(max_events=500_000)

    states = {m: r.read_now() for m, r in system.replicas.items()}
    assert states_agree(states) == []
    # The joiner delivered all post-join traffic, plus any pre-join
    # messages outside the snapshot's causal cut (replayed by the donor).
    assert len(joiner_stack.delivered) >= more
