#!/usr/bin/env python3
"""Loss recovery: causal hold-back + NACK repair + anti-entropy.

A lossy network drops 30% of hops.  Without recovery, causal chains
dangle (safety holds, liveness does not).  With the recovery layer —
hold-back-driven NACKs plus digest anti-entropy — every member converges
to the full history, and the stability tracker then reclaims the repair
stores.

Run::

    python examples/fault_recovery_demo.py
"""

from __future__ import annotations

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
MESSAGES = 12


def build(recovery: bool, seed: int = 8):
    scheduler = Scheduler()
    network = Network(
        scheduler,
        latency=UniformLatency(0.2, 1.5),
        faults=FaultPlan(drop_probability=0.3),
        rng=RngRegistry(seed),
    )
    membership = GroupMembership(MEMBERS)
    stacks = {
        m: network.register(OSendBroadcast(m, membership)) for m in MEMBERS
    }
    agents = (
        protect_group(stacks, scan_interval=1.0, nack_backoff=2.0)
        if recovery
        else {}
    )
    previous = None
    for i in range(MESSAGES):
        previous = stacks[MEMBERS[i % 3]].osend("op", occurs_after=previous)
    return scheduler, stacks, agents


def main() -> None:
    # Without recovery.
    scheduler, stacks, _ = build(recovery=False)
    scheduler.run()
    print("Without recovery (30% drop):")
    for member, stack in stacks.items():
        print(f"  {member}: delivered {len(stack.delivered)}/{MESSAGES}")

    # With recovery.
    scheduler, stacks, agents = build(recovery=True)
    scheduler.run(max_events=500_000)
    rounds = 0
    while not all(len(s.delivered) == MESSAGES for s in stacks.values()):
        rounds += 1
        for agent in agents.values():
            agent.anti_entropy_round()
        scheduler.run(max_events=500_000)
    print(f"\nWith recovery (same seed, {rounds} anti-entropy round(s)):")
    for member, stack in stacks.items():
        agent = agents[member]
        print(f"  {member}: delivered {len(stack.delivered)}/{MESSAGES}  "
              f"(nacks={agent.nacks_sent}, repairs served={agent.repairs_sent})")

    # Garbage-collect the repair stores once everything is stable: the
    # digests carry each member's settled prefix to the trackers.
    trackers = track_group(stacks)
    for _ in range(2):
        for agent in agents.values():
            agent.anti_entropy_round()
        scheduler.run()
    print("\nAfter two digest rounds with stability tracking:")
    for member, tracker in trackers.items():
        print(f"  {member}: repair store size {tracker.store_size} "
              f"(reclaimed {tracker.envelopes_reclaimed})")


if __name__ == "__main__":
    main()
