"""ABLATION-GC — stability tracking vs unbounded repair stores.

Sweeps workload length; reports retained store sizes with and without
stability tracking, plus its cost: the anti-entropy digests that carry
each member's settled prefix.  Their recovery agents are never started,
so they only send digests (stability without loss repair).
"""

from __future__ import annotations

from typing import List

from repro.broadcast.gc import track_group
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import DIGEST_OPERATION, RecoveryAgent
from repro.group.membership import GroupMembership
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler

TITLE = "ABLATION-GC — repair-store growth with/without stability tracking"
HEADERS = ["messages", "stability", "total store", "reclaimed", "digests", "nacks"]

MEMBERS = ("a", "b", "c", "d")
ROUND_EVERY = 10  # messages between digest rounds
LENGTHS = (20, 40, 80)


def run_workload(messages: int, stability: bool, seed: int = 6) -> dict:
    """One chained workload with optional stability tracking."""
    scheduler = Scheduler()
    network = Network(
        scheduler, latency=UniformLatency(0.2, 1.5), rng=RngRegistry(seed)
    )
    membership = GroupMembership(MEMBERS)
    stacks = {
        m: network.register(OSendBroadcast(m, membership)) for m in MEMBERS
    }
    trackers = track_group(stacks) if stability else {}
    agents = [RecoveryAgent(s) for s in stacks.values()] if stability else []

    def digest_round() -> None:
        for agent in agents:
            agent.anti_entropy_round()
        scheduler.run()

    previous = None
    for i in range(messages):
        sender = MEMBERS[i % len(MEMBERS)]
        previous = stacks[sender].osend("op", occurs_after=previous)
        scheduler.run()
        if (i + 1) % ROUND_EVERY == 0:
            digest_round()
    for _ in range(2):  # final rounds so the tail becomes stable too
        digest_round()
    return {
        "store": sum(s.store_size for s in stacks.values()),
        "reclaimed": sum(t.envelopes_reclaimed for t in trackers.values()),
        "digests": sum(
            1
            for event in network.trace.of_kind("send")
            if event.get("operation") == DIGEST_OPERATION
        ),
        "nacks": sum(agent.nacks_sent for agent in agents),
    }


def rows() -> List[list]:
    result = []
    for messages in LENGTHS:
        for stability in (False, True):
            r = run_workload(messages, stability)
            result.append(
                [
                    messages,
                    "on" if stability else "off",
                    r["store"],
                    r["reclaimed"],
                    r["digests"],
                    r["nacks"],
                ]
            )
    return result
