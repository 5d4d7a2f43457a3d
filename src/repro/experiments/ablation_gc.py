"""ABLATION-GC — stability tracking vs unbounded repair stores.

Sweeps workload length; reports retained store sizes with and without
delivered-prefix gossip, plus the gossip cost.
"""

from __future__ import annotations

from typing import List

from repro.broadcast.gc import track_group
from repro.broadcast.osend import OSendBroadcast
from repro.group.membership import GroupMembership
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler

TITLE = "ABLATION-GC — repair-store growth with/without stability gossip"
HEADERS = ["messages", "gossip", "total store", "reclaimed", "gossip bcasts"]

MEMBERS = ("a", "b", "c", "d")
GOSSIP_EVERY = 10  # messages between gossip rounds
LENGTHS = (20, 40, 80)


def run_workload(messages: int, gossip: bool, seed: int = 6) -> dict:
    """One chained workload with optional periodic stability gossip."""
    scheduler = Scheduler()
    network = Network(
        scheduler, latency=UniformLatency(0.2, 1.5), rng=RngRegistry(seed)
    )
    membership = GroupMembership(MEMBERS)
    stacks = {
        m: network.register(OSendBroadcast(m, membership)) for m in MEMBERS
    }
    trackers = track_group(stacks) if gossip else {}
    previous = None
    for i in range(messages):
        sender = MEMBERS[i % len(MEMBERS)]
        previous = stacks[sender].osend("op", occurs_after=previous)
        scheduler.run()
        if gossip and (i + 1) % GOSSIP_EVERY == 0:
            for tracker in trackers.values():
                tracker.gossip_round()
            scheduler.run()
    if gossip:  # final settling rounds so the tail becomes stable too
        for _ in range(2):
            for tracker in trackers.values():
                tracker.gossip_round()
            scheduler.run()
    store_total = sum(s.store_size for s in stacks.values())
    reclaimed = sum(t.envelopes_reclaimed for t in trackers.values())
    gossip_sends = sum(
        1
        for event in network.trace.of_kind("send")
        if event.get("operation") == "__gcvec__"
    )
    return {
        "store": store_total,
        "reclaimed": reclaimed,
        "gossip_sends": gossip_sends,
    }


def rows() -> List[list]:
    result = []
    for messages in LENGTHS:
        for gossip in (False, True):
            r = run_workload(messages, gossip)
            result.append(
                [
                    messages,
                    "on" if gossip else "off",
                    r["store"],
                    r["reclaimed"],
                    r["gossip_sends"],
                ]
            )
    return result
