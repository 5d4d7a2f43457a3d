"""Indexed wakeup drain ≡ naive rescan drain, bit for bit.

The indexed engine must reproduce the naive drain's delivery schedule
exactly — same labels, same order, same simulation times — because the
naive pass semantics (snapshot the queue, scan in arrival order, repeat
while progress) are the *specification* of the deterministic tie-break.
The naive drain lives beside these tests (``naive_drain.py``):
``naive(cls)`` is the protocol class with the rescan in place of the
index.  These tests run every protocol both ways on identical seeded
scenarios (random latencies, drops, duplicates) and compare:

* the full per-member delivery log (labels, positions, times),
* ``max_holdback`` (queue pressure must peak identically),
* ``duplicates_discarded``.

The regression test at the bottom pins the perf property itself: the
indexed drain evaluates each envelope's predicate once per unblocking
event, never rescanning bystanders (satellite of the wakeup-engine
issue).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.asend import ASendTotalOrder
from repro.broadcast.base import BroadcastProtocol
from repro.broadcast.cbcast import CbcastBroadcast
from repro.broadcast.fifo import FifoBroadcast
from repro.broadcast.lamport_total import LamportTotalOrder
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.rst import RstBroadcast
from repro.broadcast.sequencer import SequencerTotalOrder
from repro.graph.predicates import OccursAfter
from repro.group.membership import GroupMembership
from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.types import EntityId, Envelope, Message, MessageId
from tests.broadcast.naive_drain import naive


def osend_envelope(label: MessageId, deps=None) -> Envelope:
    """A hand-built OSend envelope, for direct on_receive injection."""
    return Envelope(
        Message(label, "op", None),
        occurs_after=OccursAfter.after(deps),
    )

MEMBERS = ("a", "b", "c")

#: OSend through each drain, for the hand-injected cases below.
OSEND_DRAINS = (("indexed", OSendBroadcast), ("naive", naive(OSendBroadcast)))

Snapshot = Dict[EntityId, dict]


def _run(
    protocol_cls,
    seed: int,
    traffic: Callable[[Dict[EntityId, BroadcastProtocol], random.Random], None],
    drop: float = 0.0,
    duplicate: float = 0.0,
    **protocol_kwargs,
) -> Snapshot:
    """One seeded scenario run by ``protocol_cls``."""
    scheduler = Scheduler()
    net = Network(
        scheduler,
        latency=UniformLatency(0.1, 4.0),
        faults=FaultPlan(drop_probability=drop, duplicate_probability=duplicate),
        rng=RngRegistry(seed),
    )
    membership = GroupMembership(MEMBERS)
    stacks: Dict[EntityId, BroadcastProtocol] = {}
    for member in MEMBERS:
        stack = protocol_cls(member, membership, **protocol_kwargs)
        net.register(stack)
        stacks[member] = stack
    traffic(stacks, random.Random(seed))
    scheduler.run()
    return {
        member: {
            "log": [
                (r.msg_id, r.position, r.time) for r in stack.delivery_log
            ],
            "max_holdback": stack.max_holdback,
            "duplicates": stack.duplicates_discarded,
            "holdback": sorted(stack.holdback_ids),
        }
        for member, stack in stacks.items()
    }


def assert_equivalent(protocol_cls, seed, traffic, **kwargs) -> None:
    indexed = _run(protocol_cls, seed, traffic, **kwargs)
    rescan = _run(naive(protocol_cls), seed, traffic, **kwargs)
    assert indexed == rescan


# -- traffic shapes ----------------------------------------------------------


def plain_traffic(sends: Sequence[Tuple[str, float]]):
    """Timed broadcasts from the given members, no protocol options."""

    def drive(stacks, _rng):
        for sender, at in sends:
            stack = stacks[sender]
            stack.scheduler.call_in(at, lambda s=stack: s.bcast("op"))

    return drive


def osend_traffic(sends: Sequence[Tuple[str, float]]):
    """OSend traffic with random Occurs-After subsets of earlier labels."""

    def drive(stacks, rng):
        issued: List[MessageId] = []

        def fire(stack):
            k = rng.randint(0, min(3, len(issued)))
            deps = rng.sample(issued, k) if k else None
            issued.append(stack.osend("op", occurs_after=deps))

        for sender, at in sends:
            stack = stacks[sender]
            stack.scheduler.call_in(at, lambda s=stack: fire(s))

    return drive


def asend_traffic(epochs: int):
    """One message per member per epoch (complete epochs, default close)."""

    def drive(stacks, rng):
        for epoch in range(epochs):
            for member, stack in stacks.items():
                at = rng.uniform(0.0, 2.0) + epoch
                stack.scheduler.call_in(
                    at,
                    lambda s=stack, e=epoch: s.asend("op", epoch=e),
                )

    return drive


def lamport_traffic(sends: Sequence[Tuple[str, float]]):
    def drive(stacks, _rng):
        for sender, at in sends:
            stack = stacks[sender]
            stack.scheduler.call_in(at, lambda s=stack: s.total_send("op"))

    return drive


def _send_plan(rng: random.Random, count: int) -> List[Tuple[str, float]]:
    return [
        (rng.choice(MEMBERS), round(rng.uniform(0.0, 6.0), 3))
        for _ in range(count)
    ]


# -- the six protocols -------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(1, 12))
def test_osend_equivalence(seed, count):
    plan = _send_plan(random.Random(seed * 31 + 7), count)
    assert_equivalent(OSendBroadcast, seed, osend_traffic(plan))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(1, 12))
def test_cbcast_equivalence(seed, count):
    plan = _send_plan(random.Random(seed * 17 + 3), count)
    assert_equivalent(CbcastBroadcast, seed, plain_traffic(plan))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(1, 12))
def test_fifo_equivalence(seed, count):
    plan = _send_plan(random.Random(seed * 13 + 1), count)
    assert_equivalent(FifoBroadcast, seed, plain_traffic(plan))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(1, 12))
def test_rst_equivalence(seed, count):
    plan = _send_plan(random.Random(seed * 11 + 5), count)
    assert_equivalent(RstBroadcast, seed, plain_traffic(plan))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), epochs=st.integers(1, 4))
def test_asend_equivalence(seed, epochs):
    assert_equivalent(ASendTotalOrder, seed, asend_traffic(epochs))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(1, 10))
def test_sequencer_equivalence(seed, count):
    plan = _send_plan(random.Random(seed * 7 + 9), count)
    assert_equivalent(SequencerTotalOrder, seed, plain_traffic(plan))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(1, 10))
def test_lamport_equivalence(seed, count):
    plan = _send_plan(random.Random(seed * 5 + 2), count)
    assert_equivalent(LamportTotalOrder, seed, lamport_traffic(plan))


# -- faults: drops and duplicates -------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(1, 12),
    drop=st.sampled_from([0.0, 0.1, 0.3]),
    duplicate=st.sampled_from([0.0, 0.15]),
)
def test_cbcast_equivalence_under_faults(seed, count, drop, duplicate):
    plan = _send_plan(random.Random(seed * 41 + 13), count)
    assert_equivalent(
        CbcastBroadcast,
        seed,
        plain_traffic(plan),
        drop=drop,
        duplicate=duplicate,
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(1, 12),
    drop=st.sampled_from([0.0, 0.2]),
    duplicate=st.sampled_from([0.0, 0.2]),
)
def test_osend_equivalence_under_faults(seed, count, drop, duplicate):
    plan = _send_plan(random.Random(seed * 43 + 19), count)
    assert_equivalent(
        OSendBroadcast,
        seed,
        osend_traffic(plan),
        drop=drop,
        duplicate=duplicate,
    )


# -- the distinguishing pass-semantics case ---------------------------------


def test_pass_boundary_tie_break():
    """Queue [A, B, C, D]: A, C blocked on B; B blocked on D.

    D's arrival triggers the drain with all four pending.  The naive scan
    delivers D (pass 1), then B and C (pass 2 — C sits *after* B in
    arrival order, so B's delivery unblocks it mid-pass), then A (pass 3
    — it sits *before* B, so the cursor has already passed it).  The
    indexed engine must reproduce exactly this D, B, C, A schedule via
    its cursor-routing rule, not the naive scan.
    """
    a, b, c, d = (MessageId("b", i) for i in range(4))
    for mode, cls in OSEND_DRAINS:
        scheduler = Scheduler()
        net = Network(scheduler, rng=RngRegistry(0))
        membership = GroupMembership(MEMBERS)
        stack = cls("a", membership)
        net.register(stack)
        # Hand-deliver receives to control arrival order precisely.
        stack.on_receive("b", osend_envelope(a, [b]))
        stack.on_receive("b", osend_envelope(b, [d]))
        stack.on_receive("b", osend_envelope(c, [b]))
        assert stack.delivered == []
        stack.on_receive("b", osend_envelope(d))
        assert stack.delivered == [d, b, c, a], mode


# -- perf regression: no rescans --------------------------------------------


def test_indexed_drain_never_rescans_bystanders():
    """A reverse-arrival chain costs exactly one evaluation per envelope.

    Each delivery unblocks exactly one successor, so the indexed engine
    must evaluate each predicate once — while the naive drain rescans the
    whole queue per pass, paying O(N²).
    """
    n = 60
    counts = {}
    for mode, cls in OSEND_DRAINS:
        scheduler = Scheduler()
        net = Network(scheduler, rng=RngRegistry(0))
        membership = GroupMembership(("a", "b"))
        receiver = cls("a", membership)
        net.register(receiver)
        labels = [MessageId("b", i) for i in range(n)]
        envelopes = [
            osend_envelope(labels[i], [labels[i - 1]] if i else None)
            for i in range(n)
        ]
        for envelope in reversed(envelopes):  # deepest dependency first
            receiver.on_receive("b", envelope)
        assert receiver.delivered == labels
        counts[mode] = receiver.predicate_evaluations
    assert counts["indexed"] == n
    # Naive: each of the n-1 blocked arrivals rescans everything pending
    # (n(n-1)/2), then the final drain delivers one per pass (n(n+1)/2).
    assert counts["naive"] == n * n


def test_wakeup_evaluations_bounded_by_unblocking_events():
    """No envelope is evaluated more than once per unblocking event.

    Upper bound: one evaluation at arrival plus one per (envelope,
    delivery) wake — far below the naive drain's rescans.
    """
    scheduler = Scheduler()
    net = Network(
        scheduler, latency=UniformLatency(0.1, 4.0), rng=RngRegistry(5)
    )
    membership = GroupMembership(MEMBERS)
    stacks = {}
    for member in MEMBERS:
        stacks[member] = net.register(CbcastBroadcast(member, membership))
    plan = _send_plan(random.Random(99), 15)
    for sender, at in plan:
        stack = stacks[sender]
        stack.scheduler.call_in(at, lambda s=stack: s.bcast("op"))
    scheduler.run()
    for stack in stacks.values():
        deliveries = stack.delivered_count
        arrivals = deliveries + stack.holdback_size
        # one eval per arrival + at most one per (pending envelope, delivery)
        assert stack.predicate_evaluations <= arrivals + deliveries * arrivals
