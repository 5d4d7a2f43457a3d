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
from repro.broadcast.recovery import RecoveryAgent
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


# -- whole frames: delivery on arrival against the per-envelope rescan ------
#
# A frame lands at `SimNode.on_frame`, which hands its envelopes to
# `on_receive` in send order; each is delivered on the spot while nothing
# is held back and its predicate holds.  `naive(cls)` holds every arrival
# and rescans, so these cases judge frame arrival against the
# specification, not against itself.

#: A label no frame ever carries: an ancestor that never arrives.
FOREIGN = MessageId("z", 0)


class _Sidecar:
    """Owns the control operation ``ctl`` and logs what it consumed."""

    operations = ("ctl",)

    def __init__(self):
        self.consumed = []

    def intercept(self, sender, envelope):
        self.consumed.append(envelope.msg_id)


@st.composite
def frame_plans(draw):
    """Labels ``b:0..n-1`` with random ``Occurs-After`` sets, and frames.

    An ancestor is lower (a run in order), higher (uncovered when its
    descendant lands — maybe later in the same frame) or foreign (never
    arrives).  A frame draws labels with replacement (duplicates), a few
    as control operations.  Before a frame, recovery may start chasing a
    label; during it, delivering a chosen label may crash the member,
    which restarts before the next frame.
    """
    n = draw(st.integers(1, 8))
    deps = [
        draw(st.lists(
            st.integers(-1, n - 1).filter(lambda j, i=i: j != i), max_size=2
        ))
        for i in range(n)
    ]
    item = st.tuples(
        st.integers(0, n - 1), st.sampled_from(("op", "op", "op", "ctl"))
    )
    frames = draw(st.lists(
        st.tuples(
            st.lists(item, min_size=1, max_size=8),
            st.one_of(st.none(), st.integers(0, n - 1)),
            st.one_of(st.none(), st.integers(0, n - 1)),
        ),
        min_size=1,
        max_size=5,
    ))
    return deps, frames


def _frame_run(cls, plan):
    """Hand ``plan``'s frames to one member; what it did after each and
    the trace it left."""
    deps, frames = plan
    labels = [MessageId("b", i) for i in range(len(deps))]

    def envelope(i, operation):
        ancestors = [FOREIGN if j < 0 else labels[j] for j in deps[i]]
        return Envelope(
            Message(labels[i], operation, None),
            occurs_after=OccursAfter.after(ancestors),
        )

    net = Network(Scheduler(), rng=RngRegistry(0))
    stack = cls("a", GroupMembership(MEMBERS))
    net.register(stack)
    sidecar = _Sidecar()
    stack.add_interceptor(sidecar)
    # Never started: it chases only what the plan plants.
    recovery = RecoveryAgent(stack)
    crash_at = [None]

    def crash(delivered):
        if delivered.msg_id == crash_at[0] and not stack.crashed:
            stack.crash()

    stack.on_deliver(crash)
    steps = []
    for items, chase, crash_on in frames:
        if stack.crashed:
            stack.restart()
        if chase is not None:
            recovery._first_missing.setdefault(labels[chase], 0.0)
        crash_at[0] = None if crash_on is None else labels[crash_on]
        taken = stack.on_frame("b", [envelope(i, op) for i, op in items])
        steps.append((
            taken,
            stack.crashed,
            stack.delivered,
            stack.holdback_ids,
            stack.duplicates_discarded,
            stack.max_holdback,
            list(sidecar.consumed),
            sorted(recovery._first_missing),
        ))
    trace = [(event.kind, dict(event.details)) for event in net.trace]
    return steps, trace


@settings(max_examples=200, deadline=None)
@given(plan=frame_plans())
def test_frame_arrival_equivalence(plan):
    """Broken runs, foreign and uncovered ancestors mid-frame,
    duplicates, control operations, frames landing on a non-empty
    hold-back queue, recovery chasing a label and a crash mid-frame: a
    frame leaves the state, the trace and the delivery order the
    per-envelope rescan leaves, frame by frame."""
    steps, trace = _frame_run(OSendBroadcast, plan)
    reference, reference_trace = _frame_run(naive(OSendBroadcast), plan)
    assert steps == reference
    assert trace == reference_trace


def test_a_frame_delivers_a_run_on_arrival_and_holds_at_a_gap():
    """An in-order frame is delivered envelope by envelope as it lands,
    with nothing ever held back.  An envelope whose ancestor is uncovered
    is held back until the ancestor lands later in the frame."""
    chain = ([], [0], [1], [2], [3], [4])
    in_order = [([(i, "op") for i in range(6)], None, None)]
    steps, _ = _frame_run(OSendBroadcast, (chain, in_order))
    taken, _, delivered, held, _, peak, _, _ = steps[-1]
    assert (taken, held, peak) == (6, [], 1)
    assert delivered == [MessageId("b", i) for i in range(6)]
    gap = [([(i, "op") for i in (0, 1, 3, 2, 4, 5)], None, None)]
    steps, _ = _frame_run(OSendBroadcast, (chain, gap))
    taken, _, delivered, held, _, peak, _, _ = steps[-1]
    # 3 waits for 2, so 2 lands on a queue of one.
    assert (taken, held, peak) == (6, [], 2)
    assert delivered == [MessageId("b", i) for i in range(6)]


def _bursts(send, sends: Sequence[Tuple[str, float]]):
    """At each planned time the member sends 1-4 messages corked: one
    frame per destination."""

    def drive(stacks, rng):
        def burst(stack):
            stack.network.cork()
            for _ in range(rng.randint(1, 4)):
                send(stack, rng)

        for sender, at in sends:
            stack = stacks[sender]
            stack.scheduler.call_in(at, lambda s=stack: burst(s))

    return drive


def _osend_burst():
    issued: List[MessageId] = []

    def send(stack, rng):
        k = rng.randint(0, min(3, len(issued)))
        deps = rng.sample(issued, k) if k else None
        issued.append(stack.osend("op", occurs_after=deps))

    return send


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(1, 8),
    protocol=st.sampled_from(("osend", "cbcast", "fifo", "rst", "sequencer", "lamport")),
    drop=st.sampled_from([0.0, 0.2]),
    duplicate=st.sampled_from([0.0, 0.2]),
)
def test_corked_frames_equivalence(seed, count, protocol, drop, duplicate):
    """Every protocol, fed multi-envelope frames over a lossy network,
    delivers what the per-envelope rescan delivers."""
    plan = _send_plan(random.Random(seed * 47 + 23), count)
    classes = {
        "osend": OSendBroadcast, "cbcast": CbcastBroadcast,
        "fifo": FifoBroadcast, "rst": RstBroadcast,
        "sequencer": SequencerTotalOrder, "lamport": LamportTotalOrder,
    }
    if protocol == "osend":
        traffic = lambda stacks, rng: _bursts(_osend_burst(), plan)(stacks, rng)
    elif protocol == "lamport":
        traffic = _bursts(lambda s, _rng: s.total_send("op"), plan)
    else:
        traffic = _bursts(lambda s, _rng: s.bcast("op"), plan)
    assert_equivalent(
        classes[protocol], seed, traffic, drop=drop, duplicate=duplicate
    )
