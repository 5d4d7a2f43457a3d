"""A run is delivered as delivery on arrival delivers it, envelope by envelope.

`BroadcastProtocol._take` delivers consecutive envelopes of a frame
that would each be delivered on arrival, with nothing held back, as one
*run*: one bookkeeping step and no callback.  These tests hand the same
frames to three OSend stacks that carry the replica group's sidecars
(stability tracker, view-sync agent, recovery), a watcher hook with its
``quiet`` check and a frontier caught up from the delivery log, as
``ShardedCluster`` registers and keeps them:

* ``OSendBroadcast``, which takes runs;
* ``PerEnvelope``, which re-states ``_accept`` and so takes every
  envelope on its own;
* ``naive(OSendBroadcast)``, the rescan drain, the specification.

Frames mix in-order runs, gaps, duplicates, uncovered and foreign
ancestors, a second origin, control envelopes owned by the tracker or
the view-sync agent, a watched label and a crash mid-frame.  After every
frame all three must agree on the delivery log, the counters, the
tracker's prefixes (caught up before they are read) and the frontier's
heads.
"""

from __future__ import annotations

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.gc import GC_VECTOR_OPERATION, StabilityTracker
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import RecoveryAgent
from repro.graph.predicates import OccursAfter
from repro.group.membership import GroupMembership
from repro.group.view_sync import VCHG_OPERATION, ViewChange, ViewSyncAgent
from repro.net.network import Network
from repro.shard.frontier import FrontierTracker
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder
from repro.types import Envelope, Message, MessageId
from tests.broadcast.naive_drain import naive

MEMBERS = ("a", "b", "c")

#: An ancestor no frame ever carries.
FOREIGN = MessageId("z", 0)


class PerEnvelope(OSendBroadcast):
    """OSend that takes every envelope on its own."""

    def _accept(self, envelope, msg_id, arrival):
        super()._accept(envelope, msg_id, arrival)


def test_which_classes_take_runs():
    assert OSendBroadcast._takes_runs
    assert not PerEnvelope._takes_runs
    assert not naive(OSendBroadcast)._takes_runs


@st.composite
def plans(draw):
    """Labels ``b:0..n-1`` and ``c:0..m-1`` with ``Occurs-After`` sets,
    and the frames ``b`` sends ``a``.

    Most labels follow their predecessor (in-order runs); the rest draw
    up to two ancestors, lower, higher (uncovered when it lands) or
    foreign.  A frame is a list of segments — the ``b`` labels after the
    last one sent, a run of ``b`` labels from anywhere, one label of
    either origin (a duplicate, a gap, a relayed ``c`` label), a tracker
    gossip or a view-change proposal —
    plus a label recovery starts chasing, one whose delivery crashes the
    member, and one a watcher waits for.
    """
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 3))
    labels = [MessageId("b", i) for i in range(n)]
    labels += [MessageId("c", j) for j in range(m)]
    deps = []
    for i, label in enumerate(labels):
        chained = [i - 1] if label.seqno > 0 else []
        drawn = draw(st.one_of(
            st.just(chained),
            st.just(chained),
            st.lists(
                st.integers(-1, len(labels) - 1).filter(lambda j, i=i: j != i),
                max_size=2,
            ),
        ))
        deps.append(drawn)
    following = st.tuples(st.just("next"), st.integers(1, 8))
    segment = st.one_of(
        following,
        following,
        following,
        st.tuples(st.just("run"), st.integers(0, n - 1), st.integers(1, 8)),
        st.tuples(st.just("one"), st.integers(0, len(labels) - 1)),
        st.tuples(st.just("gc"), st.integers(0, n), st.integers(0, m)),
        st.tuples(st.just("vs")),
    )
    label_or_none = st.one_of(
        st.none(), st.none(), st.none(), st.integers(0, len(labels) - 1)
    )
    frames = draw(st.lists(
        st.tuples(
            st.lists(segment, min_size=1, max_size=4),
            label_or_none,  # chase
            label_or_none,  # crash on delivery
            label_or_none,  # watch
        ),
        min_size=1,
        max_size=6,
    ))
    return labels, deps, frames


def _precedes(labels, deps):
    """The plan's causal order, for the frontier tracker."""
    index = {label: i for i, label in enumerate(labels)}

    def past(i, seen):
        for j in deps[i]:
            if j >= 0 and j not in seen:
                seen.add(j)
                past(j, seen)
        return seen

    pasts = {label: {labels[j] for j in past(i, set())}
             for i, label in enumerate(labels)}
    return (lambda x, y: x in pasts.get(y, ())), index.__getitem__


def _run(cls, plan):
    """Land ``plan``'s frames at one member; its state after each."""
    labels, deps, frames = plan
    n = sum(label.sender == "b" for label in labels)
    scheduler = Scheduler()
    net = Network(
        scheduler, rng=RngRegistry(0), trace=TraceRecorder(enabled=False)
    )
    membership = GroupMembership(MEMBERS)
    stack = cls("a", membership)
    net.register(stack)
    tracker = StabilityTracker(stack)
    # `c` reports everything delivered, so `b`'s gossip in a frame
    # decides what is stable: against the prefix of the run before it.
    tracker._prefixes["c"] = {"b": n, "c": len(labels)}
    view_sync = ViewSyncAgent(stack)
    # Never started: it chases only what a plan plants.
    recovery = RecoveryAgent(stack)
    precedes, index_of = _precedes(labels, deps)
    frontier = FrontierTracker(precedes, index_of)
    synced = [None, 0]  # settled version and log length at the catch-up

    def catch_up():
        """The frontier as ``ShardedCluster.delivered_frontier`` keeps
        it: the log since the last catch-up, or a rebuild once the
        settled set moved outside delivery."""
        log = stack._delivered_envelopes
        if synced[0] != stack._settled_version:
            frontier.rebuild(stack.settled_labels() & set(labels))
        else:
            for envelope in log[synced[1]:]:
                frontier.note(envelope.msg_id)
        synced[:] = stack._settled_version, len(log)

    watchers: Dict[MessageId, int] = {}
    fired: List[tuple] = []

    def watch(envelope):
        label = envelope.msg_id
        if watchers.pop(label, None) is not None:
            catch_up()
            fired.append((label, stack.delivered_count, len(frontier.heads)))

    stack.on_deliver(watch, quiet=lambda: not watchers)
    crash_at = [None]

    def crash(envelope):
        if envelope.msg_id == crash_at[0] and not stack.crashed:
            stack.crash()

    stack.on_deliver(crash, quiet=lambda: crash_at[0] is None)
    control = [0]
    sent = [0]  # the next `b` label a "next" segment sends

    def envelope(i):
        ancestors = [FOREIGN if j < 0 else labels[j] for j in deps[i]]
        return Envelope(
            Message(labels[i], "op", None),
            occurs_after=OccursAfter.after(ancestors),
        )

    def frame_of(segments):
        out = []
        for segment in segments:
            kind = segment[0]
            if kind in ("next", "run"):
                start = sent[0] if kind == "next" else segment[1]
                end = min(start + segment[-1], n)
                out += [envelope(i) for i in range(start, end)]
                sent[0] = max(sent[0], end)
            elif kind == "one":
                out.append(envelope(segment[1]))
            else:
                control[0] += 1
                if kind == "gc":
                    operation = GC_VECTOR_OPERATION
                    payload = {"b": segment[1], "c": segment[2]}
                else:
                    operation = VCHG_OPERATION
                    payload = ViewChange(
                        "leave", "c", membership.view.view_id
                    )
                out.append(Envelope(Message(
                    MessageId("b!ctl", control[0]), operation, payload
                )))
        return out

    steps = []

    def land(segments, chase, crash_on, watch):
        if stack.crashed:
            stack.restart()
        if chase is not None:
            recovery._first_missing.setdefault(labels[chase], 0.0)
        crash_at[0] = None if crash_on is None else labels[crash_on]
        if watch is not None:
            watchers[labels[watch]] = 1
        taken = stack.on_frame("b", frame_of(segments))
        catch_up()
        steps.append((
            taken,
            stack.crashed,
            [(r.msg_id, r.position, r.time) for r in stack.delivery_log],
            stack.holdback_ids,
            stack.duplicates_discarded,
            stack.max_holdback,
            stack._arrival_counter,
            {origin: tracker.local_prefix(origin) for origin in ("b", "c")},
            tracker.store_size,
            dict(frontier.heads),
            list(fired),
            sorted(recovery._first_missing),
            view_sync.frozen,
        ))

    for at, frame in enumerate(frames):
        scheduler.call_at(10.0 * (at + 1), land, *frame)
    scheduler.run()
    return steps, stack.predicate_evaluations, stack.run_deliveries


@settings(max_examples=250, deadline=None)
@given(plan=plans())
def test_runs_deliver_what_the_per_envelope_path_delivers(plan):
    runs, runs_evaluated, _ = _run(OSendBroadcast, plan)
    each, each_evaluated, each_runs = _run(PerEnvelope, plan)
    reference, _, _ = _run(naive(OSendBroadcast), plan)
    assert runs == each == reference
    assert runs_evaluated == each_evaluated
    assert each_runs == 0


def _chain(n):
    labels = [MessageId("b", i) for i in range(n)]
    return labels, [[i - 1] if i else [] for i in range(n)]


def test_an_in_order_frame_is_one_run():
    labels, deps = _chain(32)
    plan = (labels, deps, [([("run", 0, 32)], None, None, None)])
    steps, evaluated, run_deliveries = _run(OSendBroadcast, plan)
    (step,) = steps
    assert step[0] == 32 and len(step[2]) == 32
    assert step[5] == 1  # nothing was ever held back
    assert step[7] == {"b": 32, "c": 0}
    assert evaluated == run_deliveries == 32


def test_a_run_of_two_origins_advances_each_prefix():
    labels = [MessageId("b", 0), MessageId("b", 1), MessageId("c", 0)]
    plan = (labels, [[], [0], []], [([("next", 2), ("one", 2)], None, None, None)])
    steps, _, run_deliveries = _run(OSendBroadcast, plan)
    assert steps[-1][7] == {"b": 2, "c": 1}
    assert run_deliveries == 3


def test_a_gossip_mid_frame_compacts_against_the_run_before_it():
    labels, deps = _chain(6)
    frame = [("next", 4), ("gc", 6, 0), ("next", 2)]
    steps, _, run_deliveries = _run(
        OSendBroadcast, (labels, deps, [(frame, None, None, None)])
    )
    assert steps[-1][8] == 2  # b:0..3 were stable when the gossip landed
    assert run_deliveries == 6


def test_a_watcher_holds_runs_to_one_envelope_until_it_fires():
    """The watcher sees the delivered count as of its own label; the
    labels after it land as a run."""
    labels, deps = _chain(8)
    plan = (labels, deps, [([("run", 0, 8)], None, None, 3)])
    steps, _, run_deliveries = _run(OSendBroadcast, plan)
    assert steps[-1][10] == [(labels[3], 4, 1)]
    assert run_deliveries == 4


def test_a_plain_callback_keeps_the_frame_per_envelope():
    labels, deps = _chain(6)
    net = Network(
        Scheduler(), rng=RngRegistry(0), trace=TraceRecorder(enabled=False)
    )
    stack = OSendBroadcast("a", GroupMembership(MEMBERS))
    net.register(stack)
    seen = []
    stack.on_deliver(lambda envelope: seen.append(stack.delivered_count))
    frame = [
        Envelope(
            Message(label, "op", None),
            occurs_after=OccursAfter.after([labels[j] for j in dep]),
        )
        for label, dep in zip(labels, deps)
    ]
    assert stack.on_frame("b", frame) == 6
    assert seen == [1, 2, 3, 4, 5, 6]
    assert stack.run_deliveries == 0
