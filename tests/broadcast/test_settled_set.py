"""The prefix-plus-sparse settled set answers what a plain set would.

Random steps drive one stack and the plain-set reference beside it
(``plain_settled.py``): frames of labels from three origins — gaps,
duplicates, labels waiting on their predecessor, control deliveries and
an anti-entropy digest among them — taken whole (as runs) or one
envelope at a time; stable-prefix skips; snapshot installs; restarts;
sends whose own copy never comes back (stored, neither settled nor
held).
After every step each question the chassis answers about its settled
set must be the reference's: ``has_settled``, ``has_seen``,
``settles_any``, ``settles_all``, the labels, the settled set as a cut
and the FLUSH_OK cut (settled, held or stored), the tracker's
``local_prefix``, the origin order a digest carries prefixes in, the skipped
labels and the archive.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.cut import Cut
from repro.broadcast.gc import StabilityTracker
from repro.broadcast.osend import OSendBroadcast
from repro.broadcast.recovery import DIGEST_OPERATION, RecoveryAgent
from repro.core.state_transfer import Snapshot, install_snapshot
from repro.graph.predicates import OccursAfter
from repro.group.membership import GroupMembership
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder
from repro.types import Envelope, Message, MessageId
from tests.broadcast.plain_settled import PlainSettled

ORIGINS = ("a", "b", "c")
SEQNOS = 12
UNIVERSE = [MessageId(o, s) for o in ORIGINS for s in range(SEQNOS + 2)]


class WithControl(OSendBroadcast):
    """OSend whose ``ctl`` deliveries are control: no callback sees them
    (and, with a delivery step overridden, it takes no runs)."""

    def _is_control(self, envelope):
        return envelope.message.operation == "ctl"


class _Quiet(Network):
    """Sends nowhere: the stack under test is the only node."""

    def __init__(self):
        super().__init__(
            Scheduler(), rng=RngRegistry(0), trace=TraceRecorder(enabled=False)
        )

    def broadcast(self, source, envelope):
        pass


origins = st.sampled_from(ORIGINS)
seqnos = st.integers(0, SEQNOS - 1)
frontiers = st.integers(0, SEQNOS)


@st.composite
def settled_steps(draw):
    """The class and the steps; a frame's labels are (seqno, control,
    waits on its predecessor), and a frame may carry a digest's prefix
    vector."""
    entry = st.tuples(seqnos, st.booleans(), st.booleans())
    step = st.one_of(
        st.tuples(
            st.just("frame"), origins, st.lists(entry, min_size=1, max_size=8),
            st.booleans(), st.one_of(st.none(), st.tuples(
                st.integers(0, 8), frontiers, frontiers, frontiers
            )),
        ),
        st.tuples(st.just("skip"), origins, frontiers),
        st.tuples(st.just("snapshot"), st.lists(st.tuples(origins, seqnos))),
        st.tuples(st.just("restart")),
        st.tuples(st.just("send")),
    )
    return (
        draw(st.sampled_from([OSendBroadcast, WithControl])),
        draw(st.lists(step, max_size=20)),
    )


def data(origin, seqno, control, chained):
    after = (MessageId(origin, seqno - 1),) if chained and seqno else ()
    return Envelope(
        Message(MessageId(origin, seqno), "ctl" if control else "op"),
        occurs_after=OccursAfter.after(after),
    )


def play(stack, reference, step, at, sent):
    kind = step[0]
    if kind == "frame":
        _, origin, entries, whole, digest = step
        frame = [data(origin, *entry) for entry in entries]
        if digest is not None:
            position, *reported = digest
            frame.insert(position, Envelope(Message(
                MessageId(f"{origin}!rec", at),
                DIGEST_OPERATION,
                {"labels": {}, "frontiers": {},
                 "prefix": dict(zip(ORIGINS, reported))},
            )))
        if whole:
            stack.on_frame(origin, frame)
        else:
            for envelope in frame:
                stack.on_receive(origin, envelope)
    elif kind == "skip":
        stack.note_stable_prefix(step[1], step[2])
        reference.skip(step[1], step[2])
    elif kind == "snapshot":
        # A snapshot covers history: not what is held back here.
        covered = frozenset(
            label for label in (MessageId(o, s) for o, s in step[1])
            if label not in stack.holdback_ids
        )
        if stack.delivered:
            stack.install_settled(covered)
        else:
            install_snapshot(SimpleNamespace(protocol=stack), Snapshot(
                state={}, covered=covered, donor="b", stable_index=-1
            ))
        reference.install(covered)
    elif kind == "send":
        sent.add(stack.bcast("op"))
    else:
        stack.crash()
        stack.restart()
        reference.restart()


def check(stack, tracker, reference, at, sent):
    settled = reference.settled
    for label in UNIVERSE:
        assert stack.has_settled(label) == (label in settled), (at, label)
        assert stack.has_seen(label) == reference.has_seen(label), (at, label)
    assert stack.settled_labels() == settled, at
    assert stack.cut() == settled, at
    stored = {
        l for l in (*UNIVERSE, *sent) if stack.envelope_of(l) is not None
    }
    assert stack.known_cut() == settled | set(stack.holdback_ids) | stored, at
    for origin in ORIGINS:
        assert tracker.local_prefix(origin) == reference.prefix(origin), at
        labels = {MessageId(origin, s) for s in range(1, SEQNOS, 2)}
        assert stack.settles_any(labels) == bool(labels & settled), at
        assert stack.settles_all(Cut(above=labels)) == (labels <= settled), at
        for top in range(SEQNOS + 1):
            assert stack.settles_all(Cut({origin: top})) == (
                reference.prefix(origin) >= top
            ), at
    assert stack.settles_any(()) is False
    # The order a digest carries the prefixes in; and the form's own
    # invariant: a label above its origin's prefix is not contiguous
    # with it.
    assert list(stack._prefix) == list(reference.order), at
    assert all(l[1] > stack._prefix[l[0]] for l in stack._above), at
    assert stack.skipped_stable == reference.skipped, at
    assert [
        ([envelope.msg_id for envelope in log], skipped)
        for log, skipped in stack.incarnation_archive
    ] == reference.archive, at


@settings(max_examples=400, deadline=None)
@given(settled_steps())
def test_the_settled_set_answers_as_a_plain_set(case):
    cls, steps = case
    stack = _Quiet().register(cls("a", GroupMembership(list(ORIGINS))))
    tracker = StabilityTracker(stack)
    RecoveryAgent(stack)  # not started: it only hands digests on
    reference = PlainSettled(stack)
    sent = set()
    for at, step in enumerate(steps):
        reference.catch_up()
        play(stack, reference, step, at, sent)
        reference.catch_up()
        check(stack, tracker, reference, at, sent)
