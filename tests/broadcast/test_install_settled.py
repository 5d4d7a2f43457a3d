"""Labels settled without delivery unblock what waits on them.

A snapshot install (``install_settled``) and a stable-prefix skip
(``note_stable_prefix``) settle labels through the same chassis step as
each other: the step drops the held copies of what it settled, wakes
what waited on them and tells the protocol, and then the member drains.
Each case below holds one envelope back on history that is then settled
without being delivered, and checks that it is not stranded.
"""

from __future__ import annotations

import pytest

from repro.broadcast.cbcast import CbcastBroadcast
from repro.broadcast.fifo import FifoBroadcast
from repro.broadcast.lamport_total import LamportTotalOrder
from repro.broadcast.osend import OSendBroadcast
from repro.clocks.lamport import Timestamp
from repro.clocks.vector import VectorClock
from repro.graph.predicates import OccursAfter
from repro.group.membership import GroupMembership
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder
from repro.types import Envelope, Message
from tests.conftest import mid


class _Quiet(Network):
    """Sends nowhere: the stack under test hears only what a test hands
    it."""

    def __init__(self):
        super().__init__(
            Scheduler(), rng=RngRegistry(0), trace=TraceRecorder(enabled=False)
        )

    def broadcast(self, source, envelope):
        pass


def member(cls, members=("m", "a")):
    return _Quiet().register(cls("m", GroupMembership(list(members))))


def osend(label, *after):
    return Envelope(
        Message(label, "op"), occurs_after=OccursAfter.after(after or None)
    )


def fifo(label):
    return Envelope(Message(label, "op"))


def lamport(label, counter, operation="op", payload=None):
    return Envelope(
        Message(label, operation, payload),
        {"lamport": Timestamp(counter, label.sender)},
    )


def hear_own_acks(stack):
    """Hand a member its own acks: the quiet network sends it none."""
    for seqno in range(stack.acks_sent):
        stack.on_receive("m", stack.envelope_of(mid("m", seqno)))


class TestAnInstallWakesWhatItUnblocks:
    @pytest.mark.parametrize("cls,envelope", [
        (OSendBroadcast, osend(mid("a", 1), mid("a", 0))),
        (FifoBroadcast, fifo(mid("a", 1))),
    ], ids=["osend", "fifo"])
    def test_a_held_successor_is_delivered_at_once(self, cls, envelope):
        stack = member(cls)
        stack.on_receive("a", envelope)
        assert stack.holdback_ids == [mid("a", 1)]
        stack.install_settled({mid("a", 0)})
        assert stack.delivered == [mid("a", 1)]
        assert stack.holdback_size == 0

    def test_an_installed_held_label_is_settled_not_delivered_twice(self):
        stack = member(OSendBroadcast)
        stack.on_receive("a", osend(mid("a", 1), mid("a", 0)))
        stack.install_settled({mid("a", 1)})
        stack.on_receive("a", osend(mid("a", 0)))
        assert stack.delivered == [mid("a", 0)]
        assert stack.cut() == {mid("a", 0), mid("a", 1)}
        assert stack.holdback_size == 0

    def test_cbcast_stamps_count_installed_labels(self):
        stack = member(CbcastBroadcast)
        stack.install_settled({mid("a", 0)})
        stack.on_receive("a", Envelope(
            Message(mid("a", 1), "op"), {"vclock": VectorClock({"a": 2})}
        ))
        assert stack.delivered == [mid("a", 1)]
        assert stack.clock == VectorClock({"a": 2})

    def test_lamport_passes_over_an_installed_label_in_a_stream(self):
        # `a:1` is installed above a gap, so it never reaches the FIFO
        # stage; once `a:0` arrives, `a:2` must still be processed.
        stack = member(LamportTotalOrder)
        stack.install_settled({mid("a", 1)})
        stack.on_receive("a", lamport(mid("a", 0), 1))
        stack.on_receive("a", lamport(mid("a", 2), 3))
        hear_own_acks(stack)
        assert stack.app_delivered == [mid("a", 0), mid("a", 2)]


class TestASkippedStampOrdersNothing:
    def test_a_later_stamp_heard_by_everyone_delivers(self):
        # `x` is processed (its stamp known) and held: not everyone has
        # heard its stamp.  A stable frontier then settles it without
        # delivery.  `y`, stamped after it, is heard by every member —
        # `m` through its own acks — and must not wait on `x`'s delivery.
        stack = member(LamportTotalOrder, members=("m", "b", "c"))
        x, y = mid("b", 0), mid("c", 0)
        stack.on_receive("b", lamport(x, 1))
        assert stack.holdback_ids == [x]
        stack.note_stable_prefix("b", 1)
        assert stack.has_settled(x) and stack.holdback_size == 0
        stack.on_receive("c", lamport(y, 5))
        ack = LamportTotalOrder.ACK_OPERATION
        stack.on_receive("b", lamport(mid("b", 1), 6, ack, y))
        hear_own_acks(stack)
        assert stack.app_delivered == [y]
