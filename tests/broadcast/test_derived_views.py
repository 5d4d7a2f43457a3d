"""The member's graph, delivery log and "seen" test are derived views.

Until PR 23 every ``OSend`` member *built* a :class:`DependencyGraph` on
the receive path, kept a ``DeliveryRecord`` per delivery and a ``_seen``
set beside ``_delivered_ids`` and the hold-back queue.  Now a delivery
leaves an envelope and a time behind and the three are derived when
somebody asks.  The oracle here is the deleted code: a test double that
still maintains all three eagerly, at the places the chassis used to,
must agree with the derived views over seeded ``ReplicaGroup`` runs with
loss, duplication, a crash/restart and held-back envelopes.

Mutation check (done by hand when this file was written): dropping
``self._graph_cursor = 0`` from ``OSendBroadcast._reset_volatile`` fails
the "asked only between drains" test on every seed and the "asked at
every step" test on two — the restarted member's cursor points past its
emptied delivery log, so its new incarnation's first deliveries never
reach the view.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from repro.broadcast.osend import OSendBroadcast
from repro.graph.depgraph import DependencyGraph
from repro.group import replica_group
from repro.group.replica_group import ReplicaGroup
from repro.types import DeliveryRecord, MessageId

MEMBERS = ("a", "b", "c")
SEEDS = range(6)


class EagerOSend(OSendBroadcast):
    """``OSendBroadcast`` plus the per-delivery state PR 23 deleted.

    ``eager_graph`` is added to in ``_on_received`` and reset with the
    volatile state; ``eager_seen`` follows the old ``_seen`` (fresh
    arrivals, stable-prefix skips, wiped at restart); ``eager_log`` is
    the old ``_delivery_log``.  ``on_step`` (if set) runs after every
    receive and every delivery.
    """

    on_step = None

    def __init__(self, entity_id, group):
        super().__init__(entity_id, group)
        self.eager_graph = DependencyGraph()
        self.eager_seen = set()
        self.eager_log = []

    def _on_received(self, sender, envelope):
        self.eager_seen.add(envelope.msg_id)
        self.eager_graph.add(envelope.msg_id, self._predicate_of(envelope))

    def note_stable_prefix(self, origin, frontier):
        for seqno in range(self._stable_floor.get(origin, 0), frontier):
            self.eager_seen.add(MessageId(origin, seqno))
        super().note_stable_prefix(origin, frontier)

    def _reset_volatile(self):
        super()._reset_volatile()
        self.eager_graph = DependencyGraph()
        self.eager_seen = set()
        self.eager_log = []

    def _deliver(self, envelope):
        self.eager_log.append(
            DeliveryRecord(
                self.entity_id, envelope.msg_id, len(self.eager_log), self.now
            )
        )
        super()._deliver(envelope)
        if self.on_step is not None:
            self.on_step(self)

    def on_receive(self, sender, envelope):
        super().on_receive(sender, envelope)
        if self.on_step is not None:
            self.on_step(self)


def run(seed, on_step=None, at_phase_end=None):
    """A seeded lossy run with a crash and restart of ``c``.

    Every send names up to two earlier labels, whoever sent them, so a
    lost ancestor holds its descendants back.  ``at_phase_end(group,
    labels)`` runs after every drain.
    """
    rng = random.Random(seed)
    group = ReplicaGroup(
        "osend", members=MEMBERS, seed=seed, auto_membership=False
    )
    for stack in group.stacks.values():
        stack.on_step = on_step
    labels = []
    held_back = 0
    group.set_loss(0.3)
    group.set_duplicate(0.3)
    for phase in range(10):
        if phase == 3:
            group.crash("c")
        if phase == 6:
            group.restart("c")
        for member in group.up_members():
            for _ in range(rng.randint(1, 3)):
                deps = rng.sample(labels, min(len(labels), rng.randint(0, 2)))
                labels.append(
                    group.stacks[member].osend("op", occurs_after=deps)
                )
        group.drain()
        held_back += sum(s.holdback_size for s in group.stacks.values())
        if phase % 3 == 2:
            group.repair_round()
            group.drain()
        if at_phase_end is not None:
            at_phase_end(group, labels)
    group.clear_faults()
    for _ in range(6):
        group.repair_round()
        group.drain()
        if at_phase_end is not None:
            at_phase_end(group, labels)
    assert group.livelock is None
    # The scenario must exercise what it claims to.
    assert held_back > 0
    assert any(s.duplicates_discarded for s in group.stacks.values())
    assert group.stacks["c"].incarnation_archive
    return group, labels


@pytest.fixture(autouse=True)
def eager_members(monkeypatch):
    monkeypatch.setitem(replica_group.PROTOCOLS, "osend", EagerOSend)


def assert_same_graph(stack, precedence=True):
    """Derived ``graph`` == the eagerly built one, relation by relation."""
    eager, derived = stack.eager_graph, stack.graph
    # A held copy that a stable-prefix skip settled before anyone asked
    # was received (eager has it) but never delivered (derived has not).
    missing = set(eager.nodes) - set(derived.nodes)
    assert missing <= stack.skipped_stable, stack.entity_id
    assert set(derived.nodes) <= set(eager.nodes)
    for node in derived.nodes:
        assert derived.ancestors_of(node) == eager.ancestors_of(node)
    if missing:
        return
    assert derived.dangling() == eager.dangling()
    if not precedence:
        return
    for earlier, later in permutations(derived.nodes, 2):
        assert derived.precedes(earlier, later) == eager.precedes(
            earlier, later
        ), (stack.entity_id, earlier, later)


def graphs_of_all_members(group, labels):
    for stack in group.stacks.values():
        assert_same_graph(stack)


def assert_same_log(stack):
    assert stack.delivery_log == stack.eager_log
    assert stack.delivered == [record.msg_id for record in stack.eager_log]
    assert stack.delivered_count == len(stack.eager_log)
    assert [r.position for r in stack.delivery_log] == list(
        range(stack.delivered_count)
    )
    assert stack.last_delivered() == (
        stack.eager_log[-1].msg_id if stack.eager_log else None
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_has_seen_and_delivery_log_agree_at_every_step(seed):
    universe = set()
    steps = 0

    def check(stack):
        nonlocal steps
        steps += 1
        universe.update(stack.eager_seen)
        for label in universe:
            assert stack.has_seen(label) == (label in stack.eager_seen), (
                stack.entity_id, label,
            )
        assert_same_log(stack)

    def all_members(group, labels):
        universe.update(labels)
        for stack in group.stacks.values():
            check(stack)

    group, labels = run(seed, on_step=check, at_phase_end=all_members)
    assert steps > len(labels)
    for stack in group.stacks.values():
        assert stack.eager_log, stack.entity_id
        times = [record.time for record in stack.delivery_log]
        assert times == sorted(times)


@pytest.mark.parametrize("seed", SEEDS)
def test_graph_asked_at_every_step_equals_the_eager_graph(seed):
    group, _ = run(
        seed,
        on_step=lambda stack: assert_same_graph(stack, precedence=False),
        at_phase_end=graphs_of_all_members,
    )
    for stack in group.stacks.values():
        # Asked while every copy was still held: nothing can be missing.
        assert set(stack.graph.nodes) == set(stack.eager_graph.nodes)
        assert len(stack.graph) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_graph_asked_only_between_drains_catches_up_from_its_cursor(seed):
    group, _ = run(seed, at_phase_end=graphs_of_all_members)
    for stack in group.stacks.values():
        assert stack._graph_cursor == stack.delivered_count > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_graph_never_asked_stays_empty_and_is_right_once_asked(seed):
    group, _ = run(seed)
    for stack in group.stacks.values():
        assert len(stack._graph) == 0 and stack._graph_cursor == 0
        assert_same_graph(stack)
        assert len(stack._graph) >= stack.delivered_count


def test_members_extract_the_same_graph_once_converged():
    group, labels = run(0)
    assert group.converged(labels)
    graphs = [stack.graph for stack in group.stacks.values()]
    restarted = group.stacks["c"]
    for graph, stack in zip(graphs, group.stacks.values()):
        if stack is restarted:
            continue  # its first life's deliveries are archived, not here
        assert set(graph.nodes) == set(labels) - stack.skipped_stable
        for node in graph.nodes:
            assert graph.ancestors_of(node) == graphs[0].ancestors_of(node)
