"""A barrier read, computed without the ledger graph, is the graph's read.

:class:`~repro.shard.barrier.StablePointBarrier` takes each cut from its
contact's settled :class:`~repro.broadcast.cut.Cut` and the ledger's
in-group ``deps``, and :class:`~repro.shard.router.Session` absorbs a
completed read by walking stamps down to its own past.  The property
below runs random sharded histories — puts, gets, observes, all-shard
and partial reads, token merges, crashes, restarts and slot moves, on 2
and 3 shards — with every step of every read held to the graph
computation kept in :mod:`tests.shard.barrier_reference`:

* each barrier's ``Occurs-After`` is ``maximal(contact's settled ∪ floor)``;
* each shard's cut holds exactly the writes of its barriers' pasts;
* each closure check finds exactly the gap sets ``closure_gaps`` finds;
* each read's value is the reference's mask fold, key order included;
* each absorb leaves the frontier the graph's projection leaves.

Three cases the random histories seldom reach are pinned on their own
below: a contact whose settled set is not closed under ``deps`` (a
stable prefix skipped past a label's dependency), a write reached only
through another read's barrier that no cut holds, and a write whose
foreign past only the ``cross_deps`` of a label above its origin's
prefix in the read's cut name.
"""

from __future__ import annotations

from typing import Dict, Tuple
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ShardedCluster, StablePointBarrier
from repro.shard.ledger import DATA_KINDS, Fold
from repro.shard.router import Session

from tests.shard import barrier_reference as reference
from tests.shard.test_router import key_for, quiet_cluster

KEYS = 10

operations = st.tuples(
    st.sampled_from(
        ("put",) * 6
        + ("get", "observe", "read", "read", "partial", "merge", "crash",
           "restart", "move", "drain")
    ),
    st.integers(0, KEYS - 1),
    st.integers(0, 400),
)


def writes(cut, ledger):
    return frozenset(
        label for label in cut
        if label in ledger.ops and ledger.ops[label].kind in DATA_KINDS
    )


class Referee:
    """Patches the barrier and the session so that every step is checked
    against the reference as it happens, and counts the checks."""

    def __init__(self, cluster: ShardedCluster) -> None:
        self.cluster = cluster
        self.folds: Dict[int, Tuple[int, Fold]] = {
            shard: (0, {}) for shard in cluster.shard_ids
        }
        self.checked = dict.fromkeys(
            ("stamp", "closure", "gap", "fold", "absorb"), 0
        )
        self._bases: Dict[int, Dict[int, Tuple[int, Fold]]] = {}

    def patches(self):
        return (
            mock.patch.object(StablePointBarrier, "start", self._start(StablePointBarrier.start)),
            mock.patch.object(StablePointBarrier, "_issue", self._issue(StablePointBarrier._issue)),
            mock.patch.object(StablePointBarrier, "_closure_gaps", self._gaps(StablePointBarrier._closure_gaps)),
            mock.patch.object(StablePointBarrier, "_complete", self._complete(StablePointBarrier._complete)),
            mock.patch.object(Session, "_absorb", self._absorb(Session._absorb)),
        )

    def masks(self, barrier) -> Dict[int, int]:
        ledger = self.cluster.ledger
        return {
            shard: reference.cut(ledger, shard, barrier._barrier_labels[shard])
            for shard in barrier.shards
        }

    def _start(self, start):
        def wrapped(barrier):
            self._bases[id(barrier)] = dict(self.folds)
            return start(barrier)
        return wrapped

    def _issue(self, issue):
        def wrapped(barrier, shard, extra, attempts):
            cluster = self.cluster
            contact = None if barrier._done else cluster.contact(shard)
            expected = None
            if contact is not None:
                expected = reference.stamp(
                    cluster, shard, contact, barrier.baseline[shard] | extra
                )
            labels = barrier._barrier_labels[shard]
            before = len(labels)
            issue(barrier, shard, extra, attempts)
            if len(labels) > before:
                ledger = cluster.ledger
                assert ledger.ops[labels[-1]].deps == expected
                assert writes(barrier._cut[shard], ledger) == ledger.cut_labels(
                    reference.cut(ledger, shard, labels)
                )
                self.checked["stamp"] += 1
        return wrapped

    def _gaps(self, closure_gaps):
        def wrapped(barrier):
            gaps = closure_gaps(barrier)
            ledger = self.cluster.ledger
            expected = reference.closure_gaps(ledger, self.masks(barrier))
            assert {s: frozenset(g) for s, g in gaps.items()} == {
                s: ledger.cut_labels(gap) for s, gap in expected.items()
            }
            self.checked["closure"] += 1
            self.checked["gap"] += bool(gaps)
            return gaps
        return wrapped

    def _complete(self, complete):
        def wrapped(barrier):
            ledger = self.cluster.ledger
            base = self._bases.pop(id(barrier))
            merged: Dict[str, Tuple[int, object]] = {}
            for shard, mask in self.masks(barrier).items():
                fold = reference.fold(ledger, mask, base[shard])
                self.folds[shard] = (mask, fold)
                for key, pair in fold.items():
                    held = merged.get(key)
                    if held is None or held[0] < pair[0]:
                        merged[key] = pair
            done = len(ledger.barrier_reads)
            complete(barrier)
            read = ledger.barrier_reads[done]
            assert list(read.value.items()) == [
                (key, pair[1]) for key, pair in merged.items()
            ]
            self.checked["fold"] += 1
        return wrapped

    def _absorb(self, absorb):
        def wrapped(session, labels, *cuts):
            labels = list(labels)
            expected = reference.absorb(self.cluster, session.frontier, labels)
            absorb(session, labels, *cuts)
            assert session.frontier == expected
            self.checked["absorb"] += 1
        return wrapped


def run(shards: int, ops) -> Referee:
    cluster = ShardedCluster(shards=shards, members_per_shard=3, hop_events="off")
    referee = Referee(cluster)
    patches = referee.patches()
    for patch in patches:
        patch.start()
    try:
        sessions = [cluster.router.session(f"s{n}") for n in range(3)]
        keys = [f"k{n}" for n in range(KEYS)]
        for op, key, number in ops:
            session = sessions[number % len(sessions)]
            group = cluster.groups[number % shards]
            if op == "put":
                session.put(keys[key], number)
            elif op == "get":
                session.get(keys[key], lambda served: None)
            elif op == "observe" and len(cluster.ledger):
                order = cluster.ledger.issue_order
                session.observe(order[number % len(order)])
            elif op == "read":
                session.read()
            elif op == "partial":
                chosen = [s for s in cluster.shard_ids if (number >> s) & 1]
                session.read(chosen or [number % shards])
            elif op == "merge":
                other = sessions[(number + 1) % len(sessions)]
                session.import_token(other.export_token())
            elif op == "crash":
                up = group.up_members()
                if len(up) > 1:
                    group.crash(up[number % len(up)])
            elif op == "restart":
                group.revive()
            elif op == "move" and not cluster.rebalancer.active():
                slot = cluster.shard_map.slot_of(keys[key])
                cluster.rebalancer.move_slot(slot, number % shards)
            elif op == "drain":
                cluster.drain()
        cluster.drain()
        for group in cluster.groups.values():
            group.revive()
        cluster.drain()
        cluster.settle()
    finally:
        for patch in patches:
            patch.stop()
    return referee


class TestGraphFreeReadEqualsTheGraph:
    @settings(max_examples=120, deadline=None)
    @given(
        shards=st.sampled_from((2, 3)),
        ops=st.lists(operations, min_size=4, max_size=48),
    )
    def test_every_read_step_is_the_reference_s(self, shards, ops):
        run(shards, ops)

    def test_the_property_meets_gaps_partial_reads_and_moves(self):
        """One fixed history that takes every branch the property
        covers: a closure round, a partial read, a move, a merge."""
        ops = [
            ("put", k, n) for k, n in zip(range(10), range(0, 300, 31))
        ] + [
            ("read", 0, 1), ("put", 3, 4), ("partial", 0, 5), ("move", 2, 7),
            ("put", 2, 8), ("merge", 0, 9), ("observe", 0, 13),
            ("crash", 0, 16), ("read", 0, 17), ("put", 5, 19),
            ("restart", 0, 20), ("partial", 0, 6), ("drain", 0, 0),
            ("read", 0, 0),
        ]
        referee = run(3, ops)
        assert all(referee.checked.values()), referee.checked


class TestAHoleBelowTheContact:
    def test_a_skipped_prefix_above_an_unsettled_dependency(self):
        """A stable-prefix skip can settle a label at a member that has
        not settled the label's dependency from another origin.  That
        member's heads and cut still close over the dependency, and a
        read through it is the graph's read."""
        cluster = quiet_cluster(shards=1)
        group = cluster.groups[0]
        n0, n1, n2 = group.members
        a, b = cluster.router.session("a"), cluster.router.session("b")
        ka, kb = key_for(cluster, 0), key_for(cluster, 0, salt=1)
        group.partition((n0, n1), (n2,))
        a.put(ka, "first")  # sent by n0
        cluster.drain()
        # The second put goes out from n1 and depends on the first.
        b.import_token(a.export_token())
        with mock.patch.object(
            type(group), "senders",
            lambda self, preferred=None: [self.stacks[n1]],
        ):
            b.put(kb, "second")
        cluster.drain()
        (first,) = a.frontier[0]
        (second,) = b.frontier[0]
        assert first.sender == n0 and second.sender == n1
        stack = group.stacks[n2]
        stack.note_stable_prefix(n1, second.seqno + 1)
        assert stack.has_settled(second) and not stack.has_settled(first)

        heads = cluster.delivered_frontier(0, n2)
        assert heads == frozenset({second})
        cut = cluster.settled_cut(0, n2)
        assert first in cut and second in cut

        referee = Referee(cluster)
        patches = referee.patches()
        for patch in patches:
            patch.start()
        try:
            for member in (n0, n1):
                group.crash(member)
            reader = cluster.router.session("r")
            reader.read()
            cluster.drain()
        finally:
            for patch in patches:
                patch.stop()
        (read,) = reader.reads
        assert read.value == {ka: "first", kb: "second"}
        assert referee.checked["stamp"] and referee.checked["fold"]


class TestAForeignPastBehindAnotherReadsBarrier:
    def test_the_absorb_finds_a_write_no_cut_holds(self):
        """A's read fences its write ``d`` on shard 0 with a barrier on
        shard 1 that names ``d`` in its ``cross_deps``.  R then reads
        through a shard-0 contact that never saw ``d``, and a shard-1
        contact that settled A's barrier: no write of R's cuts reaches
        ``d``, so the snapshot is closed without it — yet ``d`` is in
        R's causal past, and the absorb must find it behind A's barrier,
        issued two labels after it."""
        cluster = quiet_cluster(shards=2)
        group = cluster.groups[0]
        n0, n1, n2 = group.members
        a, r = cluster.router.session("a"), cluster.router.session("r")
        group.partition((n0,), (n1, n2))
        a.put(key_for(cluster, 0), "d")
        cluster.drain()
        (d,) = a.frontier[0]
        a.read()
        cluster.drain()
        (a_read,) = a.reads
        fence = a_read.barrier_labels[1][0]
        assert cluster.ledger.ops[fence].cross_deps == {d}
        group.crash(n0)
        referee = Referee(cluster)
        patches = referee.patches()
        for patch in patches:
            patch.start()
        try:
            r.read()
            cluster.drain()
        finally:
            for patch in patches:
                patch.stop()
        (read,) = r.reads
        assert d not in read.labels
        assert d in r.frontier[0]
        assert referee.checked["absorb"] == 1


class TestAForeignPastAboveTheContactsPrefix:
    def test_the_absorb_roots_an_above_prefix_write_s_cross_deps(self):
        """The contact settled ``w`` (``n0:1``) and not ``n0:0``, which
        ``w`` does not follow, so ``w`` sits above its origin's prefix in
        the read's cut.  ``w``'s only foreign past is ``d`` on shard 1,
        and R reads shard 0 alone: no barrier names ``d``, and the walk
        from them stops at the cut, so only ``w``'s own ``cross_deps``
        bring ``d`` into R's frontier."""
        cluster = quiet_cluster(shards=2)
        group = cluster.groups[0]
        n0, n1, n2 = group.members
        a, b, r = (cluster.router.session(name) for name in "abr")
        a.put(key_for(cluster, 1), "d")
        cluster.drain()
        (d,) = a.frontier[1]
        group.partition((n0, n1), (n2,))
        b.put(key_for(cluster, 0), "x")
        cluster.drain()
        group.heal()
        a.put(key_for(cluster, 0, salt=1), "w")
        (x,), (w,) = b.frontier[0], a.frontier[0]
        assert (x.sender, w.sender) == (n0, n0) and w.seqno == x.seqno + 1
        assert cluster.ledger.ops[w].cross_deps == {d}
        stack = group.stacks[n2]
        while not stack.has_settled(w):
            cluster.scheduler.step()
        assert not stack.has_settled(x)
        group.crash(n0)
        group.crash(n1)
        referee = Referee(cluster)
        patches = referee.patches()
        for patch in patches:
            patch.start()
        try:
            r.read([0])
            cluster.drain()
        finally:
            for patch in patches:
                patch.stop()
        (read,) = r.reads
        assert w in read.cuts[0].above and x not in read.cuts[0]
        assert d in r.frontier[1]
        assert referee.checked["absorb"] == 1
