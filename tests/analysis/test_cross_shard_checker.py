"""CrossShardChecker unit tests against hand-built ledgers and delivery logs.

The checker's happens-before is the ledger's stamp graph; session order
is checked to lie inside it by ``Ledger.session_order_violations``.  So
each relation the private closure used to derive from a session edge is
stamped here the way the session layer stamps it, and the unstamped
variant is held to the session-order pass instead.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.invariants import CrossShardChecker, iter_incarnations
from repro.broadcast.cut import Cut
from repro.shard.barrier import BarrierRead
from repro.shard.ledger import Ledger
from repro.types import Envelope, Message, MessageId


class StubProtocol:
    """Just enough surface for :func:`iter_incarnations`."""

    def __init__(
        self,
        delivered: Iterable[MessageId],
        skipped: Iterable[MessageId] = (),
        archive: Iterable[
            Tuple[Iterable[MessageId], Iterable[MessageId]]
        ] = (),
    ) -> None:
        self.incarnation_archive: List[Tuple[List[Envelope], Set[MessageId]]] = [
            ([_env(label) for label in labels], set(skips))
            for labels, skips in archive
        ]
        self.incarnation = len(self.incarnation_archive)
        self._delivered_envelopes = [_env(label) for label in delivered]
        self.skipped_stable = frozenset(skipped)


def _env(label: MessageId) -> Envelope:
    return Envelope(Message(label, "op", None))


A0 = MessageId("a", 0)
A1 = MessageId("a", 1)
B0 = MessageId("b", 0)
C0 = MessageId("c", 0)


def ledger(
    deps: Optional[Dict[MessageId, Iterable[MessageId]]] = None,
    cross: Optional[Dict[MessageId, Iterable[MessageId]]] = None,
    barriers: Iterable[MessageId] = (),
) -> Ledger:
    """A two-shard ledger: labels from 'a'/'c' on shard 0, 'b' on shard 1,
    issued A0, A1, B0, C0; ``barriers`` are read labels, the rest puts."""
    deps, cross = deps or {}, cross or {}
    built = Ledger([0, 1])
    reads = frozenset(barriers)
    for label in (A0, A1, B0, C0):
        key = str(label)
        built.record(
            label,
            shard=1 if label.sender == "b" else 0,
            kind="barrier" if label in reads else "put",
            key=None if label in reads else key,
            slot=None,
            value={} if label in reads else {"key": key, "value": 0},
            deps=frozenset(deps.get(label, ())),
            cross_deps=frozenset(cross.get(label, ())),
            session=None,
        )
    return built


def log(built: Ledger, session: str, *batches) -> None:
    """Append a session's ops: a label is a write, a tuple of barrier
    labels one read."""
    history = built.history.setdefault(session, [])
    for batch in batches:
        if isinstance(batch, MessageId):
            history.append(("write", batch))
            continue
        shards = {}
        for label in batch:
            shards.setdefault(built.shard_of(label), []).append(label)
        history.append(("read", BarrierRead(
            session=session,
            shards=tuple(shards),
            value={},
            barrier_labels={s: tuple(labels) for s, labels in shards.items()},
            cuts={
                s: Cut(above={
                    dep for label in labels for dep in past(built, label)
                    if built.shard_of(dep) == s
                })
                for s, labels in shards.items()
            },
            rounds=0,
            issued_at=0.0,
            completed_at=0.0,
            ledger=built,
        )))


def past(built: Ledger, label: MessageId) -> Set[MessageId]:
    return set(built.graph.labels_of(built.graph.past_mask(label)))


def checker(protocols, built: Ledger) -> CrossShardChecker:
    return CrossShardChecker(protocols, built, {"m0": 0, "m1": 1})


class TestHappensBefore:
    def test_closure_spans_session_and_dependency_edges(self):
        # The session's second write is stamped after its first.
        built = ledger(deps={A1: {A0}, C0: {A1}})
        log(built, "s", A0, A1)
        assert past(built, C0) == {A0, A1}
        assert past(built, A1) == {A0}
        assert past(built, A0) == set()
        assert built.precedes(A0, C0) and built.precedes(A1, C0)
        assert built.session_order_violations() == []

    def test_an_unstamped_session_edge_is_a_session_order_violation(self):
        built = ledger(deps={C0: {A1}})
        log(built, "s", A0, A1)
        assert past(built, C0) == {A1}
        (violation,) = built.session_order_violations()
        assert violation.guarantee == "monotonic-writes"
        assert (violation.session, violation.operation, violation.missing) == (
            "s", A1, A0
        )

    def test_cross_deps_are_happens_before_edges(self):
        # C0 follows B0 in session order, so its stamp names B0 as a
        # cross dep; B0 cross-depends on A0 — the shard-0 obligation
        # A0 < C0 exists only through the cross edge.
        built = ledger(cross={B0: {A0}, C0: {B0}})
        log(built, "s", B0, C0)
        assert past(built, C0) == {A0, B0}
        assert built.session_order_violations() == []

    def test_read_batch_labels_are_concurrent(self):
        built = ledger(deps={C0: {A0, A1}}, barriers=(A0, A1))
        log(built, "s", (A0, A1), C0)
        assert not built.precedes(A0, A1)
        assert not built.precedes(A1, A0)
        assert past(built, C0) == {A0, A1}
        assert built.session_order_violations() == []

    def test_each_pair_of_kinds_names_its_guarantee(self):
        built = ledger(barriers=(A1, C0))
        log(built, "w", A0, A1)  # write -> read
        log(built, "r", A1, C0)  # read -> read
        log(built, "x", A1, B0)  # read -> write
        found = {
            (v.session, v.guarantee) for v in built.session_order_violations()
        }
        assert found == {
            ("w", "read-your-writes"),
            ("r", "monotonic-reads"),
            ("x", "writes-follow-reads"),
        }


class TestCheck:
    def test_ordered_log_passes(self):
        built = ledger(deps={A1: {A0}, C0: {A1}})
        check = checker({"m0": StubProtocol([A0, A1, C0])}, built)
        assert check.check() == []

    def test_reordered_ancestor_flagged(self):
        built = ledger(deps={A1: {A0}, C0: {A1}})
        check = checker({"m0": StubProtocol([C0, A1, A0])}, built)
        violations = check.check()
        assert violations
        assert all(v.invariant == "cross-shard-causal" for v in violations)
        assert any("delivered before" in v.detail for v in violations)

    def test_missing_ancestor_flagged(self):
        built = ledger(deps={C0: {A0}})
        check = checker({"m0": StubProtocol([C0])}, built)
        (violation,) = check.check()
        assert "without its happens-before ancestor" in violation.detail

    def test_skipped_ancestor_is_exempt(self):
        built = ledger(deps={C0: {A0}})
        check = checker({"m0": StubProtocol([C0], skipped=[A0])}, built)
        assert check.check() == []

    def test_foreign_shard_ancestors_impose_no_local_order(self):
        # C0 (shard 0) happens-after B0 (shard 1); m0 never delivers B0
        # and must not be penalised for it.
        built = ledger(deps={C0: {A0}}, cross={C0: {B0}})
        check = checker({"m0": StubProtocol([A0, C0])}, built)
        assert check.check() == []

    def test_transitive_obligation_via_cross_edge(self):
        # A0 < B0 (cross) < C0 (session, stamped as a cross dep) —
        # delivering C0 before A0 on shard 0 violates the closure even
        # with no direct shard-0 edge.
        built = ledger(cross={B0: {A0}, C0: {B0}})
        log(built, "s", B0, C0)
        check = checker({"m0": StubProtocol([C0, A0])}, built)
        violations = check.check()
        assert len(violations) == 1
        assert "C0" not in violations[0].detail  # labels render as c:0
        assert "c:0" in violations[0].detail and "a:0" in violations[0].detail

    def test_each_incarnation_checked_independently(self):
        # Incarnation 0 delivered in order; the restarted life redelivers
        # out of order — only the current incarnation is flagged.
        protocol = StubProtocol(
            delivered=[C0, A0],
            archive=[([A0, C0], [])],
        )
        check = checker({"m0": protocol}, ledger(deps={C0: {A0}}))
        violations = check.check()
        assert len(violations) == 1
        assert "incarnation 1" in violations[0].detail

    def test_non_ledger_traffic_ignored(self):
        noise = MessageId("ctl", 0)
        check = checker(
            {"m0": StubProtocol([noise, A0, C0])}, ledger(deps={C0: {A0}})
        )
        assert check.check() == []

    def test_a_repeat_is_judged_at_its_first_delivery(self):
        built = ledger(deps={C0: {A0}})
        check = checker({"m0": StubProtocol([A0, C0, C0])}, built)
        assert check.check() == []


class TestIterIncarnations:
    def test_yields_archive_then_current(self):
        protocol = StubProtocol(
            delivered=[C0],
            skipped=[A1],
            archive=[([A0], [B0])],
        )
        lives = list(iter_incarnations(protocol))
        assert [(inc, [e.msg_id for e in envs], skips) for inc, envs, skips in lives] == [
            (0, [A0], {B0}),
            (1, [C0], {A1}),
        ]
