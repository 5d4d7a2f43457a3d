"""Always-on safety invariants for fault-injection campaigns.

A chaos campaign (``repro.chaos``) subjects a group of protocol stacks to
crashes, partitions, loss and membership churn; afterwards the
:class:`InvariantMonitor` audits every member against the properties the
paper's model takes for granted of its substrate:

``duplicate-delivery``
    No application label is delivered twice within one incarnation
    (labels make dedup trivial — Section 6.1).
``causal-order``
    Every delivery respects the ground-truth dependency set recorded at
    send time; a dependency counts as satisfied if it was delivered
    earlier in the same incarnation *or* settled via a stable-prefix
    skip (compacted history an amnesiac rejoiner can never re-deliver).
``total-order``
    For total-order protocols: any two members' final-incarnation logs
    agree on the relative order of every common pair of data labels.
``sequencer-epoch``
    For the sequencer protocol: all members agree, per global sequence
    number, on the winning ``(epoch, label)`` binding (the deterministic
    cross-epoch resolution converged), and on the position every common
    data label was actually delivered at.
``view-synchrony``
    At each view installation, the member had settled the union of all
    collected flush digests (the relaxed, *auditable* form of "same
    delivered set at the synchronization point": copies that straggle in
    after FLUSH_OK make exact set equality unobservable).
``gc-safety``
    No member compacted bodies beyond what every current member has
    settled — garbage collection never destroyed a label some member
    still needs delivered.
``convergence``
    Every member settled every data label any member settled (checked
    after the campaign's bounded repair phase; its failure is reported
    by the campaign runner as a *liveness* violation).

Each check is a separate method returning :class:`Violation` records so
tests can pin them individually; :meth:`InvariantMonitor.check_all` runs
the full battery.

Sharded clusters (:mod:`repro.shard`) additionally run
:class:`CrossShardChecker` — the causal-consistency check of Bouajjani,
Enea, Guerraoui & Hamza (*On Verifying Causal Consistency*): the
ledger's stamp order must embed into every member's per-shard delivery
order (``cross-shard-causal``).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

# `Violation` lives with the value types so the data plane can report a
# livelock without loading this module; it is re-exported from here.
from repro.types import Envelope, EntityId, MessageId, Violation

if TYPE_CHECKING:  # pragma: no cover - the ledger imports this lazily
    from repro.shard.ledger import Ledger


def iter_incarnations(
    protocol,
) -> Iterator[Tuple[int, List[Envelope], Set[MessageId]]]:
    """Yield ``(incarnation, delivered_envelopes, skipped)`` per life."""
    for index, (envelopes, skipped) in enumerate(
        protocol.incarnation_archive
    ):
        yield index, list(envelopes), set(skipped)
    yield (
        protocol.incarnation,
        list(protocol._delivered_envelopes),
        set(protocol.skipped_stable),
    )


class InvariantMonitor:
    """Audits a set of protocol stacks after a (possibly chaotic) run.

    Parameters
    ----------
    protocols:
        Entity -> protocol stack (all stacks ever part of the group).
    dependencies:
        Ground-truth causal dependencies per data label, as of send time
        (``repro.chaos.ChaosCluster`` records them at ``app_send``;
        ``repro.shard.ShardedCluster`` derives them from its ledger).
    data_labels:
        The application labels; checks ignore protocol control traffic.
    view_syncs:
        Entity -> :class:`~repro.group.view_sync.ViewSyncAgent`, if the
        group ran the flush protocol.
    trackers:
        Entity -> :class:`~repro.broadcast.gc.StabilityTracker`, if the
        group ran garbage collection.
    expected_members:
        The membership the final view must equal, if known.
    check_total_order:
        Enable the pairwise total-order check (meaningful only for
        total-order protocols).
    sequencer_epochs:
        Enable the sequencer binding-agreement check (meaningful only for
        the sequencer protocol, whose stacks expose ``binding_table`` and
        ``delivered_positions``).
    audience:
        Optional per-label set of members the protocol *guarantees*
        ordering for (the send-time view).  RST's sent-matrix records
        owed counts per (origin, destination) pair for the members of
        the sender's current view only, so a message broadcast while a
        member was out of the view is never causally ordered with
        respect to that member — a per-destination weakness under churn
        (documented in ``docs/ROBUSTNESS.md``).  When supplied, a
        dependency is enforced at member ``m`` only if ``m`` is in the
        dependency's audience; labels absent from the map are enforced
        everywhere.
    """

    def __init__(
        self,
        protocols: Dict[EntityId, object],
        *,
        dependencies: Optional[Dict[MessageId, frozenset]] = None,
        data_labels: Optional[Set[MessageId]] = None,
        view_syncs: Optional[Dict[EntityId, object]] = None,
        trackers: Optional[Dict[EntityId, object]] = None,
        expected_members: Optional[Iterable[EntityId]] = None,
        check_total_order: bool = False,
        sequencer_epochs: bool = False,
        audience: Optional[Dict[MessageId, frozenset]] = None,
    ) -> None:
        self.protocols = protocols
        self.dependencies = dependencies or {}
        self.data_labels = (
            set(data_labels) if data_labels is not None
            else set(self.dependencies)
        )
        self.view_syncs = view_syncs or {}
        self.trackers = trackers or {}
        self.expected_members = (
            frozenset(expected_members) if expected_members is not None else None
        )
        self.check_total_order = check_total_order
        self.sequencer_epochs = sequencer_epochs
        self.audience = audience

    # -- incarnation plumbing ------------------------------------------------

    def _data_log(self, envelopes: Sequence[Envelope]) -> List[MessageId]:
        return [
            e.msg_id for e in envelopes if e.msg_id in self.data_labels
        ]

    def _settled_data(self, protocol) -> Set[MessageId]:
        """Data labels the stack's *current* incarnation has settled."""
        delivered = (e.msg_id for e in protocol._delivered_envelopes)
        labels = itertools.chain(delivered, protocol.skipped_stable)
        return {label for label in labels if label in self.data_labels}

    # -- individual checks ---------------------------------------------------

    def check_duplicate_deliveries(self) -> List[Violation]:
        violations = []
        for member, protocol in self.protocols.items():
            for incarnation, envelopes, _skipped in iter_incarnations(protocol):
                log = self._data_log(envelopes)
                seen: Set[MessageId] = set()
                for label in log:
                    if label in seen:
                        violations.append(Violation(
                            "duplicate-delivery",
                            member,
                            f"{label} delivered twice in incarnation "
                            f"{incarnation}",
                        ))
                    seen.add(label)
        return violations

    def check_causal_order(self) -> List[Violation]:
        violations = []
        for member, protocol in self.protocols.items():
            for incarnation, envelopes, skipped in iter_incarnations(protocol):
                log = self._data_log(envelopes)
                position: Dict[MessageId, int] = {}
                for i, label in enumerate(log):
                    position.setdefault(label, i)
                for label in log:
                    for dep in self.dependencies.get(label, ()):
                        if dep in skipped:
                            continue
                        if self.audience is not None:
                            reached = self.audience.get(dep)
                            if reached is not None and member not in reached:
                                continue
                        dep_position = position.get(dep)
                        if dep_position is None:
                            violations.append(Violation(
                                "causal-order",
                                member,
                                f"{label} delivered in incarnation "
                                f"{incarnation} without its dependency {dep}",
                            ))
                        elif dep_position >= position[label]:
                            violations.append(Violation(
                                "causal-order",
                                member,
                                f"{label} delivered before its dependency "
                                f"{dep} in incarnation {incarnation}",
                            ))
        return violations

    def check_total_order_agreement(self) -> List[Violation]:
        if not self.check_total_order:
            return []
        violations = []
        logs = {
            member: self._data_log(protocol._delivered_envelopes)
            for member, protocol in self.protocols.items()
        }
        members = sorted(logs)
        for i, first in enumerate(members):
            for second in members[i + 1:]:
                common = set(logs[first]) & set(logs[second])
                ordered_first = [l for l in logs[first] if l in common]
                ordered_second = [l for l in logs[second] if l in common]
                if ordered_first != ordered_second:
                    disagreement = next(
                        (a, b)
                        for a, b in zip(ordered_first, ordered_second)
                        if a != b
                    )
                    violations.append(Violation(
                        "total-order",
                        first,
                        f"{first!r} and {second!r} disagree on common-label "
                        f"order starting at {disagreement}",
                    ))
        return violations

    def check_sequencer_epochs(self) -> List[Violation]:
        """Binding agreement for the sequencer protocol.

        Two sub-properties, both over final-incarnation state:

        * members that know a binding for the same global sequence number
          agree on its winning ``(epoch, label)`` — the higher-epoch-wins
          merge is order-independent, so any disagreement means an
          unresolved (or wrongly resolved) cross-epoch conflict;
        * members that delivered the same data label delivered it at the
          same global position.
        """
        if not self.sequencer_epochs:
            return []
        violations = []
        tables = {
            member: dict(protocol.binding_table)
            for member, protocol in self.protocols.items()
            if hasattr(protocol, "binding_table")
        }
        members = sorted(tables)
        for i, first in enumerate(members):
            for second in members[i + 1:]:
                for seq in sorted(tables[first].keys() & tables[second].keys()):
                    if tables[first][seq] != tables[second][seq]:
                        violations.append(Violation(
                            "sequencer-epoch",
                            first,
                            f"{first!r} and {second!r} disagree on the "
                            f"binding for seq {seq}: "
                            f"{tables[first][seq]} vs {tables[second][seq]}",
                        ))
        positions = {
            member: dict(protocol.delivered_positions)
            for member, protocol in self.protocols.items()
            if hasattr(protocol, "delivered_positions")
        }
        members = sorted(positions)
        for i, first in enumerate(members):
            for second in members[i + 1:]:
                # Sorted: a set of labels iterates in hash order.
                for label in sorted(
                    positions[first].keys() & positions[second].keys()
                ):
                    if positions[first][label] != positions[second][label]:
                        violations.append(Violation(
                            "sequencer-epoch",
                            first,
                            f"{first!r} delivered {label} at position "
                            f"{positions[first][label]} but {second!r} at "
                            f"{positions[second][label]}",
                        ))
        return violations

    def check_view_synchrony(self) -> List[Violation]:
        violations = []
        for member, agent in self.view_syncs.items():
            for record in agent.install_history:
                if record.snapshot >= record.digest_union:
                    continue
                missing = set(record.digest_union) - set(record.snapshot)
                if self.data_labels:
                    missing &= self.data_labels
                if missing:
                    sample = sorted(missing, key=str)[:3]
                    violations.append(Violation(
                        "view-synchrony",
                        member,
                        f"view {record.view_id} installed without settling "
                        f"{len(missing)} digest label(s), e.g. {sample}",
                    ))
        return violations

    def check_gc_safety(self) -> List[Violation]:
        violations = []
        settled = {
            member: self._settled_data(protocol)
            for member, protocol in self.protocols.items()
        }
        for gc_member, tracker in self.trackers.items():
            for origin, frontier in tracker.applied_frontier.items():
                for member, have in settled.items():
                    missing = [
                        MessageId(origin, seqno)
                        for seqno in range(frontier)
                        if MessageId(origin, seqno) in self.data_labels
                        and MessageId(origin, seqno) not in have
                    ]
                    if missing:
                        violations.append(Violation(
                            "gc-safety",
                            gc_member,
                            f"compacted {origin!r} below seqno {frontier} "
                            f"but {member!r} never settled {missing[:3]}",
                        ))
        return violations

    def check_convergence(self) -> List[Violation]:
        violations = []
        settled = {
            member: self._settled_data(protocol)
            for member, protocol in self.protocols.items()
        }
        union: Set[MessageId] = set()
        for have in settled.values():
            union |= have
        for member, have in settled.items():
            missing = union - have
            if missing:
                sample = sorted(missing, key=str)[:3]
                violations.append(Violation(
                    "convergence",
                    member,
                    f"missing {len(missing)} settled data label(s), "
                    f"e.g. {sample}",
                ))
        return violations

    def check_holdback_drained(self) -> List[Violation]:
        violations = []
        for member, protocol in self.protocols.items():
            held = [
                e.msg_id
                for e in protocol.holdback_envelopes
                if e.msg_id in self.data_labels
            ]
            if held:
                violations.append(Violation(
                    "holdback-drained",
                    member,
                    f"{len(held)} data envelope(s) still held back, "
                    f"e.g. {held[:3]}",
                ))
        return violations

    def check_final_view(self) -> List[Violation]:
        if self.expected_members is None:
            return []
        views = {
            member: protocol.group.view
            for member, protocol in self.protocols.items()
        }
        violations = []
        for member, view in views.items():
            if frozenset(view.members) != self.expected_members:
                violations.append(Violation(
                    "final-view",
                    member,
                    f"final view {sorted(view.members)} != expected "
                    f"{sorted(self.expected_members)}",
                ))
                break  # membership is shared; one report suffices
        return violations

    # -- battery -------------------------------------------------------------

    def check_all(self) -> List[Violation]:
        """Run every applicable invariant; empty list means all safe."""
        return (
            self.check_duplicate_deliveries()
            + self.check_causal_order()
            + self.check_total_order_agreement()
            + self.check_sequencer_epochs()
            + self.check_view_synchrony()
            + self.check_gc_safety()
            + self.check_convergence()
            + self.check_holdback_drained()
            + self.check_final_view()
        )


class CrossShardChecker:
    """Cross-shard causal consistency (the ``cross-shard-causal`` check).

    Following Bouajjani et al. (*On Verifying Causal Consistency*), an
    execution is causally consistent iff happens-before embeds into each
    replica's local serialization.  Here happens-before is the ledger's
    stamp graph: each operation's in-group ``Occurs-After`` set and its
    cross-group ``cross_deps``, recorded at issue time.  Session order is
    no separate generator — :meth:`Ledger.session_order_violations
    <repro.shard.ledger.Ledger.session_order_violations>` checks that it
    already lies inside the stamps.

    The check: for every member, every incarnation, every delivered
    ledger label's causal past *on the member's own shard* must be
    settled before it — delivered earlier in that incarnation, or
    skipped as stable prefix.  Ancestors on other shards are never
    delivered here and impose no local obligation; they constrain this
    member only through their same-shard descendants, which the graph's
    closure supplies.  :meth:`Ledger.delivery_gaps
    <repro.shard.ledger.Ledger.delivery_gaps>` walks each incarnation
    once; a label delivered again is judged at its first delivery
    (``duplicate-delivery`` reports the repeat).
    """

    def __init__(
        self,
        protocols: Dict[EntityId, object],
        ledger: "Ledger",
        shard_of_member: Dict[EntityId, int],
    ) -> None:
        self.protocols = protocols
        self.ledger = ledger
        self.shard_of_member = shard_of_member

    def check(self) -> List[Violation]:
        violations: List[Violation] = []
        for member, protocol in sorted(self.protocols.items()):
            shard = self.shard_of_member[member]
            for incarnation, envelopes, skipped in iter_incarnations(
                protocol
            ):
                log = [e.msg_id for e in envelopes]
                for label, dep, later in self.ledger.delivery_gaps(
                    log, skipped, shard
                ):
                    if later:
                        detail = (
                            f"{label} delivered before its happens-before "
                            f"ancestor {dep} in incarnation {incarnation}"
                        )
                    else:
                        detail = (
                            f"{label} delivered in incarnation "
                            f"{incarnation} without its happens-before "
                            f"ancestor {dep}"
                        )
                    violations.append(
                        Violation("cross-shard-causal", member, detail)
                    )
        return violations
