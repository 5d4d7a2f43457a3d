"""The cluster-wide operation ledger.

Each shard runs its *own* causal-broadcast group; no protocol instance
ever sees the whole object space, and a ``ReplicaGroup`` records nothing
about the traffic it carries.  :class:`Ledger` is the sharded cluster's
only ground truth and the single owner of everything retained per issued
operation: one :class:`OpRecord` per label in global issue order, the
dependency graph over both edge kinds, the per-shard label sets, masks
and key index, the barrier cut folds, the completed barrier reads and
one log per session.  Two surfaces (tabulated in ``docs/SHARDING.md``):

* **data-plane questions** — what the router, the barrier, the
  rebalancer and the cluster's read path ask while serving.  The paper's
  front-end manager and replicas know only what messages carry (Section
  6.1), so these answers must move to the replicas before anything here
  can be truncated.
* **audit questions** — what the invariant batteries and the white-box
  session-guarantee audit ask after the fact: they judge a *history*.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Collection, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.analysis.invariants import CrossShardChecker, Violation
from repro.analysis.session_guarantees import (
    GuaranteeViolation,
    SessionOp,
    check_all_session_guarantees,
)
from repro.errors import ProtocolError
from repro.graph.depgraph import DependencyGraph
from repro.types import EntityId, MessageId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.barrier import BarrierRead
    from repro.shard.rebalance import MoveRecord

#: Operation kinds that carry object-space data.  ``barrier`` is control
#: traffic: it synchronises but writes nothing.
DATA_KINDS = frozenset({"put", "migrate"})

#: key -> (issue index, value): a cut's last-writer-wins fold.
Fold = Dict[str, Tuple[int, object]]


class OpRecord(NamedTuple):
    """One issued operation, as recorded at send time.

    ``deps`` is the in-group ``Occurs-After`` AND-dependency the envelope
    carries; ``cross_deps`` the foreign labels stamped for audit (their
    in-group projections were already folded into ``deps`` by the
    router — see ``docs/SHARDING.md``).  ``index`` is the global issue
    ordinal; every dependency points at a lower index.
    """

    label: MessageId
    shard: int
    kind: str
    key: Optional[str]
    slot: Optional[int]
    value: object
    deps: FrozenSet[MessageId]
    cross_deps: FrozenSet[MessageId]
    session: Optional[str]
    index: int

    def writes(self) -> Iterable[Tuple[str, object]]:
        """The (key, value) pairs this operation writes: a ``put`` carries
        ``{"key", "value"}``, a ``migrate`` every moved key under
        ``"entries"``, anything else nothing."""
        if self.kind == "put":
            return ((self.value["key"], self.value["value"]),)
        if self.kind == "migrate":
            return self.value["entries"].items()
        return ()


class Ledger:
    """Everything retained per issued operation, behind two surfaces."""

    def __init__(self, shard_ids: Sequence[int]) -> None:
        self.graph = DependencyGraph()
        #: label -> record, in global issue order (``OpRecord.index`` is
        #: the label's position).
        self.ops: Dict[MessageId, OpRecord] = {}
        #: shard -> the ledger labels its group carries (what tells data
        #: from protocol control traffic in a member's delivery log).
        self._shard_labels: Dict[int, Set[MessageId]] = {s: set() for s in shard_ids}
        #: shard -> mask (over ``graph``'s bits) of every ledger label it
        #: carries, and of its data-carrying ones (``DATA_KINDS``) alone:
        #: `project` restricts a causal past to a shard, and the barrier
        #: a causal cut to a shard's writes, with one big-int AND.
        self._label_mask: Dict[int, int] = dict.fromkeys(shard_ids, 0)
        self._write_mask: Dict[int, int] = dict.fromkeys(shard_ids, 0)
        #: shard -> key -> its writes in issue order (puts, plus the
        #: migrate labels that carried the key between shards).  Lets a
        #: replica read answer "newest settled write of this key" with a
        #: short reversed scan instead of a fold.
        self.key_writes: Dict[int, Dict[str, List[MessageId]]] = {
            shard: {} for shard in shard_ids
        }
        #: shard -> (cut mask, fold) of the newest completed barrier cut
        #: there: what the next read extends when its cut contains this
        #: one (see `fold`).
        self._cut_folds: Dict[int, Tuple[int, Fold]] = {s: (0, {}) for s in shard_ids}
        #: Every completed barrier read, sessions' and rebalancer's alike.
        self.barrier_reads: List["BarrierRead"] = []
        #: session -> its log, appended once an operation by its ``Session``
        #: the moment it takes effect in session order: ("write", label)
        #: when a put issues, ("read", BarrierRead) when a read completes,
        #: ("get", (key, shard, served label | None, member)) when served.
        self.history: Dict[str, List[Tuple[str, object]]] = {}

    # == data-plane questions ==============================================

    def record(self, label: MessageId, **fields: object) -> None:
        """File one broadcast operation: ``fields`` are the
        :class:`OpRecord` fields besides ``label`` and ``index``."""
        record = OpRecord(label=label, index=len(self.ops), **fields)
        self.graph.add(label, record.deps | record.cross_deps)
        self.ops[label] = record
        shard = record.shard
        self._shard_labels[shard].add(label)
        bit = self.graph.bit_of(label)
        self._label_mask[shard] |= bit
        if record.kind in DATA_KINDS:
            self._write_mask[shard] |= bit
            by_key = self.key_writes[shard]
            for key, _value in record.writes():
                by_key.setdefault(key, []).append(label)

    def check_stamp(
        self, shard: int, occurs_after: FrozenSet[MessageId],
        cross_deps: FrozenSet[MessageId],
    ) -> None:
        """Refuse a stamp that files a label under the wrong shard:
        ``occurs_after`` (enforced by ``shard``'s own delivery predicate)
        names only labels filed there, ``cross_deps`` none of them."""
        mine = self._shard_labels[shard]
        if not occurs_after <= mine:
            raise ProtocolError(
                f"occurs_after for shard {shard} names foreign labels: "
                f"{sorted(map(str, occurs_after - mine))}"
            )
        if not cross_deps.isdisjoint(mine):
            raise ProtocolError(
                f"cross_deps for shard {shard} names in-group labels: "
                f"{sorted(map(str, cross_deps & mine))}"
            )

    def __contains__(self, label: MessageId) -> bool:
        return label in self.ops

    def __len__(self) -> int:
        return len(self.ops)

    def shard_of(self, label: MessageId) -> Optional[int]:
        """The shard ``label`` is filed under; ``None`` if it never was."""
        record = self.ops.get(label)
        return None if record is None else record.shard

    def index_of(self, label: MessageId) -> int:
        """``label``'s global issue ordinal."""
        return self.ops[label].index

    def slot_of(self, label: MessageId) -> Optional[int]:
        return self.ops[label].slot

    def precedes(self, earlier: MessageId, later: MessageId) -> bool:
        return self.graph.precedes(earlier, later)

    def maximal(self, labels: Iterable[MessageId]) -> FrozenSet[MessageId]:
        """Prune ``labels`` to its maximal elements under the graph."""
        return self.graph.maximal_elements(labels)

    def project(
        self, labels: Iterable[MessageId], shard: int
    ) -> FrozenSet[MessageId]:
        """``labels``' transitive causal past, restricted to ``shard``.

        The projection follows *both* edge kinds (in-group and cross),
        which is what lets a session that observed a label on shard B
        correctly depend on that label's shard-A ancestors.
        """
        pool = tuple(labels)
        if len(pool) == 1 and self.shard_of(pool[0]) == shard:
            # The label dominates its own causal past, so restricted to
            # its home shard it is the unique maximum.
            return frozenset(pool)
        graph = self.graph
        reached = graph.mask_of(pool)
        for label in pool:
            reached |= graph.past_mask(label)
        return graph.labels_of(
            graph.maximal_mask(reached & self._label_mask[shard])
        )

    def labels(self, shard: int) -> Set[MessageId]:
        """The labels filed under ``shard`` — the live set, not a copy."""
        return self._shard_labels[shard]

    def past_writes(self, label: MessageId, shard: int) -> int:
        """``label``'s causal past restricted to ``shard``'s writes: a cut,
        i.e. a mask over the graph's bits that :meth:`cut_labels` decodes."""
        return self.graph.past_mask(label) & self._write_mask[shard]

    def cut_labels(self, cut: int) -> FrozenSet[MessageId]:
        return self.graph.labels_of(cut)

    def closure_gaps(self, cuts: Dict[int, int]) -> Dict[int, int]:
        """shard -> the writes its cut lacks for ``cuts`` to be causally closed.

        The past of the cuts' maximal writes is the past of every covered
        write; each touched shard's share of it must lie inside its cut.
        """
        graph = self.graph
        past = 0
        for cut in cuts.values():
            for head in graph.labels_of(graph.maximal_mask(cut)):
                past |= graph.past_mask(head)
        gaps: Dict[int, int] = {}
        for shard, cut in cuts.items():
            reached = past & self._write_mask[shard]
            # x ^ (x & y) is x & ~y without the negative big int.
            gap = reached ^ (reached & cut)
            if gap:
                gaps[shard] = gap
        return gaps

    def folds(self) -> Dict[int, Tuple[int, Fold]]:
        """shard -> (cut, fold) of the newest completed cut, as of now."""
        return dict(self._cut_folds)

    def fold(self, shard: int, cut: int, base: Tuple[int, Fold]) -> Fold:
        """key -> (issue index, value) of ``shard``'s ``cut``, newest per key.

        Extends a copy of ``base`` (a pair :meth:`folds` handed out) if
        the cut contains that fold's, starts from nothing otherwise, and
        keeps the result for the reads that begin after this one.
        """
        base_cut, folded = base
        if base_cut & cut != base_cut:
            base_cut, folded = 0, {}
        folded = dict(folded)
        ops = self.ops
        for label in self.graph.labels_of(cut ^ base_cut):
            record = ops[label]
            for key, value in record.writes():
                held = folded.get(key)
                if held is None or held[0] < record.index:
                    folded[key] = (record.index, value)
        self._cut_folds[shard] = (cut, folded)
        return folded

    def newest_settled_write(
        self, shard: int, key: str, settled: Collection[MessageId]
    ) -> Tuple[Optional[object], Optional[MessageId]]:
        """``key``'s newest write inside ``settled``, as (value, label).

        Walks the key's per-shard write history newest-first — the exact
        value a last-writer-wins fold of ``settled`` would produce for
        the key, without folding anything.
        """
        for label in reversed(self.key_writes[shard].get(key, ())):
            if label in settled:
                for written, value in self.ops[label].writes():
                    if written == key:
                        return value, label
        return None, None

    # == audit questions ===================================================

    @property
    def issue_order(self) -> List[MessageId]:
        """Every ledger label in global issue order (a copy)."""
        return list(self.ops)

    def dependencies(self, shard: int) -> Dict[MessageId, FrozenSet[MessageId]]:
        """label -> in-group ``Occurs-After`` set, for ``shard``'s labels."""
        return {
            label: record.deps
            for label, record in self.ops.items()
            if record.shard == shard
        }

    def session_batches(self) -> Dict[str, List[List[MessageId]]]:
        """session -> issue-order batches of the labels it broadcast: a
        write is a singleton batch, a read's barrier labels form one batch
        (they are concurrent), a get broadcasts nothing."""
        return {
            session: [
                [entry] if kind == "write" else entry.barriers()
                for kind, entry in log
                if kind != "get"
            ]
            for session, log in self.history.items()
        }

    def check_cross_shard(
        self, protocols: Dict[EntityId, object], shard_of_member: Dict[EntityId, int]
    ) -> List[Violation]:
        ops = self.ops
        return CrossShardChecker(
            protocols,
            shard_of_member=shard_of_member,
            shard_of_label={l: r.shard for l, r in ops.items()},
            dependencies={l: r.deps for l, r in ops.items()},
            cross_dependencies={l: r.cross_deps for l, r in ops.items()},
            session_batches=self.session_batches(),
            issue_order=self.issue_order,
        ).check()

    def check_snapshot_closure(self) -> List[Violation]:
        """Every completed barrier read is a causally closed snapshot.

        A gap means the read returned a write and not one it causally
        follows — the ``WriteCOInitRead`` pattern of arXiv:1611.00580.
        """
        graph = self.graph
        violations: List[Violation] = []
        for read in self.barrier_reads:
            cuts = read.cuts()
            for shard, gap in sorted(self.closure_gaps(cuts).items()):
                missing = min(graph.labels_of(gap), key=self.index_of)
                covering = min(
                    (
                        label
                        for cut in cuts.values()
                        for label in graph.labels_of(cut)
                        if graph.precedes(missing, label)
                    ),
                    key=self.index_of,
                )
                path = " <- ".join(map(str, graph.path(missing, covering)))
                violations.append(Violation(
                    "snapshot-closure",
                    None,
                    f"session {read.session}'s read of shards "
                    f"{read.shards} at t={read.completed_at:.2f} covers "
                    f"{covering} but not {missing} on shard {shard}, "
                    f"which it causally follows ({path})",
                ))
        return violations

    def check_routing(self, moves: Sequence["MoveRecord"]) -> List[Violation]:
        """No put may reach a slot's *old* group after its cutover."""
        violations: List[Violation] = []
        #: slot -> its newest cutover; an earlier move's source may
        #: rightly own the slot again.
        newest: Dict[int, int] = {}
        for move in moves:
            if move.cutover_index is not None:
                newest[move.slot] = max(newest.get(move.slot, 0), move.cutover_index)
        for move in moves:
            if move.phase != "done" or move.cutover_index != newest.get(move.slot):
                continue
            for record in islice(self.ops.values(), move.cutover_index, None):
                if (
                    record.kind == "put"
                    and record.slot == move.slot
                    and record.shard == move.source
                ):
                    violations.append(Violation(
                        "shard-routing",
                        None,
                        f"{record.label} put key {record.key!r} on shard "
                        f"{record.shard} after slot {move.slot} moved to "
                        f"{move.dest}",
                    ))
        return violations

    def session_logs(self) -> Dict[str, List[SessionOp]]:
        """The session logs as session-guarantee checker input.

        A write is its label.  A read is anchored at its first barrier
        label (every barrier label of a read carries the session's whole
        frontier as ``Occurs-After``/``cross_deps``, so any one of them
        witnesses the session-order edge); its observed set is the data
        the snapshot covered, restricted to writes.  Gets are audited by
        index floors in :meth:`get_violations` — a served label is a
        foreign write, not a session operation, so shoehorning it into
        ``SessionOp`` would fabricate anchor edges.
        """
        all_writes = {
            entry
            for log in self.history.values()
            for kind, entry in log
            if kind == "write"
        }

        def session_op(kind: str, entry) -> SessionOp:
            if kind == "write":
                return SessionOp("write", entry)
            anchor = min(entry.barriers(), key=self.index_of)
            return SessionOp("read", anchor, frozenset(entry.labels & all_writes))

        return {
            name: [session_op(kind, e) for kind, e in log if kind != "get"]
            for name, log in self.history.items()
        }

    def get_violations(self) -> List[GuaranteeViolation]:
        """Audit replica-served gets for per-key session monotonicity.

        Walking each session's log in order, a key's *floor* is the
        newest (by issue index) write of that key the session is
        entitled to: its own puts, writes observed by its barrier reads,
        and writes served by its earlier gets.  Every get must return a
        write at or above the floor — returning an older value (or no
        value where the floor names one) means some replica answered
        below the session's causal context, i.e. the eligibility gate
        failed.
        """
        ops = self.ops
        violations: List[GuaranteeViolation] = []
        for name, log in self.history.items():
            floor: Dict[str, OpRecord] = {}

            def entitle(label: MessageId, only: Optional[str] = None) -> None:
                record = ops.get(label)
                for key, _value in record.writes() if record else ():
                    if only in (None, key) and (
                        key not in floor or floor[key].index < record.index
                    ):
                        floor[key] = record

            for kind, entry in log:
                if kind == "write":
                    entitle(entry)
                elif kind == "read":
                    for label in entry.labels:
                        entitle(label)
                else:
                    key, _shard, label, _member = entry
                    held = floor.get(key)
                    if held is not None and (
                        label is None or ops[label].index < held.index
                    ):
                        violations.append(GuaranteeViolation(
                            "get-freshness", name, label or held.label, held.label
                        ))
                    if label is not None:
                        entitle(label, key)
        return violations

    def session_guarantee_violations(self) -> List[GuaranteeViolation]:
        """Check the session logs against all four guarantees.

        The four classic checkers run over writes and barrier reads;
        replica-served gets get their own per-key freshness audit
        (:meth:`get_violations`), appended to the same list.
        """
        results = check_all_session_guarantees(self.graph, self.session_logs())
        classic = [v for found in results.values() for v in found]
        return classic + self.get_violations()
