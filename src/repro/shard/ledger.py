"""The cluster-wide operation ledger.

Each shard runs its *own* causal-broadcast group; no protocol instance
ever sees the whole object space, and a ``ReplicaGroup`` records nothing
about the traffic it carries.  :class:`Ledger` is the sharded cluster's
only ground truth and the single owner of everything retained per issued
operation: one :class:`OpRecord` per label in global issue order, the
dependency graph over both edge kinds, the per-shard label sets, masks
and key index, the barrier cut folds, the completed barrier reads, one
log of writes and reads per session and each session's running get
audit.  A record's ``deps`` and ``cross_deps`` are enough to answer the
serving path: a label's causal past on its own shard is the closure of
its ``deps`` (:meth:`Ledger.past_outside` walks it down to a member's
settled cut), and a write's on any other shard the closure of its
``cross_deps`` there.  Filing a put (:meth:`Ledger.record`) stores the record, its
shard's label set and key index, and nothing else: the graph and the
per-shard masks are a view, caught up from the records filed since the
last catch-up, in issue order, by the first question that needs them —
so a put nobody asks about never reaches the graph, and the view equals
what filing each record into it at once would have built, bit for bit.
Two surfaces (tabulated in ``docs/SHARDING.md``):

* **data-plane questions** — what the router, the barrier, the
  rebalancer and the cluster's read path ask while serving; of these
  only the rebalancer's cutover asks the graph.  The paper's
  front-end manager and replicas know only what messages carry (Section
  6.1), so these answers must move to the replicas before anything here
  can be truncated.
* **audit questions** — what the invariant batteries and the white-box
  session audit ask after the fact: they judge a *history*.  The graph's
  stamps are the audit's one causal order, checked in two linear
  passes: :meth:`Ledger.session_order_violations` (session order lies
  inside it) and :class:`~repro.analysis.invariants.CrossShardChecker`
  (every replica's delivery embeds it).  One audit runs online instead:
  :meth:`Ledger.audit_get` judges each get as its session serves it, so
  a get is never logged.  The checkers (:mod:`repro.analysis`) load when
  an audit runs or a stale get is found, not with the ledger.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Collection, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.broadcast.cut import Cut
from repro.errors import ProtocolError
from repro.graph.depgraph import DependencyGraph
from repro.types import MessageId, Violation

if TYPE_CHECKING:  # pragma: no cover - cycle guard, and audits load on use
    from repro.analysis.session_guarantees import GuaranteeViolation
    from repro.shard.barrier import BarrierRead
    from repro.shard.rebalance import MoveRecord

#: Operation kinds that carry object-space data.  ``barrier`` is control
#: traffic: it synchronises but writes nothing.
DATA_KINDS = frozenset({"put", "migrate"})

#: (earlier kind, later kind) -> the session guarantee a missing
#: session-order edge between a session's two ops breaks (a barrier is a
#: read's label, anything else a write's).
SESSION_ORDER = {
    ("put", "put"): "monotonic-writes",
    ("put", "barrier"): "read-your-writes",
    ("barrier", "barrier"): "monotonic-reads",
    ("barrier", "put"): "writes-follow-reads",
}

#: key -> (issue index, value): a cut's last-writer-wins fold.
Fold = Dict[str, Tuple[int, object]]

_NO_CUT = Cut()


class OpRecord(NamedTuple):
    """One issued operation, as recorded at send time.

    ``deps`` is the in-group ``Occurs-After`` AND-dependency — the very
    frozenset the envelope's predicate carries; ``cross_deps`` the
    foreign labels, filed here for audit and on no envelope (their
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


class _GetAudit:
    """One session's get-freshness audit, advanced at each served get:
    how far into the session's log it has read, the per-key floor, the
    cut mask its reads observed, and the stale gets found."""

    __slots__ = ("cursor", "floor", "observed", "violations")

    def __init__(self) -> None:
        self.cursor = 0
        self.floor: Dict[str, OpRecord] = {}
        self.observed = 0
        self.violations: List[GuaranteeViolation] = []

    def entitle(
        self, record: Optional[OpRecord], only: Optional[str] = None
    ) -> None:
        """Raise the floor to ``record``'s writes (to key ``only`` alone,
        if given); a label the ledger never filed entitles nothing."""
        floor = self.floor
        for key, _value in record.writes() if record else ():
            if only in (None, key) and (
                key not in floor or floor[key].index < record.index
            ):
                floor[key] = record


class Ledger:
    """Everything retained per issued operation, behind two surfaces."""

    def __init__(self, shard_ids: Sequence[int]) -> None:
        #: The graph view over both edge kinds (see `graph`): it holds the
        #: records filed before `_unbuilt`'s, in issue order.
        self._graph = DependencyGraph()
        #: Records filed since the last catch-up, in issue order.
        self._unbuilt: List[OpRecord] = []
        #: Catch-ups that filed at least one record into the graph: how
        #: often a question needed the graph (the ``graph_catchups``
        #: gauge).
        self.catchups = 0
        #: label -> record, in global issue order (``OpRecord.index`` is
        #: the label's position).
        self.ops: Dict[MessageId, OpRecord] = {}
        #: shard -> the ledger labels its group carries (what tells data
        #: from protocol control traffic in a member's delivery log).
        self._shard_labels: Dict[int, Set[MessageId]] = {s: set() for s in shard_ids}
        #: shard -> mask (over ``graph``'s bits) of every ledger label it
        #: carries, and of its data-carrying ones (``DATA_KINDS``) alone:
        #: `project` restricts a causal past to a shard, and the barrier
        #: a causal cut to a shard's writes, with one big-int AND.  Part
        #: of the graph view: caught up with it.
        self._label_mask: Dict[int, int] = dict.fromkeys(shard_ids, 0)
        self._write_mask: Dict[int, int] = dict.fromkeys(shard_ids, 0)
        #: shard -> key -> its writes in issue order (puts, plus the
        #: migrate labels that carried the key between shards).  Lets a
        #: replica read answer "newest settled write of this key" with a
        #: short reversed scan instead of a fold.
        self.key_writes: Dict[int, Dict[str, List[MessageId]]] = {
            shard: {} for shard in shard_ids
        }
        #: shard -> (cut, fold) of the newest completed barrier cut there:
        #: what the next read extends when its cut holds this one's
        #: writes (see `fold`).
        self._cut_folds: Dict[int, Tuple[Cut, Fold]] = {
            s: (_NO_CUT, {}) for s in shard_ids
        }
        #: Every completed barrier read, sessions' and rebalancer's alike.
        self.barrier_reads: List["BarrierRead"] = []
        #: session -> its log, appended once an operation by its ``Session``
        #: the moment it takes effect in session order: ("write", label)
        #: when a put issues, ("read", BarrierRead) when a read completes.
        #: A get is audited as it is served (`audit_get`) and logs nothing.
        self.history: Dict[str, List[Tuple[str, object]]] = {}
        #: session -> its get-freshness audit so far (`audit_get`).
        self._get_audits: Dict[str, _GetAudit] = {}

    # == data-plane questions ==============================================

    def record(
        self, label: MessageId, *, shard: int, kind: str, key: Optional[str],
        slot: Optional[int], value: object, deps: FrozenSet[MessageId],
        cross_deps: FrozenSet[MessageId], session: Optional[str],
    ) -> None:
        """File one broadcast operation: the keywords are the
        :class:`OpRecord` fields besides ``label`` and ``index``.

        The record, its shard's label set and its key index only; the
        graph view catches up when a question needs it (`graph`).
        """
        record = OpRecord(label, shard, kind, key, slot, value, deps,
                          cross_deps, session, len(self.ops))
        self.ops[label] = record
        self._unbuilt.append(record)
        self._shard_labels[shard].add(label)
        if kind == "put":  # one key: what `writes()` yields, unwalked
            self.key_writes[shard].setdefault(value["key"], []).append(label)
        elif kind in DATA_KINDS:
            by_key = self.key_writes[shard]
            for written, _value in record.writes():
                by_key.setdefault(written, []).append(label)

    @property
    def graph(self) -> DependencyGraph:
        """The dependency graph over every filed label, both edge kinds.

        A view: reading it first files the records filed since the last
        read into it and into the per-shard masks, in issue order — the
        order eager filing used — so every bit position, mask and answer
        is the one filing each put at once gives.  Ledger labels never
        dangle (a stamp names only filed labels), so no add runs a cycle
        check.
        """
        if self._unbuilt:
            self._catch_up()
        return self._graph

    def _catch_up(self) -> None:
        graph = self._graph
        add, bit_of = graph.add, graph.bit_of
        label_mask, write_mask = self._label_mask, self._write_mask
        for record in self._unbuilt:
            label, shard = record.label, record.shard
            # Both stamps go in as they are: the graph shares the
            # record's frozensets instead of building their union.
            add(label, record.deps, record.cross_deps)
            bit = bit_of(label)
            label_mask[shard] |= bit
            if record.kind in DATA_KINDS:
                write_mask[shard] |= bit
        self._unbuilt = []
        self.catchups += 1

    def closure_footprint(self) -> Tuple[int, int]:
        """The graph view's memoised closures as ``(entries, bytes)``,
        without catching it up: what the ``stats`` gauges sample."""
        return self._graph.closure_footprint()

    def slot_writes(self, shard: int, slot: int) -> List[MessageId]:
        """Every write to ``slot``'s keys issued on ``shard`` so far."""
        ops = self.ops
        return [
            label
            for labels in self.key_writes[shard].values()
            # A key's writes all carry its slot.
            if ops[labels[0]].slot == slot
            for label in labels
        ]

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

    def session_of(self, label: MessageId) -> Optional[str]:
        """The session that issued ``label``; ``None`` if none did."""
        record = self.ops.get(label)
        return None if record is None else record.session

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

    def folds(self) -> Dict[int, Tuple[Cut, Fold]]:
        """shard -> (cut, fold) of the newest completed cut, as of now."""
        return dict(self._cut_folds)

    def fold(self, shard: int, cut: Cut, base: Tuple[Cut, Fold]) -> Fold:
        """key -> (issue index, value) of ``shard``'s writes in ``cut``,
        newest per key.

        Extends a copy of ``base`` (a pair :meth:`folds` handed out) by
        the writes ``cut`` has beyond it (:meth:`Cut.beyond`, so the
        shared history is never walked) if ``cut`` holds every write of
        the base's cut, starts from nothing otherwise, and keeps the
        result for the reads that begin after this one.  The new writes
        are taken as the frozenset built in issue order, which fixes the
        fold's key order — the order of the read's value and of its
        reply — for a given hash seed.
        """
        ops = self.ops
        base_cut, folded = base
        if any(
            label in ops and ops[label].kind in DATA_KINDS
            for label in base_cut.beyond(cut)
        ):
            base_cut, folded = _NO_CUT, {}
        folded = dict(folded)
        for label in self.in_issue_order(
            label for label in cut.beyond(base_cut)
            if label in ops and ops[label].kind in DATA_KINDS
        ):
            record = ops[label]
            for key, value in record.writes():
                held = folded.get(key)
                if held is None or held[0] < record.index:
                    folded[key] = (record.index, value)
        self._cut_folds[shard] = (cut, folded)
        return folded

    def in_issue_order(self, labels: Iterable[MessageId]) -> FrozenSet[MessageId]:
        """``labels`` as the frozenset built in issue order, so that it
        iterates the same for a given hash seed however it was computed:
        every stamp and frontier the barrier and the sessions build, and
        the writes a fold takes."""
        pool = list(labels)
        if len(pool) > 1:
            ops = self.ops
            pool.sort(key=lambda label: ops[label].index)
        return frozenset(pool)

    def past_outside(
        self, roots: Iterable[MessageId], cut: Collection[MessageId]
    ) -> Tuple[Set[MessageId], Set[MessageId]]:
        """``roots``' in-group causal past outside ``cut``, roots included,
        and every label the walked labels name in their ``deps``.

        A label's past on its own shard is the closure of its ``deps``, so
        the walk goes down ``deps`` and stops at ``cut``'s labels: when
        ``cut`` is closed under ``deps`` it visits exactly what
        ``roots`` add to it.  A label outside ``cut`` is below another
        root or walked label iff the walk names it (a path between two
        labels outside a closed cut never enters the cut).
        """
        ops = self.ops
        walked = {label for label in roots if label not in cut}
        stack = list(walked)
        named: Set[MessageId] = set()
        while stack:
            deps = ops[stack.pop()].deps
            named |= deps
            for dep in deps:
                if dep not in walked and dep not in cut:
                    walked.add(dep)
                    stack.append(dep)
        return walked, named

    def newest_settled_write(
        self, shard: int, key: str, settled: Callable[[MessageId], bool]
    ) -> Tuple[Optional[object], Optional[MessageId]]:
        """``key``'s newest write ``settled`` holds for, as (value, label).

        Walks the key's per-shard write history newest-first — the exact
        value a last-writer-wins fold of the settled labels would produce
        for the key, without folding anything.
        """
        for label in reversed(self.key_writes[shard].get(key, ())):
            if settled(label):
                for written, value in self.ops[label].writes():
                    if written == key:
                        return value, label
        return None, None

    # == audit questions ===================================================

    @property
    def issue_order(self) -> List[MessageId]:
        """Every ledger label in global issue order (a copy)."""
        return list(self.ops)

    def past_writes(self, label: MessageId, shard: int) -> int:
        """``label``'s causal past restricted to ``shard``'s writes: a cut,
        i.e. a mask over the graph's bits that :meth:`cut_labels` decodes."""
        return self.graph.past_mask(label) & self._write_mask[shard]

    def cut_labels(self, cut: int) -> FrozenSet[MessageId]:
        return self.graph.labels_of(cut)

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
        (they are concurrent)."""
        return {
            session: [
                [entry] if kind == "write" else entry.barriers()
                for kind, entry in log
            ]
            for session, log in self.history.items()
        }

    def check_snapshot_closure(self) -> List[Violation]:
        """Every completed barrier read is a causally closed snapshot.

        A gap means the read returned a write and not one it causally
        follows — the ``WriteCOInitRead`` pattern of arXiv:1611.00580.
        The causal pasts are the records' stamps, every edge of both
        kinds walked from every covered label — not the barrier's closure
        check, which reads only its write heads' ``cross_deps`` and
        relies on them holding the writes' whole foreign past, so a
        fault there must not blind the audit.  The graph only encodes
        what each read covers (its cuts) and names the path in a
        report.

        A walk starts at each covered label and goes down through the
        labels outside the snapshot; a touched shard's write it meets is
        a gap.  Where the session's previous clean read of the same
        shards lies inside this one, the walk skips what that read
        covered and what its walks passed: their pasts lie inside it.

        The cut a read folded its value from (``BarrierRead.cuts``) must
        hold exactly the writes of the graph's decode; a difference is a
        ``snapshot-cut`` violation.  Against a clean base whose two
        views agreed, only what each view adds to the base's is checked,
        and the base's writes the read's cut lacks.
        """
        ops = self.ops
        graph = self.graph
        bit_of = graph.bit_of
        violations: List[Violation] = []
        #: session -> the graph's cuts and the read's own of its newest
        #: clean read, and the labels outside them its walks passed.
        clean: Dict[
            Optional[str], Tuple[Dict[int, int], Dict[int, Cut], Set[MessageId]]
        ] = {}
        for read in self.barrier_reads:
            cuts = read.masks()
            base, held, passed = clean.get(read.session, (None, None, set()))
            if base is None or base.keys() != cuts.keys() or not all(
                base[shard] & cut == base[shard] for shard, cut in cuts.items()
            ):
                base, held, passed = dict.fromkeys(cuts, 0), {}, set()
            stack: List[MessageId] = []
            differ: List[MessageId] = []
            for shard, cut in cuts.items():
                # x ^ (x & y) is x & ~y without the negative big int.
                fresh = graph.labels_of(cut ^ (cut & base[shard]))
                stack.extend(fresh)
                own = read.cuts.get(shard, _NO_CUT)
                floor = held.get(shard, _NO_CUT)
                differ.extend(label for label in fresh if label not in own)
                differ.extend(
                    label
                    for label in chain(own.beyond(floor), floor.beyond(own))
                    if label in ops and ops[label].kind in DATA_KINDS
                    and (label in own) != bool(cut & bit_of(label))
                )
            if differ:
                violations.append(Violation(
                    "snapshot-cut",
                    None,
                    f"session {read.session}'s read of shards {read.shards} "
                    f"at t={read.completed_at:.2f} folded a cut that differs "
                    f"from its barriers' causal past at "
                    f"{', '.join(map(str, sorted(set(differ), key=self.index_of)))}",
                ))
            seen = set(stack)
            gaps: Dict[int, List[MessageId]] = {}
            while stack:
                record = ops[stack.pop()]
                for dep in chain(record.deps, record.cross_deps):
                    if dep in seen or dep in passed:
                        continue
                    shard = ops[dep].shard
                    if cuts.get(shard, 0) & bit_of(dep):
                        continue  # covered: walked from, or by the base
                    seen.add(dep)
                    stack.append(dep)
                    if shard in cuts and ops[dep].kind in DATA_KINDS:
                        gaps.setdefault(shard, []).append(dep)
            if not gaps and not differ:
                passed |= seen
                clean[read.session] = (cuts, read.cuts, passed)
            for shard, gap in sorted(gaps.items()):
                missing = min(gap, key=self.index_of)
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

    def session_order_violations(self) -> List[GuaranteeViolation]:
        """Session order inside stamp order: the §6.1 front-end's promise.

        Every label of a batch in :meth:`session_batches` must follow
        every label of the session's batch before it in the ledger graph.
        Then a path runs from each earlier op to each later one — and
        from each write an earlier read observed, which lies in the past
        of that read's barrier labels — so all four session guarantees
        hold.  A missing edge is named after the guarantee its pair of
        kinds breaks (``SESSION_ORDER``).
        """
        from repro.analysis.session_guarantees import GuaranteeViolation

        ops = self.ops
        precedes = self.graph.precedes
        violations: List[GuaranteeViolation] = []
        for name, batches in self.session_batches().items():
            for earlier, later in zip(batches, batches[1:]):
                for after in later:
                    for before in earlier:
                        if not precedes(before, after):
                            pair = (ops[before].kind, ops[after].kind)
                            violations.append(GuaranteeViolation(
                                SESSION_ORDER[pair], name, after, before
                            ))
        return violations

    def audit_get(
        self,
        session: str,
        key: str,
        shard: int,
        label: Optional[MessageId],
        member: object,
    ) -> None:
        """Judge one get as it is served: per-key session monotonicity.

        A key's *floor* is the newest (by issue index) write of that key
        the session is entitled to: its own puts, writes observed by its
        barrier reads, and writes served by its earlier gets.  The get
        (``key`` answered with ``label`` by ``member`` of ``shard``) must
        return a write at or above the floor — an older value, or none
        where the floor names one, means some replica answered below the
        session's causal context, i.e. the eligibility gate failed.

        The floor catches up lazily: the log entries the session added
        since its last get are folded in here, so a put or a read pays
        nothing on its own path.  A read entitles only the writes its cuts
        add to what the session's earlier reads observed, so each write is
        decoded at most once per session.  Nothing about the get itself
        is kept unless it is stale.
        """
        audit = self._get_audits.get(session)
        if audit is None:
            audit = self._get_audits[session] = _GetAudit()
        log = self.history.setdefault(session, [])
        ops = self.ops
        for kind, entry in log[audit.cursor:]:
            if kind == "write":
                audit.entitle(ops.get(entry))
            else:
                cut = 0
                for part in entry.masks().values():
                    cut |= part
                # x ^ (x & y) is x & ~y without the negative big int.
                for covered in self.graph.labels_of(cut ^ (cut & audit.observed)):
                    audit.entitle(ops.get(covered))
                audit.observed |= cut
        audit.cursor = len(log)
        held = audit.floor.get(key)
        if held is not None and (label is None or ops[label].index < held.index):
            from repro.analysis.session_guarantees import GuaranteeViolation

            audit.violations.append(GuaranteeViolation(
                "get-freshness", session, label or held.label, held.label
            ))
        if label is not None:
            audit.entitle(ops.get(label), key)

    def get_violations(self) -> List[GuaranteeViolation]:
        """Every stale get :meth:`audit_get` found, session by session in
        the order the sessions were opened, each in serving order."""
        audits = self._get_audits
        return [
            violation
            for name in self.history
            if name in audits
            for violation in audits[name].violations
        ]

    def delivery_gaps(
        self, log: Sequence[MessageId], skipped: Collection[MessageId], shard: int
    ) -> List[Tuple[MessageId, MessageId, bool]]:
        """Where one incarnation's delivery ``log`` leaves stamp order.

        Every delivered ledger label's causal past on ``shard`` must be
        settled before it: delivered earlier in ``log`` or ``skipped`` as
        stable prefix.  One pass with a running mask of what is settled;
        a label delivered again is judged at its first delivery.  Returns
        ``(label, ancestor, ancestor delivered later)`` per gap — the
        flag is false when ``log`` lacks the ancestor altogether.
        """
        graph = self.graph
        own = self._label_mask[shard]
        log = [label for label in log if label in self.ops]
        delivered = graph.mask_of(log)
        settled = graph.mask_of(skipped)
        done = 0
        gaps: List[Tuple[MessageId, MessageId, bool]] = []
        for label in log:
            bit = graph.bit_of(label)
            if done & bit:
                continue
            done |= bit
            need = graph.past_mask(label) & own
            gap = need ^ (need & settled)
            settled |= bit
            for dep in sorted(graph.labels_of(gap), key=self.index_of):
                gaps.append((label, dep, bool(delivered & graph.bit_of(dep))))
        return gaps

    def session_guarantee_violations(self) -> List[GuaranteeViolation]:
        """The white-box session audit: :meth:`session_order_violations`
        over writes and barrier reads, then :meth:`get_violations` over
        replica-served gets, in one list."""
        return self.session_order_violations() + self.get_violations()
