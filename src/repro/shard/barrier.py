"""Consistent multi-shard reads at stable points.

Section 4 of the paper makes stable points *locally detectable*: a
non-commutative message's ``Occurs-After`` cut is processed identically
at every member before the message itself is.  The barrier exploits
exactly that: for each touched shard it broadcasts a non-commutative
``barrier`` operation whose ``Occurs-After`` is a contact member's
current delivered frontier.  When the barrier delivers anywhere, causal
delivery guarantees its cut — the barrier's transitive causal past — is
settled in the same relative order at every member of that shard, so
the cut is a legal read snapshot with no extra agreement traffic
("without requiring separate message exchanges", Section 7).

One cut.  A read's state is one integer per touched shard, a mask over
the ledger graph's bits: each barrier delivery ORs in the barrier's past
restricted to the shard's writes (``Ledger.past_writes``).  Everything in
a label's past was recorded before the label, so the cut is a pure
function of the barrier labels: a completed :class:`BarrierRead` keeps
only those, and derives ``covered`` / ``labels`` from the ledger on demand.

One closure rule.  The barriers race, so one cut may hold a write whose
causal past reaches a write another *touched* shard's cut missed.  With
no barrier outstanding, the past of the cuts' maximal writes, restricted
to each touched shard's writes, must lie inside that shard's cut
(``Ledger.closure_gaps``); a gap issues a supplemental barrier there whose
``Occurs-After`` names the gap's maximal labels, and the check repeats —
bounded rounds, after which the snapshot is closed under the *whole*
causal order: both edge kinds, through barrier labels and untouched
shards.  Scanning covered writes' direct ``cross_deps`` is not enough: a
session that absorbs its own barrier collapses its frontier onto it, so
``d (shard t) ≺ barrier (shard s) ≺ w (shard s)`` leaves ``w`` with no
cross-dependency on ``d`` to scan.

One fold.  The read *value* is the issue-order fold of the covered
writes from the cluster ledger, not any member's live state, so reads
are insensitive to store compaction and crash amnesia.  Writes are
last-writer-wins per key, so the fold is the max-index write of each
key; the ledger keeps it per shard for the newest completed cut, and a
read whose cut contains the fold it started from folds only the
difference (any other — a lagging contact — folds from nothing).  A
fold is a pure function of its mask: nothing ever invalidates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.types import MessageId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.cluster import ShardedCluster
    from repro.shard.ledger import Ledger

#: One-second retries per barrier broadcast before the read aborts.
BARRIER_ATTEMPTS = 240

#: Closure-extension rounds before the read aborts.  Each round can only
#: chase the causal past of labels the previous round added, so real
#: workloads converge in one or two.
MAX_CLOSURE_ROUNDS = 8


@dataclass(frozen=True)
class BarrierRead:
    """The outcome of one stable-point barrier read."""

    session: Optional[str]
    shards: Tuple[int, ...]
    value: Dict[str, object]
    barrier_labels: Dict[int, Tuple[MessageId, ...]]
    rounds: int
    issued_at: float
    completed_at: float
    #: The ledger the views below are derived from.
    ledger: "Ledger" = field(repr=False, compare=False)

    def barriers(self) -> List[MessageId]:
        """Every barrier label of the read, shard by shard."""
        return [l for labels in self.barrier_labels.values() for l in labels]

    def cuts(self) -> Dict[int, int]:
        """shard -> the snapshot's cut, as a mask over the ledger graph."""
        past_writes = self.ledger.past_writes
        cuts = dict.fromkeys(self.shards, 0)
        for shard, labels in self.barrier_labels.items():
            for label in labels:
                cuts[shard] |= past_writes(label, shard)
        return cuts

    @property
    def covered(self) -> Dict[int, FrozenSet[MessageId]]:
        """shard -> the data labels the snapshot covers there."""
        cut_labels = self.ledger.cut_labels
        return {shard: cut_labels(cut) for shard, cut in self.cuts().items()}

    @property
    def labels(self) -> FrozenSet[MessageId]:
        """Every data label the snapshot covers, across shards."""
        return frozenset().union(*self.covered.values())


class StablePointBarrier:
    """One in-flight barrier read across a set of shards."""

    def __init__(
        self,
        cluster: "ShardedCluster",
        shards: Sequence[int],
        on_complete: Callable[[Optional[BarrierRead]], None],
        session: Optional[str] = None,
        baseline: Optional[Dict[int, FrozenSet[MessageId]]] = None,
        cross: Optional[Dict[int, FrozenSet[MessageId]]] = None,
    ) -> None:
        self.cluster = cluster
        self.shards: Tuple[int, ...] = tuple(dict.fromkeys(shards))
        self.on_complete = on_complete
        self.session = session
        #: Per-shard labels the barrier must cover regardless of what the
        #: contact has delivered — the issuing session's frontier, so a
        #: read observes the session's own writes (session order demands
        #: it, and the cross-shard audit checks it).
        self.baseline: Dict[int, FrozenSet[MessageId]] = {
            shard: frozenset((baseline or {}).get(shard, frozenset()))
            for shard in self.shards
        }
        #: The issuing session's *full* per-shard frontier.  Each barrier
        #: label stamps the other shards' part as ``cross_deps`` so the
        #: global graph records the session-order edge "earlier op ≺ this
        #: barrier" — without it, another session covering this barrier
        #: through a contact's delivered frontier would absorb a causal
        #: past with the issuing session's foreign writes missing, and
        #: its later writes would under-declare their Occurs-After.
        self._cross_frontier: Dict[int, FrozenSet[MessageId]] = {
            shard: frozenset(labels)
            for shard, labels in (cross or {}).items()
        }
        #: shard -> the cut covered so far, as a mask over the ledger
        #: graph's bits; all the read knows about its snapshot.
        self._cut: Dict[int, int] = dict.fromkeys(self.shards, 0)
        #: The ledger's per-shard folds as this read found them — now,
        #: not at completion: reads in flight together end with
        #: incomparable cuts (each holds its own session's newest writes)
        #: but all contain what completed before they began.
        self._base = cluster.ledger.folds()
        self._barrier_labels: Dict[int, List[MessageId]] = {
            s: [] for s in self.shards
        }
        self._waiting: Set[MessageId] = set()
        #: Issue obligations parked on a retry timer (contact down); the
        #: read must not complete while any touched shard is unfenced.
        self._retries = 0
        self._rounds = 0
        self._done = False
        self.issued_at = cluster.scheduler.now

    def start(self) -> None:
        self.cluster.barriers_started += 1
        for shard in self.shards:
            self._issue(shard, frozenset(), BARRIER_ATTEMPTS)

    # -- barrier issue / delivery ------------------------------------------

    def _issue(
        self, shard: int, extra: FrozenSet[MessageId], attempts: int
    ) -> None:
        if self._done:
            return
        cluster = self.cluster
        contact = cluster.contact(shard)
        label = None
        if contact is not None:
            deps = cluster.maximal(
                set(cluster.delivered_frontier(shard, contact))
                | set(self.baseline[shard])
                | set(extra)
            )
            cross: Set[MessageId] = set()
            for other, labels in self._cross_frontier.items():
                if other != shard:
                    cross |= labels
            label = cluster.shard_send(
                shard,
                "barrier",
                None,
                occurs_after=deps,
                cross_deps=cluster.maximal(cross),
                session=self.session,
                preferred=contact,
            )
        if label is None:
            if attempts <= 0:
                self._abort()
                return
            self._retries += 1
            cluster.scheduler.call_in(
                1.0, self._retry, shard, extra, attempts - 1
            )
            return
        self._barrier_labels[shard].append(label)
        self._waiting.add(label)
        cluster.watch(
            label,
            lambda _member, shard=shard, label=label: self._delivered(
                shard, label
            ),
        )

    def _retry(
        self, shard: int, extra: FrozenSet[MessageId], attempts: int
    ) -> None:
        self._retries -= 1
        self._issue(shard, extra, attempts)

    def _delivered(self, shard: int, label: MessageId) -> None:
        if self._done:
            return
        self._waiting.discard(label)
        # The barrier label itself is control traffic, so the data cut is
        # its causal past restricted to this shard's writes.
        self._cut[shard] |= self.cluster.ledger.past_writes(label, shard)
        if not self._waiting and not self._retries:
            self._check_closure()

    # -- causal closure ----------------------------------------------------

    def _check_closure(self) -> None:
        gaps = self.cluster.ledger.closure_gaps(self._cut)
        if not gaps:
            self._complete()
            return
        self._rounds += 1
        if self._rounds > MAX_CLOSURE_ROUNDS:
            self._abort()
            return
        ledger = self.cluster.ledger
        for shard, gap in sorted(gaps.items()):
            self._issue(
                shard, ledger.maximal(ledger.cut_labels(gap)), BARRIER_ATTEMPTS
            )

    # -- completion --------------------------------------------------------

    def _complete(self) -> None:
        self._done = True
        ledger = self.cluster.ledger
        # A key lives on one shard at a time but a slot move leaves its
        # older writes behind on the source, so the per-shard folds merge
        # by max index — what the issue-order fold of the union of cuts
        # reduces to.
        merged: Dict[str, Tuple[int, object]] = {}
        for shard in self.shards:
            fold = ledger.fold(shard, self._cut[shard], self._base[shard])
            for key, pair in fold.items():
                held = merged.get(key)
                if held is None or held[0] < pair[0]:
                    merged[key] = pair
        read = BarrierRead(
            session=self.session,
            shards=self.shards,
            value={key: pair[1] for key, pair in merged.items()},
            barrier_labels={
                s: tuple(labels) for s, labels in self._barrier_labels.items()
            },
            rounds=self._rounds,
            issued_at=self.issued_at,
            completed_at=self.cluster.scheduler.now,
            ledger=ledger,
        )
        ledger.barrier_reads.append(read)
        self.on_complete(read)

    def _abort(self) -> None:
        if self._done:
            return
        self._done = True
        self.cluster.reads_failed += 1
        self.on_complete(None)
