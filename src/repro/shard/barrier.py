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

Cross-shard closure: a covered write may carry ``cross_deps`` into
another *touched* shard whose cut does not cover them yet (the barriers
raced).  The barrier then issues a supplemental barrier on that shard
whose ``Occurs-After`` includes the missing labels, and re-checks —
bounded rounds, after which the union of cuts is closed under both
in-group and cross-group dependency edges restricted to the touched
shards: a causally consistent multi-shard snapshot.

The read *value* is folded from the cluster ledger (issue-order fold of
the covered writes), not from any member's live state — so reads are
insensitive to store compaction and crash amnesia.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.shard.ledger import DATA_KINDS
from repro.types import MessageId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.cluster import ShardedCluster

#: One-second retries per barrier broadcast before the read aborts.
BARRIER_ATTEMPTS = 240

#: Closure-extension rounds before the read aborts.  Each round can only
#: chase cross-dependencies of labels the previous round added, so real
#: workloads converge in one or two.
MAX_CLOSURE_ROUNDS = 8


@dataclass(frozen=True)
class BarrierRead:
    """The outcome of one stable-point barrier read."""

    session: Optional[str]
    shards: Tuple[int, ...]
    value: Dict[str, object]
    covered: Dict[int, FrozenSet[MessageId]]
    barrier_labels: Dict[int, Tuple[MessageId, ...]]
    rounds: int
    issued_at: float
    completed_at: float

    @property
    def labels(self) -> FrozenSet[MessageId]:
        """Every data label the snapshot covers, across shards."""
        return frozenset(
            label for cut in self.covered.values() for label in cut
        )


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
        max_rounds: int = MAX_CLOSURE_ROUNDS,
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
        self.max_rounds = max_rounds
        #: shard -> the cut covered so far, and the same cut as a mask
        #: over the ledger graph's bits: the cut algebra runs on the
        #: mask, and only each delivery's fresh delta is turned into
        #: labels and unioned into the set `BarrierRead.covered` exposes.
        self.covered: Dict[int, FrozenSet[MessageId]] = dict.fromkeys(
            self.shards, frozenset()
        )
        self._covered_mask: Dict[int, int] = dict.fromkeys(self.shards, 0)
        #: Snapshot-cache entry for this touched-shard set, captured once
        #: so every shard that seeds does so from the *same* mutually
        #: closed read (the cluster replaces entries wholesale).
        self._cache_key = tuple(sorted(self.shards))
        self._cache_entry = cluster._snapshot_cache.get(self._cache_key)
        #: Shards whose cut/fold were seeded from the cache entry — their
        #: prefix labels skipped the closure scan.
        self._seeded: Set[int] = set()
        self._prefix_scanned = False
        #: Covered labels not yet closure-scanned.  A label's cross-deps
        #: are immutable, so once scanned (its missing deps forced into a
        #: supplemental barrier's Occurs-After, hence into a later cut)
        #: re-scanning it can never surface new work — each closure round
        #: therefore walks only the labels the latest deliveries added.
        self._unscanned: List[Tuple[int, MessageId]] = []
        #: shard -> key -> (issue index, value) of the newest covered
        #: write to the key on that shard, folded incrementally as cuts
        #: arrive.  Merging the per-shard folds by max index at
        #: completion is equivalent to the issue-order ``fold_ledger``
        #: over the union of cuts: ``put`` and ``migrate`` are
        #: last-writer-wins per key, so the fold is the max-index write
        #: of each key.  Kept per shard (not global) so a shard can seed
        #: its fold from the snapshot cache independently of the others.
        self._folded: Dict[int, Dict[str, Tuple[int, object]]] = {
            s: {} for s in self.shards
        }
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
        cluster = self.cluster
        # The barrier label itself is control traffic, so the data cut is
        # its causal past restricted to this shard's writes — big-int
        # ANDs, no per-label kind lookups; only the delta the read has
        # not covered yet is turned back into labels.
        graph = cluster.graph
        past = graph.past_mask(label)
        entry = self._cache_entry
        if entry is not None and not self._covered_mask[shard]:
            cached = entry.get(shard)
            if cached is not None and past & graph.bit_of(cached[0]):
                # The cached read's barrier is in this barrier's causal
                # past, so its cut (= past ∩ writes, zero-round reads
                # only) is a subset of ours: seed covered and the fold
                # from it and let `fresh` shrink to the delta.
                _, cut, cut_mask, fold = cached
                self.covered[shard] = cut
                self._covered_mask[shard] = cut_mask
                self._folded[shard] = dict(fold)
                self._seeded.add(shard)
        fresh_mask = past & cluster.write_mask[shard]
        fresh_mask ^= fresh_mask & self._covered_mask[shard]
        if fresh_mask:
            fresh = graph.labels_of(fresh_mask)
            self._covered_mask[shard] |= fresh_mask
            self.covered[shard] |= fresh
            ops = cluster.ops
            folded = self._folded[shard]
            for covered_label in fresh:
                record = ops[covered_label]
                if record.kind == "put":
                    key = record.value["key"]
                    entry = folded.get(key)
                    if entry is None or entry[0] < record.index:
                        folded[key] = (record.index, record.value["value"])
                else:  # migrate
                    for key, value in record.value["entries"].items():
                        entry = folded.get(key)
                        if entry is None or entry[0] < record.index:
                            folded[key] = (record.index, value)
                self._unscanned.append((shard, covered_label))
        if not self._waiting and not self._retries:
            self._check_closure()

    # -- cross-shard closure ----------------------------------------------

    def _check_closure(self) -> None:
        cluster = self.cluster
        touched = set(self.shards)
        missing: Dict[int, Set[MessageId]] = {}
        pending = self._unscanned
        self._unscanned = []
        for shard, label in pending:
            for dep in cluster.ops[label].cross_deps:
                dep_shard = cluster.shard_of_label.get(dep)
                if (
                    dep_shard in touched
                    and cluster.ops[dep].kind in DATA_KINDS
                    and dep not in self.covered[dep_shard]
                ):
                    missing.setdefault(dep_shard, set()).add(dep)
        if not missing:
            if (
                self._seeded
                and len(self._seeded) != len(self.shards)
                and not self._prefix_scanned
            ):
                # Partial seed: some touched shard's cut does not contain
                # the cached read's cut for it, so the mutual-closure
                # argument that lets seeded prefixes skip the scan does
                # not apply.  Scan them once the old way, then re-check.
                self._prefix_scanned = True
                entry = self._cache_entry
                self._unscanned.extend(
                    (shard, covered_label)
                    for shard in self._seeded
                    for covered_label in entry[shard][1]
                )
                self._check_closure()
                return
            self._complete()
            return
        self._rounds += 1
        if self._rounds > self.max_rounds:
            self._abort()
            return
        for shard, labels in sorted(missing.items()):
            self._issue(shard, frozenset(labels), BARRIER_ATTEMPTS)

    # -- completion --------------------------------------------------------

    def _complete(self) -> None:
        self._done = True
        cluster = self.cluster
        # The per-shard incremental folds hold the max-index write per
        # key on each shard; their max-index merge is what the
        # issue-order ``fold_ledger`` of the union of cuts reduces to
        # (puts and migrates are last-writer-wins).
        merged: Dict[str, Tuple[int, object]] = {}
        for folded in self._folded.values():
            for key, pair in folded.items():
                current = merged.get(key)
                if current is None or current[0] < pair[0]:
                    merged[key] = pair
        value = {key: pair[1] for key, pair in merged.items()}
        covered = dict(self.covered)
        if self._rounds == 0 and all(
            len(labels) == 1 for labels in self._barrier_labels.values()
        ):
            # Exactly one barrier per shard means each cut is precisely
            # that barrier's causal past restricted to the shard's writes
            # — the shape the seeding domination test relies on — so this
            # read can serve as the next one's prefix.  The completed
            # read never mutates its folds again, so they are stored
            # as-is (seeding copies).
            cluster._snapshot_cache[self._cache_key] = {
                shard: (
                    self._barrier_labels[shard][0],
                    covered[shard],
                    self._covered_mask[shard],
                    self._folded[shard],
                )
                for shard in self.shards
            }
        read = BarrierRead(
            session=self.session,
            shards=self.shards,
            value=value,
            covered=covered,
            barrier_labels={
                s: tuple(labels) for s, labels in self._barrier_labels.items()
            },
            rounds=self._rounds,
            issued_at=self.issued_at,
            completed_at=cluster.scheduler.now,
        )
        cluster.barrier_reads.append(read)
        self.on_complete(read)

    def _abort(self) -> None:
        if self._done:
            return
        self._done = True
        self.cluster.reads_failed += 1
        self.on_complete(None)
