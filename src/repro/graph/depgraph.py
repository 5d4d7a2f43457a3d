"""Message dependency graphs.

Section 3.2 of the paper represents the causal dependency ``R(M)`` "by a
graph in which the dependency of ``Msg`` on ``m`` is represented with a
directed edge connecting an ancestor node to a descendant node".  The graph
supports:

* *many-to-one* dependencies — several messages depend on one ancestor and
  are mutually concurrent,
* *one-to-many* AND dependencies — one message depends on all of a set,
* the derived relations the rest of the library needs: causal precedence
  (reachability), concurrency (paper's ‖), topological orders, and the set
  of linear extensions (used by the stability analysis of Section 4).

Edges point **ancestor → descendant** (the direction of time), so a
topological order of the graph is a legal processing sequence.
"""

from __future__ import annotations

import sys
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.errors import DependencyError
from repro.graph.predicates import OccursAfter
from repro.types import MessageId, freeze_ancestors

AncestorSpec = Union[None, MessageId, Iterable[MessageId], OccursAfter]

#: A node's direct ancestors as stored: one frozenset, or two disjoint
#: ones kept apart (``add``'s ``cross_deps``).  Either way they are the
#: caller's own objects — the graph builds no union per node.
Direct = Union[FrozenSet[MessageId], Tuple[FrozenSet[MessageId], FrozenSet[MessageId]]]


def _parts(direct: Direct) -> Tuple[FrozenSet[MessageId], ...]:
    """A stored entry as a tuple of its frozensets."""
    return direct if type(direct) is tuple else (direct,)


#: byte value -> offsets of its set bits (``labels_of``'s scan table).
_BYTE_BITS = tuple(
    tuple(offset for offset in range(8) if byte >> offset & 1)
    for byte in range(256)
)
#: ``bytes.translate`` table flagging non-zero bytes, so ``labels_of``
#: skips the zero runs of a sparse mask with C-level ``find`` calls.
_NONZERO = bytes([0]) + bytes([1]) * 255


class DependencyGraph:
    """A DAG of message labels with ancestor→descendant edges.

    Every label the graph has seen — added, or only referenced as a
    still-*dangling* ancestor — owns one bit, assigned on first sight
    (``_bit`` / ``_labels``).  Sets of labels are Python ints over those
    bits, and reachability is answered from a memoised ancestor-closure
    cache of such masks: bit ``b`` of ``_reach[n]`` is set iff the label
    at ``b`` has a path to ``n``.  :meth:`precedes` is a shift-and-test,
    :meth:`maximal_mask` a handful of big-int operations, and
    :meth:`causal_past` a derived view (``_reach[n] & _added_mask`` turned
    back into labels).  Bit positions are private to one graph: they
    depend on its insertion order and never leave it — callers get masks
    from :meth:`mask_of` / :meth:`past_mask` and labels back from
    :meth:`labels_of`.  Three invariants:

    1. ``_reach[n]``, when present, is the bits of ``n``'s direct
       ancestors ORed with the closures of its *added* direct ancestors
       (a dangling ancestor contributes only its own bit — its edges are
       unknown until it materialises).  Computing ``n``'s closure
       memoises every added transitive ancestor of ``n`` along the way.
    2. An entry exists for ``n`` only if entries exist for all of ``n``'s
       added transitive ancestors — established by 1 and preserved by
       invalidation, which walks a materialised node's descendants and
       stops below any node that was already absent.  Only materialising
       a dangling label *with ancestry* changes existing closures, so
       that is the only event that invalidates.
    3. :meth:`add` never computes or stores a closure.  Its cycle check
       walks the nodes already hanging below the new label, so a graph
       nobody queries (every ``OSend`` member's, on the receive path)
       memoises nothing: :meth:`closure_footprint` stays ``(0, 0)``.
    """

    def __init__(self) -> None:
        self._ancestors: Dict[MessageId, Direct] = {}
        # Children per referenced ancestor, append-only: `add` registers
        # each (ancestor, child) pair once and nothing tests membership,
        # so a list (a third of a set's size) is enough.
        self._descendants: Dict[MessageId, List[MessageId]] = {}
        # The insertion index: label <-> bit position, added or dangling.
        self._bit: Dict[MessageId, int] = {}
        self._labels: List[MessageId] = []
        # Bits of the added labels (what causal_past keeps of a closure).
        self._added_mask = 0
        # Memoised transitive-ancestor closures (invariants above).
        self._reach: Dict[MessageId, int] = {}

    # -- construction -----------------------------------------------------

    def add(
        self,
        msg_id: MessageId,
        occurs_after: AncestorSpec = None,
        cross_deps: Optional[Iterable[MessageId]] = None,
    ) -> None:
        """Add ``msg_id`` with its ``Occurs-After`` ancestors.

        Ancestors need not be present yet (a member may learn of a
        dependency before the ancestor's own broadcast arrives); such
        *dangling* ancestors are materialised as root nodes when they are
        later added, and :meth:`dangling` reports them meanwhile.

        ``cross_deps`` are further direct ancestors — the sharded
        ledger's foreign labels — that the graph keeps beside
        ``occurs_after`` instead of merged into it, so a node costs no
        frozenset of its own; :meth:`ancestors_of` unions them when
        asked.  Both are read as :func:`~repro.types.freeze_ancestors`
        reads them: a frozenset as it is, anything else label by label.

        Raises
        ------
        DependencyError
            If ``msg_id`` was already added, depends on itself, or the new
            edges would create a cycle among known nodes.
        TypeError
            If an iterated ancestor set holds something other than a
            :class:`MessageId` (a plain ``(sender, seqno)`` tuple would
            otherwise read as two labels).
        """
        known = self._ancestors
        if msg_id in known:
            raise DependencyError(f"duplicate message label: {msg_id}")
        if isinstance(occurs_after, OccursAfter):
            occurs_after = occurs_after.ancestors
        ancestors = freeze_ancestors(occurs_after)
        direct: Direct = ancestors
        if cross_deps:
            cross = freeze_ancestors(cross_deps)
            if not ancestors:
                direct = cross
            elif ancestors.isdisjoint(cross):
                direct = (ancestors, cross)
            else:
                # Kept apart, an overlap would register a child twice
                # below the same ancestor.
                direct = ancestors | cross
        parts = _parts(direct)
        for part in parts:
            if msg_id in part:
                raise DependencyError(f"{msg_id} cannot occur after itself")
        descendants = self._descendants
        below = descendants.get(msg_id)
        if below:
            self._check_acyclic(msg_id, parts, below)
        bit = self._bit
        labels = self._labels
        for part in parts:
            for label in part:
                if label not in bit:
                    bit[label] = len(labels)
                    labels.append(label)
                children = descendants.get(label)
                if children is None:
                    descendants[label] = [msg_id]
                else:
                    children.append(msg_id)
        position = bit.get(msg_id)
        if position is None:
            position = bit[msg_id] = len(labels)
            labels.append(msg_id)
        known[msg_id] = direct
        self._added_mask |= 1 << position
        if below and direct and self._reach:
            # msg_id materialised with ancestry: descendants' memoised
            # closures hold its bit as a bare endpoint and miss what lies
            # above it.  (Without ancestry they stay exact — the added
            # filter of causal_past is applied per query, not cached.)
            self._invalidate_below(msg_id)

    def _check_acyclic(
        self,
        msg_id: MessageId,
        parts: Tuple[FrozenSet[MessageId], ...],
        below: List[MessageId],
    ) -> None:
        """Raise if an edge ``ancestor -> msg_id`` would close a cycle.

        A cycle needs a path from ``msg_id`` down to one of its own
        ancestors, and every node below ``msg_id`` was *added* (only an
        added node registers as a descendant).  So the check is a walk of
        the cone already hanging below the materialising label — the few
        messages that overtook it, on the receive path — and it is skipped
        outright unless some ancestor is added, which keeps a chain
        arriving in reverse (every ancestor still dangling, the whole
        chain below) linear.
        """
        known = self._ancestors
        if not any(label in known for part in parts for label in part):
            return
        descendants = self._descendants
        seen = set(below)
        stack = list(below)
        while stack:
            node = stack.pop()
            if any(node in part for part in parts):
                raise DependencyError(
                    f"edge {node} -> {msg_id} would create a cycle"
                )
            for child in descendants.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)

    # -- closure cache -----------------------------------------------------

    def _closure(self, node: MessageId) -> int:
        """Memoised transitive-ancestor mask of an added ``node``."""
        memo = self._reach
        cached = memo.get(node)
        if cached is not None:
            return cached
        known = self._ancestors
        bit = self._bit
        # Iterative post-order: a node stays on the stack until every
        # added ancestor has its entry (the graph is acyclic by add()).
        stack = [node]
        while stack:
            current = stack[-1]
            parts = _parts(known[current])
            pending = [
                a for part in parts for a in part
                if a in known and a not in memo
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            mask = 0
            for part in parts:
                for ancestor in part:
                    mask |= 1 << bit[ancestor]
                    if ancestor in known:
                        mask |= memo[ancestor]
            memo[current] = mask
        return memo[node]

    def _invalidate_below(self, source: MessageId) -> None:
        """Drop memoised closures of ``source``'s transitive descendants.

        Stopping below an already-absent node is safe by invariant 2: its
        descendants' entries cannot have survived the invalidation that
        removed it.
        """
        memo = self._reach
        queue = list(self._descendants.get(source, ()))
        while queue:
            node = queue.pop()
            if memo.pop(node, None) is not None:
                queue.extend(self._descendants.get(node, ()))

    def closure_footprint(self) -> Tuple[int, int]:
        """``(entries, bytes)`` currently held by the closure cache.

        The number the serving layer watches for flatness: a graph that
        is only ever added to reports ``(0, 0)`` (invariant 3).
        """
        reach = self._reach
        if not reach:
            return 0, 0
        return len(reach), sys.getsizeof(reach) + sum(
            map(sys.getsizeof, reach.values())
        )

    # -- label masks ---------------------------------------------------------

    def bit_of(self, label: MessageId) -> int:
        """The one-bit mask of ``label`` (0 if the graph never saw it)."""
        position = self._bit.get(label)
        return 0 if position is None else 1 << position

    def mask_of(self, labels: Iterable[MessageId]) -> int:
        """The mask of ``labels``; labels the graph never saw are skipped."""
        bit = self._bit
        mask = 0
        for label in labels:
            position = bit.get(label)
            if position is not None:
                mask |= 1 << position
        return mask

    def past_mask(self, msg_id: MessageId) -> int:
        """:meth:`causal_past` as a mask: the added transitive ancestors."""
        if msg_id not in self._ancestors:
            return 0
        return self._closure(msg_id) & self._added_mask

    def maximal_mask(self, mask: int) -> int:
        """Prune ``mask`` to the labels no other label in it reaches.

        A top-bit-down scan: the highest remaining candidate is usually
        the newest label and shadows most of the pool with one closure.
        Shadowed bits are cleared from the *result* whatever the scan
        order, so correctness does not need the index to be a linear
        extension of causality (on a member's graph it is not: arrival
        order).  The order only decides how early the pool empties — a
        shadowed candidate is skipped because its closure is a subset of
        its shadower's.
        """
        if not mask & (mask - 1):
            return mask
        labels = self._labels
        known = self._ancestors
        todo = mask
        while todo:
            top = todo.bit_length() - 1
            todo ^= 1 << top
            label = labels[top]
            if label in known:
                shadow = self._closure(label)
                # x ^ (x & y) is x & ~y without the negative big int.
                todo ^= todo & shadow
                mask ^= mask & shadow
        return mask

    def labels_of(self, mask: int) -> FrozenSet[MessageId]:
        """The labels whose bits are set in ``mask``.

        A byte-table scan: cost is the mask's byte length (zero runs are
        skipped by C-level ``find``) plus its population — never a
        per-bit big-int loop, which is quadratic on a dense mask.
        """
        if not mask:
            return frozenset()
        data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        find = data.translate(_NONZERO).find
        labels = self._labels
        found: List[MessageId] = []
        index = find(1)
        while index >= 0:
            base = index << 3
            for offset in _BYTE_BITS[data[index]]:
                found.append(labels[base + offset])
            index = find(1, index + 1)
        return frozenset(found)

    # -- basic queries -------------------------------------------------------

    def __contains__(self, msg_id: MessageId) -> bool:
        return msg_id in self._ancestors

    def __len__(self) -> int:
        return len(self._ancestors)

    def __iter__(self) -> Iterator[MessageId]:
        return iter(self._ancestors)

    @property
    def nodes(self) -> List[MessageId]:
        """All added labels, in insertion order."""
        return list(self._ancestors)

    def ancestors_of(self, msg_id: MessageId) -> FrozenSet[MessageId]:
        """Direct ancestors (the ``Occurs-After`` set) of ``msg_id``.

        With ``cross_deps`` given at :meth:`add`, the union of both parts,
        built here: the graph stores none.
        """
        try:
            direct = self._ancestors[msg_id]
        except KeyError:
            raise DependencyError(f"unknown message label: {msg_id}") from None
        return direct[0] | direct[1] if type(direct) is tuple else direct

    def descendants_of(self, msg_id: MessageId) -> FrozenSet[MessageId]:
        """Direct descendants of ``msg_id`` among added nodes."""
        if msg_id not in self._ancestors:
            raise DependencyError(f"unknown message label: {msg_id}")
        return frozenset(self._descendants.get(msg_id, ()))

    def roots(self) -> List[MessageId]:
        """Added nodes with no *added* ancestors (spontaneous messages)."""
        return [
            m
            for m in self._ancestors
            if not any(a in self._ancestors for a in self.ancestors_of(m))
        ]

    def dangling(self) -> FrozenSet[MessageId]:
        """Labels referenced as ancestors but not themselves added."""
        referenced: Set[MessageId] = set()
        for node in self._ancestors:
            referenced |= self.ancestors_of(node)
        return frozenset(referenced - self._ancestors.keys())

    # -- causal relations -------------------------------------------------------

    def precedes(self, earlier: MessageId, later: MessageId) -> bool:
        """True iff ``earlier ≺ later`` (transitively) among added nodes.

        A shift-and-test on ``later``'s closure mask — O(1) amortised
        over repeated queries, vs. the ancestor-walk DFS this replaced
        (kept as the reference implementation in
        ``tests/graph/test_reachability_cache.py``).  The graph is
        acyclic, so a label's own bit is never in its closure and
        ``precedes(x, x)`` needs no special case.
        """
        if later not in self._ancestors:
            return False
        position = self._bit.get(earlier)
        if position is None:
            return False
        return bool(self._closure(later) >> position & 1)

    def maximal_elements(
        self, labels: Iterable[MessageId]
    ) -> FrozenSet[MessageId]:
        """Prune ``labels`` to those not in any other member's causal past.

        Equivalent to keeping each label that no other label in the set
        :meth:`precedes`, but costs one :meth:`maximal_mask` scan instead
        of O(n²) pairwise queries — frontier maintenance calls this on
        every absorb, so the difference is structural.  Labels unknown to
        the graph cannot shadow others but can themselves be shadowed
        (they may appear in closures as dangling ancestors), matching the
        pairwise semantics; a label the graph never even saw referenced
        is trivially maximal.
        """
        pool = frozenset(labels)
        if len(pool) <= 1:
            return pool
        bit = self._bit
        maximal = self.labels_of(self.maximal_mask(self.mask_of(pool)))
        unseen = [label for label in pool if label not in bit]
        return maximal.union(unseen) if unseen else maximal

    def path(self, earlier: MessageId, later: MessageId) -> List[MessageId]:
        """One chain of direct edges from ``later`` back to ``earlier``.

        ``[later, ..., earlier]``, each label a direct ancestor of the one
        before it; empty unless ``earlier ≺ later``.  Of the ancestors
        that still reach ``earlier`` the smallest label is followed, so
        the chain is the same on every run.
        """
        if not self.precedes(earlier, later):
            return []
        chain = [later]
        while chain[-1] != earlier:
            chain.append(min(
                label
                for label in self.ancestors_of(chain[-1])
                if label == earlier or self.precedes(earlier, label)
            ))
        return chain

    def concurrent(self, a: MessageId, b: MessageId) -> bool:
        """The paper's ‖ relation: neither precedes the other."""
        if a == b:
            return False
        return not self.precedes(a, b) and not self.precedes(b, a)

    def causal_past(self, msg_id: MessageId) -> FrozenSet[MessageId]:
        """All added transitive ancestors of ``msg_id``."""
        return self.labels_of(self.past_mask(msg_id))

    def concurrency_classes(self) -> List[FrozenSet[MessageId]]:
        """Maximal antichains found greedily in insertion order.

        Gives a quick report of which messages the graph allows to proceed
        in parallel; exact maximum-antichain computation is not needed by
        the protocols, only by diagnostics.
        """
        classes: List[Set[MessageId]] = []
        for node in self._ancestors:
            for cls in classes:
                if all(self.concurrent(node, member) for member in cls):
                    cls.add(node)
                    break
            else:
                classes.append({node})
        return [frozenset(c) for c in classes]

    # -- orders ----------------------------------------------------------------

    def topological_order(self) -> List[MessageId]:
        """One legal processing sequence (Kahn's algorithm).

        Ties are broken by insertion order so the result is deterministic.
        Dangling ancestors are ignored (treated as already processed).
        """
        insertion_index = {n: i for i, n in enumerate(self._ancestors)}
        indegree: Dict[MessageId, int] = {}
        for node in self._ancestors:
            indegree[node] = sum(
                1 for a in self.ancestors_of(node) if a in self._ancestors
            )
        ready = [n for n in self._ancestors if indegree[n] == 0]
        order: List[MessageId] = []
        position = 0
        while position < len(ready):
            node = ready[position]
            position += 1
            order.append(node)
            for descendant in sorted(
                self._descendants.get(node, ()),
                key=insertion_index.__getitem__,
            ):
                indegree[descendant] -= 1
                if indegree[descendant] == 0:
                    ready.append(descendant)
        if len(order) != len(self._ancestors):
            raise DependencyError("graph contains a cycle")
        return order

    def linear_extensions(
        self, limit: Optional[int] = None
    ) -> Iterator[List[MessageId]]:
        """Yield every legal processing sequence (all linear extensions).

        This is the paper's ``{EvSeq_1 ... EvSeq_L}`` with ``L <= (r+1)!``
        (Section 4.1).  Exponential in the worst case — intended for the
        small activity graphs the stability analysis inspects.  ``limit``
        bounds the number of sequences yielded.
        """
        nodes = list(self._ancestors)
        ancestors = {
            n: {a for a in self.ancestors_of(n) if a in self._ancestors}
            for n in nodes
        }
        yielded = 0
        prefix: List[MessageId] = []
        chosen: Set[MessageId] = set()

        def extend() -> Iterator[List[MessageId]]:
            nonlocal yielded
            if len(prefix) == len(nodes):
                yield list(prefix)
                return
            for node in nodes:
                if node in chosen or not ancestors[node] <= chosen:
                    continue
                prefix.append(node)
                chosen.add(node)
                yield from extend()
                chosen.discard(node)
                prefix.pop()

        for seq in extend():
            yield seq
            yielded += 1
            if limit is not None and yielded >= limit:
                return

    def count_linear_extensions(self, cap: int = 1_000_000) -> int:
        """Count linear extensions, stopping at ``cap``."""
        count = 0
        for _ in self.linear_extensions(limit=cap):
            count += 1
        return count

    # -- reductions ---------------------------------------------------------

    def transitive_reduction(self) -> "DependencyGraph":
        """A new graph with redundant (implied) edges removed.

        An edge ``a -> b`` is redundant if some other path ``a ≺ ... ≺ b``
        exists.  The reduction is what an efficient ``OSend`` implementation
        would actually transmit — carrying only *direct* dependencies.
        """
        reduced = DependencyGraph()
        for node in self.topological_order():
            direct = {a for a in self.ancestors_of(node) if a in self._ancestors}
            keep = set()
            for candidate in direct:
                implied = any(
                    other != candidate and self.precedes(candidate, other)
                    for other in direct
                )
                if not implied:
                    keep.add(candidate)
            # Preserve dangling ancestors verbatim: we cannot reason about
            # paths through labels we have not seen.
            keep |= {
                a for a in self.ancestors_of(node) if a not in self._ancestors
            }
            reduced.add(node, keep)
        return reduced

    def subgraph(self, labels: AbstractSet[MessageId]) -> "DependencyGraph":
        """The induced subgraph on ``labels`` (edges inside the set only)."""
        sub = DependencyGraph()
        for node in self._ancestors:
            if node in labels:
                sub.add(node, self.ancestors_of(node) & labels)
        return sub

    def edge_count(self) -> int:
        """Number of ancestor references (metadata size proxy for OSend)."""
        return sum(len(self.ancestors_of(node)) for node in self._ancestors)
