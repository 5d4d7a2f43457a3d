"""The bitset ancestor-closure cache vs. the reference DFS walk.

``DependencyGraph.precedes`` / ``causal_past`` / ``maximal_elements``
answer from per-node closure masks memoised on first query and
invalidated by ``add``.  These tests pin the cache to the original DFS
semantics — including the subtle cases: dangling ancestors that
materialise *after* descendants referenced them (the closure must
propagate downward), cycles that route through dangling labels, and
diamond-shaped sharing where the same closure arrives via two paths —
and pin ``add``'s cone-walk cycle check to the closure-based check it
replaced, kept here as the oracle.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DependencyError
from repro.graph.depgraph import DependencyGraph
from repro.types import MessageId


def mid(sender: str, seqno: int = 0) -> MessageId:
    return MessageId(sender, seqno)


def naive_precedes(
    graph: DependencyGraph, earlier: MessageId, later: MessageId
) -> bool:
    """The pre-cache reference implementation: DFS up the ancestor links."""
    if earlier == later:
        return False
    stack = [later]
    seen: Set[MessageId] = set()
    while stack:
        current = stack.pop()
        for ancestor in graph._ancestors.get(current, frozenset()):
            if ancestor == earlier:
                return True
            if ancestor not in seen:
                seen.add(ancestor)
                stack.append(ancestor)
    return False


def naive_causal_past(
    graph: DependencyGraph, msg_id: MessageId
) -> FrozenSet[MessageId]:
    past: Set[MessageId] = set()
    stack = [msg_id]
    while stack:
        current = stack.pop()
        for ancestor in graph._ancestors.get(current, frozenset()):
            if ancestor in graph._ancestors and ancestor not in past:
                past.add(ancestor)
                stack.append(ancestor)
    return frozenset(past)


def naive_maximal(
    graph: DependencyGraph, labels: Iterable[MessageId]
) -> FrozenSet[MessageId]:
    """Pairwise reference: keep what no other label in the set reaches."""
    pool = set(labels)
    return frozenset(
        a for a in pool
        if not any(naive_precedes(graph, a, b) for b in pool)
    )


def closure_check_rejects(
    graph: DependencyGraph, msg_id: MessageId, ancestors: Iterable[MessageId]
) -> bool:
    """The cycle check ``add`` used before the cone walk, as the oracle.

    An edge ``ancestor -> msg_id`` closes a cycle iff some *added*
    ancestor already has ``msg_id`` in its transitive-ancestor closure.
    """
    return any(
        ancestor in graph and naive_precedes(graph, msg_id, ancestor)
        for ancestor in ancestors
    )


def assert_cache_matches_naive(graph: DependencyGraph) -> None:
    nodes = graph.nodes
    for a in nodes:
        assert graph.causal_past(a) == naive_causal_past(graph, a)
        for b in nodes:
            assert graph.precedes(a, b) == naive_precedes(graph, a, b), (
                f"precedes({a}, {b}) diverged from the DFS reference"
            )


def assert_maximal_matches_naive(
    graph: DependencyGraph, labels: Iterable[MessageId]
) -> None:
    pool = list(labels)
    expected = naive_maximal(graph, pool)
    assert graph.maximal_elements(pool) == expected
    # The mask round trip the shard layer uses.  Labels the graph never
    # saw have no bit; they are maximal by definition and ride outside.
    seen = [label for label in pool if graph.bit_of(label)]
    round_trip = graph.labels_of(graph.maximal_mask(graph.mask_of(pool)))
    assert round_trip == expected & frozenset(seen)
    assert graph.labels_of(graph.mask_of(pool)) == frozenset(seen)


class TestDanglingMaterialisation:
    def test_closure_propagates_when_dangling_ancestor_arrives(self):
        # c references b before b exists; when b arrives carrying ancestor
        # a, c's closure must gain a (and a's own past) transitively.
        graph = DependencyGraph()
        graph.add(mid("c"), mid("b"))
        graph.add(mid("a"))
        assert not graph.precedes(mid("a"), mid("c"))
        graph.add(mid("b"), mid("a"))
        assert graph.precedes(mid("a"), mid("c"))
        assert graph.causal_past(mid("c")) == {mid("a"), mid("b")}
        assert_cache_matches_naive(graph)

    def test_propagation_reaches_deep_descendants(self):
        graph = DependencyGraph()
        graph.add(mid("d"), mid("c"))
        graph.add(mid("e"), mid("d"))
        graph.add(mid("f"), mid("e"))
        graph.add(mid("root"))
        graph.add(mid("c"), mid("root"))  # materialise: root must reach f
        assert graph.precedes(mid("root"), mid("f"))
        assert graph.causal_past(mid("f")) == {
            mid("root"), mid("c"), mid("d"), mid("e")
        }
        assert_cache_matches_naive(graph)

    def test_propagation_through_diamond_fanout(self):
        # Two paths from the materialised node down to the sink: the
        # closure must arrive exactly once (pruned where already present).
        graph = DependencyGraph()
        graph.add(mid("left"), mid("hub"))
        graph.add(mid("right"), mid("hub"))
        graph.add(mid("sink"), [mid("left"), mid("right")])
        graph.add(mid("origin"))
        graph.add(mid("hub"), mid("origin"))
        assert graph.precedes(mid("origin"), mid("sink"))
        assert graph.concurrent(mid("left"), mid("right"))
        assert_cache_matches_naive(graph)

    def test_chained_materialisation(self):
        # Two dangling nodes materialise in sequence, each unlocking the
        # next layer of ancestry.
        graph = DependencyGraph()
        graph.add(mid("z"), mid("y"))
        graph.add(mid("y"), mid("x"))  # y materialises, z learns of x
        assert graph.precedes(mid("x"), mid("z"))
        graph.add(mid("x"), mid("w"))  # x materialises, z learns of w
        assert graph.precedes(mid("w"), mid("z"))
        # w stays dangling: precedes sees it, causal_past excludes it.
        assert graph.causal_past(mid("z")) == {mid("x"), mid("y")}
        assert_cache_matches_naive(graph)


class TestCacheSemantics:
    def test_dangling_labels_count_as_preceding(self):
        # The DFS reference treats dangling ancestors as reachable
        # endpoints; the closure must too.
        graph = DependencyGraph()
        graph.add(mid("b"), mid("ghost"))
        assert graph.precedes(mid("ghost"), mid("b"))
        assert graph.causal_past(mid("b")) == frozenset()
        assert_cache_matches_naive(graph)

    def test_unknown_later_never_preceded(self):
        graph = DependencyGraph()
        graph.add(mid("a"))
        assert not graph.precedes(mid("a"), mid("ghost"))

    def test_transitive_reduction_unchanged_by_cache(self):
        graph = DependencyGraph()
        graph.add(mid("a"))
        graph.add(mid("b"), mid("a"))
        graph.add(mid("c"), [mid("a"), mid("b")])  # a->c implied via b
        reduced = graph.transitive_reduction()
        assert reduced.ancestors_of(mid("c")) == frozenset({mid("b")})
        assert_cache_matches_naive(reduced)


class TestRandomisedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_insertion_orders_match_dfs(self, data):
        # Random DAG on up to 12 labels, inserted in random order so
        # dangling references and late materialisation occur naturally.
        n = data.draw(st.integers(2, 12), label="n")
        labels = [mid("m", i) for i in range(n)]
        edges = {
            i: sorted(
                data.draw(
                    st.sets(st.integers(0, i - 1), max_size=3),
                    label=f"anc{i}",
                )
            )
            if i > 0
            else []
            for i in range(n)
        }
        order = data.draw(st.permutations(list(range(n))), label="order")
        graph = DependencyGraph()
        for i in order:
            graph.add(labels[i], [labels[j] for j in edges[i]])
        assert_cache_matches_naive(graph)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_queries_interleaved_with_insertions_match_dfs(self, data):
        # Same shape, but queried after *every* insertion, so closures are
        # memoised while ancestors still dangle and must be invalidated
        # (materialised with ancestry) or left alone (without) later.
        n = data.draw(st.integers(2, 10), label="n")
        labels = [mid("m", i) for i in range(n)]
        edges = {
            i: sorted(
                data.draw(
                    st.sets(st.integers(0, i - 1), max_size=3),
                    label=f"anc{i}",
                )
            )
            if i > 0
            else []
            for i in range(n)
        }
        order = data.draw(st.permutations(list(range(n))), label="order")
        stranger = mid("never-seen")
        graph = DependencyGraph()
        for i in order:
            graph.add(labels[i], [labels[j] for j in edges[i]])
            assert_cache_matches_naive(graph)
            for a in labels:  # dangling and unseen labels as `earlier`
                for b in graph.nodes:
                    assert graph.precedes(a, b) == naive_precedes(graph, a, b)
            subset = data.draw(
                st.lists(st.sampled_from(labels + [stranger]), max_size=n),
                label="subset",
            )
            assert_maximal_matches_naive(graph, subset)
            assert_maximal_matches_naive(graph, labels)


def add_like_the_closure_check(
    graph: DependencyGraph, msg_id: MessageId, ancestors
) -> bool:
    """Add under both checks; True iff the label was rejected as a cycle."""
    expected = closure_check_rejects(graph, msg_id, ancestors)
    before = (graph.nodes, graph.dangling())
    if expected:
        with pytest.raises(DependencyError, match="cycle"):
            graph.add(msg_id, ancestors)
        # A rejected add leaves the graph as it was.
        assert (graph.nodes, graph.dangling()) == before
    else:
        graph.add(msg_id, ancestors)
    return expected


class TestCycleCheckEquivalence:
    """The cone walk raises iff the closure-based check would have."""

    def test_materialising_with_one_added_and_one_dangling_ancestor(self):
        # b hangs below a; a arrives naming b (added: closes a cycle) and
        # ghost (still dangling: cannot).  The guard must not be fooled
        # by the dangling one into skipping the walk.
        graph = DependencyGraph()
        graph.add(mid("b"), mid("a"))
        assert add_like_the_closure_check(
            graph, mid("a"), [mid("ghost"), mid("b")]
        )
        # The same shape without the back edge is accepted.
        graph.add(mid("root"))
        assert not add_like_the_closure_check(
            graph, mid("a"), [mid("ghost"), mid("root")]
        )
        assert_cache_matches_naive(graph)

    def test_materialising_with_no_ancestors_never_cycles(self):
        graph = DependencyGraph()
        graph.add(mid("b"), mid("a"))
        graph.add(mid("c"), mid("b"))
        assert graph.causal_past(mid("c")) == {mid("b")}  # memoise first
        assert not add_like_the_closure_check(graph, mid("a"), [])
        # No closure changed, but the added filter now lets a through.
        assert graph.causal_past(mid("c")) == {mid("a"), mid("b")}
        assert_cache_matches_naive(graph)

    def test_ancestor_two_hops_below_the_materialising_label(self):
        # a <- b <- c already hang below a; a naming c closes a 3-cycle.
        graph = DependencyGraph()
        graph.add(mid("b"), mid("a"))
        graph.add(mid("c"), mid("b"))
        assert add_like_the_closure_check(graph, mid("a"), [mid("c")])
        # ... and naming only labels outside the cone does not.
        graph.add(mid("x"))
        graph.add(mid("y"), mid("x"))
        assert not add_like_the_closure_check(graph, mid("a"), [mid("y")])
        assert graph.precedes(mid("x"), mid("c"))
        assert_cache_matches_naive(graph)

    def test_all_ancestors_dangling_skips_the_walk_soundly(self):
        # A chain arriving in reverse: every materialising label has the
        # rest of the chain below it and only a dangling ancestor, so the
        # guard skips the walk — and the oracle agrees there is no cycle.
        graph = DependencyGraph()
        chain = [mid("m", i) for i in range(6)]
        for i in range(5, 0, -1):
            assert not add_like_the_closure_check(
                graph, chain[i], [chain[i - 1]]
            )
        assert not add_like_the_closure_check(graph, chain[0], [])
        assert graph.causal_past(chain[5]) == frozenset(chain[:5])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_sequences_raise_iff_the_closure_check_does(self, data):
        # Arbitrary digraphs (back edges allowed) in arbitrary insertion
        # order; a rejected label is dropped and the sequence goes on, so
        # later insertions meet every mix of added / dangling / cyclic.
        n = data.draw(st.integers(2, 9), label="n")
        labels = [mid("m", i) for i in range(n)]
        edges = {
            i: sorted(
                data.draw(
                    st.sets(
                        st.integers(0, n - 1).filter(lambda j, i=i: j != i),
                        max_size=3,
                    ),
                    label=f"anc{i}",
                )
            )
            for i in range(n)
        }
        order = data.draw(st.permutations(list(range(n))), label="order")
        query = data.draw(st.booleans(), label="query-between-adds")
        graph = DependencyGraph()
        for i in order:
            add_like_the_closure_check(
                graph, labels[i], [labels[j] for j in edges[i]]
            )
            if query:
                assert_cache_matches_naive(graph)
        if not query:
            # Only add() has run so far: it memoises nothing.
            assert graph.closure_footprint() == (0, 0)
        assert_cache_matches_naive(graph)
        assert_maximal_matches_naive(graph, labels)
