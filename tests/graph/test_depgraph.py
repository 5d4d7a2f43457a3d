"""Tests for message dependency graphs."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DependencyError
from repro.graph.depgraph import DependencyGraph
from repro.types import MessageId


def mid(sender: str, seqno: int = 0) -> MessageId:
    return MessageId(sender, seqno)


def diamond() -> DependencyGraph:
    """root -> {left, right} -> sink (the paper's Figure 3 shape)."""
    graph = DependencyGraph()
    graph.add(mid("root"))
    graph.add(mid("left"), mid("root"))
    graph.add(mid("right"), mid("root"))
    graph.add(mid("sink"), [mid("left"), mid("right")])
    return graph


class TestConstruction:
    def test_add_and_contains(self):
        graph = DependencyGraph()
        graph.add(mid("a"))
        assert mid("a") in graph
        assert len(graph) == 1

    def test_duplicate_label_rejected(self):
        graph = DependencyGraph()
        graph.add(mid("a"))
        with pytest.raises(DependencyError):
            graph.add(mid("a"))

    def test_self_dependency_rejected(self):
        graph = DependencyGraph()
        with pytest.raises(DependencyError):
            graph.add(mid("a"), mid("a"))

    def test_cycle_via_dangling_reference_rejected(self):
        graph = DependencyGraph()
        graph.add(mid("b"), mid("a"))  # b occurs after a (a not yet added)
        with pytest.raises(DependencyError):
            graph.add(mid("a"), mid("b"))  # a after b would close a cycle

    def test_longer_cycle_rejected(self):
        graph = DependencyGraph()
        graph.add(mid("c"), mid("b"))
        graph.add(mid("b"), mid("a"))
        with pytest.raises(DependencyError):
            graph.add(mid("a"), mid("c"))

    def test_dangling_ancestors_tracked(self):
        graph = DependencyGraph()
        graph.add(mid("b"), mid("a"))
        assert graph.dangling() == frozenset({mid("a")})
        graph.add(mid("a"))
        assert graph.dangling() == frozenset()

    def test_ancestors_and_descendants(self):
        graph = diamond()
        assert graph.ancestors_of(mid("sink")) == frozenset(
            {mid("left"), mid("right")}
        )
        assert graph.descendants_of(mid("root")) == frozenset(
            {mid("left"), mid("right")}
        )

    def test_unknown_label_queries_raise(self):
        graph = DependencyGraph()
        with pytest.raises(DependencyError):
            graph.ancestors_of(mid("ghost"))
        with pytest.raises(DependencyError):
            graph.descendants_of(mid("ghost"))

    def test_roots(self):
        graph = diamond()
        assert graph.roots() == [mid("root")]

    def test_a_plain_pair_is_refused_and_leaves_the_graph_alone(self):
        graph = DependencyGraph()
        graph.add(mid("a", 1))
        for occurs_after, cross_deps in (
            (("a", 1), None), ([("a", 1)], None), (mid("a", 1), ("c", 2)),
        ):
            with pytest.raises(TypeError, match="MessageId"):
                graph.add(mid("b"), occurs_after, cross_deps)
        assert graph.nodes == [mid("a", 1)] and graph.dangling() == frozenset()


class TestTwoPartAncestors:
    """``add(label, occurs_after, cross_deps)`` keeps the two sets apart."""

    def test_the_parts_are_stored_as_given_and_unioned_when_asked(self):
        graph = DependencyGraph()
        graph.add(mid("a"))
        graph.add(mid("x"))
        deps, cross = frozenset({mid("a")}), frozenset({mid("x")})
        graph.add(mid("b"), deps, cross)
        stored = graph._ancestors[mid("b")]
        assert stored[0] is deps and stored[1] is cross
        assert graph.ancestors_of(mid("b")) == {mid("a"), mid("x")}
        assert graph.causal_past(mid("b")) == {mid("a"), mid("x")}
        assert graph.descendants_of(mid("x")) == {mid("b")}
        assert graph.edge_count() == 2

    def test_an_empty_part_stores_the_other_alone(self):
        graph = DependencyGraph()
        cross = frozenset({mid("x")})
        graph.add(mid("b"), None, cross)
        assert graph._ancestors[mid("b")] is cross
        graph.add(mid("c"), cross, frozenset())
        assert graph._ancestors[mid("c")] is cross

    def test_overlapping_parts_count_each_edge_once(self):
        graph = DependencyGraph()
        graph.add(mid("a"))
        graph.add(mid("b"), [mid("a")], [mid("a")])
        assert graph.ancestors_of(mid("b")) == {mid("a")}
        assert graph.descendants_of(mid("a")) == {mid("b")}
        assert graph.edge_count() == 1
        assert graph.topological_order() == [mid("a"), mid("b")]

    def test_self_dependency_and_cycles_through_the_second_part(self):
        graph = DependencyGraph()
        with pytest.raises(DependencyError):
            graph.add(mid("a"), None, [mid("a")])
        graph.add(mid("b"), None, [mid("a")])
        with pytest.raises(DependencyError, match="cycle"):
            graph.add(mid("a"), [mid("root")], [mid("b")])

    @given(data=st.data())
    def test_any_split_answers_as_the_union_does(self, data):
        size = data.draw(st.integers(1, 8), label="size")
        labels = [mid("n", i) for i in range(size)]
        edges = [
            data.draw(st.sets(st.sampled_from(labels[:i]), max_size=3), label=f"anc{i}")
            if i else set()
            for i in range(size)
        ]
        order = data.draw(st.permutations(range(size)), label="order")
        split, union = DependencyGraph(), DependencyGraph()
        for i in order:
            first = data.draw(st.sets(st.sampled_from(labels)), label=f"first{i}") & edges[i]
            second = edges[i] - first | (
                data.draw(st.sets(st.sampled_from(labels)), label=f"dup{i}") & first
            )
            split.add(labels[i], first, second)
            union.add(labels[i], edges[i])
        assert split.nodes == union.nodes
        assert split.roots() == union.roots()
        assert split.dangling() == union.dangling()
        assert split.edge_count() == union.edge_count()
        assert split.topological_order() == union.topological_order()
        for a in labels:
            if a in union:
                assert split.ancestors_of(a) == union.ancestors_of(a)
                assert split.descendants_of(a) == union.descendants_of(a)
                assert split.causal_past(a) == union.causal_past(a)
            for b in labels:
                assert split.precedes(a, b) == union.precedes(a, b)
        assert split.maximal_elements(labels) == union.maximal_elements(labels)
        reduced = split.transitive_reduction()
        for a in union.nodes:
            assert reduced.ancestors_of(a) == union.transitive_reduction().ancestors_of(a)


class TestCausalRelations:
    def test_direct_precedence(self):
        graph = diamond()
        assert graph.precedes(mid("root"), mid("left"))

    def test_transitive_precedence(self):
        graph = diamond()
        assert graph.precedes(mid("root"), mid("sink"))

    def test_no_reverse_precedence(self):
        graph = diamond()
        assert not graph.precedes(mid("sink"), mid("root"))

    def test_nothing_precedes_itself(self):
        graph = diamond()
        assert not graph.precedes(mid("root"), mid("root"))

    def test_concurrency(self):
        graph = diamond()
        assert graph.concurrent(mid("left"), mid("right"))
        assert not graph.concurrent(mid("root"), mid("left"))
        assert not graph.concurrent(mid("left"), mid("left"))

    def test_causal_past(self):
        graph = diamond()
        assert graph.causal_past(mid("sink")) == frozenset(
            {mid("root"), mid("left"), mid("right")}
        )
        assert graph.causal_past(mid("root")) == frozenset()

    def test_concurrency_classes_cover_all_nodes(self):
        graph = diamond()
        classes = graph.concurrency_classes()
        covered = set().union(*classes)
        assert covered == set(graph.nodes)


class TestOrders:
    def test_topological_order_is_legal(self):
        graph = diamond()
        order = graph.topological_order()
        positions = {label: i for i, label in enumerate(order)}
        assert positions[mid("root")] < positions[mid("left")]
        assert positions[mid("root")] < positions[mid("right")]
        assert positions[mid("left")] < positions[mid("sink")]
        assert positions[mid("right")] < positions[mid("sink")]

    def test_topological_order_deterministic(self):
        assert diamond().topological_order() == diamond().topological_order()

    def test_diamond_has_two_linear_extensions(self):
        extensions = list(diamond().linear_extensions())
        assert len(extensions) == 2
        assert all(ext[0] == mid("root") for ext in extensions)
        assert all(ext[-1] == mid("sink") for ext in extensions)

    def test_antichain_has_factorial_extensions(self):
        graph = DependencyGraph()
        for name in ("a", "b", "c", "d"):
            graph.add(mid(name))
        assert graph.count_linear_extensions() == math.factorial(4)

    def test_chain_has_single_extension(self):
        graph = DependencyGraph()
        graph.add(mid("a"))
        graph.add(mid("b"), mid("a"))
        graph.add(mid("c"), mid("b"))
        assert graph.count_linear_extensions() == 1

    def test_linear_extensions_limit(self):
        graph = DependencyGraph()
        for name in ("a", "b", "c", "d"):
            graph.add(mid(name))
        assert len(list(graph.linear_extensions(limit=5))) == 5

    def test_dangling_ancestors_ignored_in_orders(self):
        graph = DependencyGraph()
        graph.add(mid("b"), mid("missing"))
        assert graph.topological_order() == [mid("b")]


class TestReductions:
    def test_transitive_reduction_removes_implied_edge(self):
        graph = DependencyGraph()
        graph.add(mid("a"))
        graph.add(mid("b"), mid("a"))
        graph.add(mid("c"), [mid("a"), mid("b")])  # a->c implied via b
        reduced = graph.transitive_reduction()
        assert reduced.ancestors_of(mid("c")) == frozenset({mid("b")})

    def test_reduction_preserves_reachability(self):
        graph = diamond()
        reduced = graph.transitive_reduction()
        for x in graph.nodes:
            for y in graph.nodes:
                assert graph.precedes(x, y) == reduced.precedes(x, y)

    def test_reduction_keeps_dangling_ancestors(self):
        graph = DependencyGraph()
        graph.add(mid("b"), mid("missing"))
        reduced = graph.transitive_reduction()
        assert mid("missing") in reduced.ancestors_of(mid("b"))

    def test_subgraph(self):
        graph = diamond()
        sub = graph.subgraph({mid("root"), mid("left")})
        assert set(sub.nodes) == {mid("root"), mid("left")}
        assert sub.ancestors_of(mid("left")) == frozenset({mid("root")})

    def test_edge_count(self):
        assert diamond().edge_count() == 4


@st.composite
def random_dags(draw):
    """Random DAG: each node depends on a subset of earlier nodes."""
    size = draw(st.integers(1, 7))
    graph = DependencyGraph()
    labels = [mid("n", i) for i in range(size)]
    for index, label in enumerate(labels):
        ancestor_indices = draw(
            st.sets(st.integers(0, max(0, index - 1)), max_size=index)
        )
        graph.add(label, [labels[i] for i in ancestor_indices])
    return graph


class TestGraphProperties:
    @given(random_dags())
    def test_every_linear_extension_is_legal(self, graph):
        for extension in graph.linear_extensions(limit=50):
            seen = set()
            for label in extension:
                assert graph.ancestors_of(label) <= seen | graph.dangling()
                seen.add(label)

    @given(random_dags())
    def test_topological_order_contains_all_nodes(self, graph):
        order = graph.topological_order()
        assert sorted(order) == sorted(graph.nodes)

    @given(random_dags())
    def test_precedence_is_antisymmetric(self, graph):
        for x in graph.nodes:
            for y in graph.nodes:
                assert not (graph.precedes(x, y) and graph.precedes(y, x))

    @given(random_dags())
    def test_reduction_preserves_precedence(self, graph):
        reduced = graph.transitive_reduction()
        for x in graph.nodes:
            for y in graph.nodes:
                assert graph.precedes(x, y) == reduced.precedes(x, y)


def pairwise_maximal(graph: DependencyGraph, labels) -> frozenset:
    """Reference implementation: all-pairs precedes filtering."""
    pool = set(labels)
    return frozenset(
        label
        for label in pool
        if not any(
            other != label and graph.precedes(label, other)
            for other in pool
        )
    )


class TestMaximalElements:
    def test_diamond_maximal_is_sink(self):
        graph = diamond()
        assert graph.maximal_elements(graph.nodes) == frozenset(
            {mid("sink")}
        )

    def test_antichain_is_its_own_maximal(self):
        graph = DependencyGraph()
        labels = [mid(s) for s in "xyz"]
        for label in labels:
            graph.add(label)
        assert graph.maximal_elements(labels) == frozenset(labels)

    def test_empty_and_singleton(self):
        graph = diamond()
        assert graph.maximal_elements([]) == frozenset()
        assert graph.maximal_elements([mid("root")]) == frozenset(
            {mid("root")}
        )

    def test_unknown_label_survives_unless_shadowed(self):
        graph = diamond()
        ghost = mid("ghost")
        # Unknown to the graph, concurrent with everything: kept.
        result = graph.maximal_elements([ghost, mid("sink")])
        assert result == frozenset({ghost, mid("sink")})

    def test_dangling_ancestor_is_shadowed_by_descendant(self):
        graph = DependencyGraph()
        dangler = mid("dangler")
        child = mid("child")
        graph.add(child, [dangler])  # dangler referenced, never added
        assert graph.maximal_elements([dangler, child]) == frozenset(
            {child}
        )

    @given(random_dags(), st.data())
    def test_matches_pairwise_reference(self, graph, data):
        nodes = graph.nodes
        subset = data.draw(
            st.sets(st.sampled_from(nodes), max_size=len(nodes))
            if nodes
            else st.just(set())
        )
        assert graph.maximal_elements(subset) == pairwise_maximal(
            graph, subset
        )

    @given(random_dags())
    def test_result_is_an_antichain(self, graph):
        result = graph.maximal_elements(graph.nodes)
        for x in result:
            for y in result:
                assert not graph.precedes(x, y)


class TestPath:
    def test_chain_of_direct_edges_back_to_the_ancestor(self):
        graph = DependencyGraph()
        a, b, c, d, e = (MessageId("n", i) for i in range(5))
        graph.add(a)
        graph.add(b, [a])
        graph.add(c, [a])
        graph.add(d, [b, c])
        graph.add(e)
        assert graph.path(a, d) == [d, b, a]  # b < c: the smaller label
        assert graph.path(b, d) == [d, b]
        assert graph.path(d, a) == []
        assert graph.path(e, d) == []
        assert graph.path(a, a) == []
