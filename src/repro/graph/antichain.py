"""Exact maximum-antichain computation (Dilworth's theorem).

The *width* of a dependency graph — the size of its largest antichain —
is the exact "degree of concurrency" a causal order permits: the most
messages that could ever be in flight unordered at once.  The greedy
:meth:`~repro.graph.depgraph.DependencyGraph.concurrency_classes` only
approximates it; this module computes it exactly.

By Dilworth's theorem the maximum antichain size equals the minimum
number of chains covering the poset, which for a DAG's *transitive
closure* is ``n - (maximum bipartite matching)`` (König/minimum path
cover).  The matching runs on networkx (Hopcroft-Karp), imported only
when a width is asked for: ``import repro`` needs nothing outside the
standard library.

Complexity is O(V·E) for the closure plus the matching — fine for the
activity-sized graphs the experiments inspect.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set, Tuple

from repro.graph.depgraph import DependencyGraph
from repro.types import MessageId


def _closure_edges(graph: DependencyGraph) -> List[Tuple[MessageId, MessageId]]:
    """All (earlier, later) pairs of the transitive closure."""
    nodes = graph.nodes
    return [
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes
        if a != b and graph.precedes(a, b)
    ]


def width(graph: DependencyGraph) -> int:
    """Size of the largest antichain (the graph's width)."""
    nodes = graph.nodes
    if not nodes:
        return 0
    edges = _closure_edges(graph)
    if not edges:
        return len(nodes)
    import networkx as nx

    # Minimum chain cover on the closure = n - maximum matching in the
    # split bipartite graph (u_out -> v_in per closure edge).
    bipartite = nx.Graph()
    left = {node: ("L", node) for node in nodes}
    right = {node: ("R", node) for node in nodes}
    bipartite.add_nodes_from(left.values(), bipartite=0)
    bipartite.add_nodes_from(right.values(), bipartite=1)
    for earlier, later in edges:
        bipartite.add_edge(left[earlier], right[later])
    matching = nx.bipartite.maximum_matching(
        bipartite, top_nodes=list(left.values())
    )
    matched = sum(1 for key in matching if key[0] == "L")
    return len(nodes) - matched


def maximum_antichain(graph: DependencyGraph) -> FrozenSet[MessageId]:
    """One concrete antichain of maximum size.

    Uses the standard König-style construction: from the minimum vertex
    cover of the bipartite closure graph, the uncovered poset elements
    form a maximum antichain.
    """
    nodes = graph.nodes
    if not nodes:
        return frozenset()
    edges = _closure_edges(graph)
    if not edges:
        return frozenset(nodes)
    import networkx as nx

    bipartite = nx.Graph()
    left = {node: ("L", node) for node in nodes}
    right = {node: ("R", node) for node in nodes}
    bipartite.add_nodes_from(left.values(), bipartite=0)
    bipartite.add_nodes_from(right.values(), bipartite=1)
    for earlier, later in edges:
        bipartite.add_edge(left[earlier], right[later])
    matching = nx.bipartite.maximum_matching(
        bipartite, top_nodes=list(left.values())
    )
    cover = nx.bipartite.to_vertex_cover(
        bipartite, matching, top_nodes=list(left.values())
    )
    # A node is in the antichain iff neither its L nor its R copy is in
    # the vertex cover.
    antichain = [
        node
        for node in nodes
        if left[node] not in cover and right[node] not in cover
    ]
    result = frozenset(antichain)
    # The construction is standard but cheap to verify; fail loudly
    # rather than return a non-antichain.
    _assert_antichain(graph, result)
    assert len(result) == width(graph)
    return result


def _assert_antichain(graph: DependencyGraph, labels: Set[MessageId]) -> None:
    labels = list(labels)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if graph.precedes(a, b) or graph.precedes(b, a):
                raise AssertionError(
                    f"not an antichain: {a} and {b} are ordered"
                )


def chain_cover_size(graph: DependencyGraph) -> int:
    """Minimum number of chains covering all nodes (= width, Dilworth)."""
    return width(graph)
