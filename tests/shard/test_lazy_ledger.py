"""The ledger's graph view equals the graph eager filing builds.

``Ledger.record`` files a record, its shard's label set and its key
index; the graph and the per-shard label/write masks are caught up, in
issue order, by the first question that needs them.  Random sharded
histories — puts, gets, barrier reads, token merges, crashes, restarts
and slot moves on 2 and 3 shards — run twice, once on the lazy ledger and
once on :class:`~tests.shard.eager_ledger.EagerLedger`, with the same
graph question asked after every step: each answer (masks as the ints
they are, so bit positions count), the graph's structure and the audits
must be the same.  The caught-up graph then passes the reachability
oracles of ``tests/graph/test_reachability_cache.py`` and the two-part
properties of ``TestTwoPartAncestors``.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.depgraph import DependencyGraph
from repro.shard.cluster import ShardedCluster

from tests.graph.test_reachability_cache import (
    naive_causal_past,
    naive_maximal,
    naive_precedes,
)
from tests.shard import barrier_reference as reference
from tests.shard.eager_ledger import EagerLedger
from tests.shard.test_audit_equivalence import operations, run_history

QUESTIONS = (
    "precedes", "maximal", "project", "past_writes", "cut_labels",
    "closure_gaps", "fold", "delivery_gaps", "session_order", "graph",
    None,
)


def structure(ledger):
    """The view as bits: label order, stored ancestors, both masks."""
    graph = ledger.graph
    return (
        list(graph._labels),
        dict(graph._ancestors),
        dict(ledger._label_mask),
        dict(ledger._write_mask),
    )


def ask(cluster: ShardedCluster, question, salt: int):
    """One graph question about the history so far; ``salt`` picks the
    labels, the shard and the member.  The newest label is always among
    the picks: it was filed after every earlier question."""
    ledger = cluster.ledger
    labels = list(ledger.ops)
    if question is None or not labels:
        return None
    shards = cluster.shard_ids
    shard = shards[salt % len(shards)]
    newest = labels[-1]
    picks = [newest] + [
        labels[(salt * 7 + 13 * k) % len(labels)] for k in range(salt % 4)
    ]
    if question == "precedes":
        return [
            (ledger.precedes(label, newest), ledger.precedes(newest, label))
            for label in picks
        ]
    if question == "maximal":
        return ledger.maximal(picks)
    if question == "project":
        return ledger.project(picks, shard)
    if question == "past_writes":
        return ledger.past_writes(newest, shard)
    if question == "cut_labels":
        return ledger.cut_labels(ledger.past_writes(newest, shard))
    if question == "closure_gaps":
        return reference.closure_gaps(ledger, {
            s: ledger.past_writes(picks[i % len(picks)], s)
            for i, s in enumerate(shards)
        })
    if question == "fold":
        cut = ledger.past_writes(newest, shard)
        base = ledger.past_writes(picks[-1], shard)
        return reference.fold(ledger, cut, (base, {}))
    if question == "delivery_gaps":
        stacks = sorted(cluster.groups[shard].stacks.items())
        _member, stack = stacks[salt % len(stacks)]
        return ledger.delivery_gaps(
            stack.delivered, stack.skipped_stable, shard
        )
    if question == "session_order":
        return [repr(v) for v in ledger.session_order_violations()]
    return structure(ledger)


def history(shards, ops, questions, eager: bool):
    """Run the history, asking ``questions[step]`` after each step."""
    answers = []

    def after_step(cluster, _sessions):
        question, salt = questions[len(answers) % len(questions)]
        answers.append(ask(cluster, question, salt))

    if eager:
        with mock.patch("repro.shard.cluster.Ledger", EagerLedger):
            cluster = run_history(shards, ops, None, after_step=after_step)
        assert type(cluster.ledger) is EagerLedger
    else:
        cluster = run_history(shards, ops, None, after_step=after_step)
    return cluster, answers


def audits(cluster):
    ledger = cluster.ledger
    return (
        [repr(v) for v in ledger.session_order_violations()],
        [repr(v) for v in ledger.get_violations()],
        [repr(v) for v in ledger.check_snapshot_closure()],
    )


class TestLazyEqualsEager:
    @settings(max_examples=150, deadline=None)
    @given(
        shards=st.sampled_from((2, 3)),
        ops=st.lists(operations, min_size=4, max_size=36),
        questions=st.lists(
            st.tuples(st.sampled_from(QUESTIONS), st.integers(0, 1000)),
            min_size=1,
            max_size=36,
        ),
    )
    def test_every_answer_bit_and_mask(self, shards, ops, questions):
        lazy, answers = history(shards, ops, questions, eager=False)
        eager, expected = history(shards, ops, questions, eager=True)
        assert answers == expected
        assert lazy.ledger.issue_order == eager.ledger.issue_order
        assert audits(lazy) == audits(eager)
        assert structure(lazy.ledger) == structure(eager.ledger)

    def test_a_put_files_no_graph_node_until_asked(self):
        cluster = ShardedCluster(shards=2, members_per_shard=3, hop_events="off")
        session = cluster.router.session("s")
        for n in range(8):
            session.put(f"k{n}", n)
        cluster.drain()
        ledger = cluster.ledger
        assert (len(ledger), len(ledger._graph), ledger.catchups) == (8, 0, 0)
        assert cluster.gauges()["graph_nodes"] == 8
        assert len(ledger._graph) == 0
        assert cluster.graph is ledger.graph
        assert (len(ledger._graph), ledger.catchups) == (8, 1)
        # Caught up: asking again files nothing.
        ledger.precedes(*ledger.issue_order[:2])
        assert ledger.catchups == 1


def union_view(graph: DependencyGraph) -> SimpleNamespace:
    """What the DFS oracles read of a graph (``_ancestors``), with each
    node's two stamps unioned."""
    return SimpleNamespace(_ancestors={
        label: graph.ancestors_of(label) for label in graph.nodes
    })


class TestCaughtUpGraph:
    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.sampled_from((2, 3)),
        ops=st.lists(operations, min_size=4, max_size=30),
        salt=st.integers(0, 1000),
    )
    def test_reachability_oracles_and_two_part_stamps(self, shards, ops, salt):
        cluster = run_history(shards, ops, None)
        ledger = cluster.ledger
        graph = ledger.graph
        nodes = graph.nodes
        assert nodes == ledger.issue_order
        view = union_view(graph)
        union = DependencyGraph()
        for label in nodes:
            record = ledger.ops[label]
            # Stored as filed: the record's own frozensets, apart.
            stored = graph._ancestors[label]
            if type(stored) is tuple:
                assert stored[0] is record.deps and stored[1] is record.cross_deps
            else:
                assert stored == record.deps | record.cross_deps
            assert graph.ancestors_of(label) == record.deps | record.cross_deps
            union.add(label, graph.ancestors_of(label))
        assert union.topological_order() == graph.topological_order()
        step = salt % 5 + 1
        sample = nodes[::step]
        for a in sample:
            assert graph.causal_past(a) == naive_causal_past(view, a)
            assert graph.causal_past(a) == union.causal_past(a)
            for b in sample:
                assert graph.precedes(a, b) == naive_precedes(view, a, b)
                assert graph.precedes(a, b) == union.precedes(a, b)
        pool = nodes[salt % max(1, len(nodes))::3]
        assert graph.maximal_elements(pool) == naive_maximal(view, pool)
        assert graph.maximal_elements(pool) == union.maximal_elements(pool)
