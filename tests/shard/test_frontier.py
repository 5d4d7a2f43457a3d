"""FrontierTracker: the incremental path ≡ the full rebuild, everywhere.

``ShardedCluster.delivered_frontier`` maintains each member's frontier
incrementally (one :meth:`FrontierTracker.note` per delivery) and falls
back to a full rebuild whenever the settled set mutates outside delivery
— restart wipes, anti-entropy stable-prefix skips, and the first query
of a lazily activated member.  Three layers pin the two paths to each
other label-for-label:

* unit tests on a hand-built diamond (the shadowing/eviction cases);
* a hypothesis property over random DAGs and random feed orders — the
  issue-index guard makes ``note`` order-robust, so the property is
  stated over *arbitrary* permutations, strictly stronger than the
  causal-delivery orders the cluster produces;
* an integration sweep over every crash-eligible broadcast protocol,
  checkpointing incremental trackers (fed from real ``on_deliver``
  upcalls) against fresh rebuilds across sends, a crash, a restart
  (post-restart rebuild), anti-entropy settling (stable-prefix skips),
  and a late-activated member (first-activation rebuild).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.chaos import CHAOS_PROTOCOLS, ChaosCluster
from repro.graph.depgraph import DependencyGraph
from repro.shard.frontier import FrontierTracker
from repro.types import MessageId


def label(n: int) -> MessageId:
    return MessageId(sender="p", seqno=n)


def diamond() -> DependencyGraph:
    """0 ≺ {1, 2} ≺ 3, with 4 concurrent to everything."""
    graph = DependencyGraph()
    graph.add(label(0))
    graph.add(label(1), {label(0)})
    graph.add(label(2), {label(0)})
    graph.add(label(3), {label(1), label(2)})
    graph.add(label(4))
    return graph


def tracker_for(graph: DependencyGraph) -> FrontierTracker:
    return FrontierTracker(graph.precedes, lambda l: l.seqno)


class TestTrackerUnit:
    def test_note_evicts_shadowed_heads(self):
        tracker = tracker_for(diamond())
        for n in (0, 1, 2):
            tracker.note(label(n))
        assert tracker.labels() == {label(1), label(2)}
        tracker.note(label(3))
        assert tracker.labels() == {label(3)}

    def test_redelivered_ancestor_is_dropped(self):
        tracker = tracker_for(diamond())
        for n in (0, 1, 2, 3):
            tracker.note(label(n))
        tracker.note(label(1))  # replayed old label
        assert tracker.labels() == {label(3)}

    def test_concurrent_label_joins_the_frontier(self):
        tracker = tracker_for(diamond())
        for n in (0, 1, 2, 3, 4):
            tracker.note(label(n))
        assert tracker.labels() == {label(3), label(4)}

    def test_rebuild_matches_maximal_elements(self):
        graph = diamond()
        tracker = tracker_for(graph)
        labels = [label(n) for n in range(5)]
        tracker.rebuild(labels)
        assert tracker.labels() == graph.maximal_elements(labels)

    def test_reset_adopts_external_heads(self):
        tracker = tracker_for(diamond())
        tracker.reset({label(3): 3})
        assert tracker.labels() == {label(3)}


@st.composite
def random_dag_and_order(draw):
    """A random DAG (edges point from lower to higher seqno) plus a
    random permutation of a subset of its nodes to feed the tracker."""
    size = draw(st.integers(min_value=1, max_value=14))
    parents = {
        n: draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3)
        ) if n else set()
        for n in range(size)
    }
    subset = draw(st.sets(st.integers(min_value=0, max_value=size - 1)))
    order = draw(st.permutations(sorted(subset)))
    return parents, order


class TestTrackerProperty:
    @settings(max_examples=200, deadline=None)
    @given(random_dag_and_order())
    def test_note_in_any_order_equals_rebuild(self, case):
        parents, order = case
        graph = DependencyGraph()
        for n in sorted(parents):
            graph.add(label(n), {label(p) for p in parents[n]})
        incremental = tracker_for(graph)
        for n in order:
            incremental.note(label(n))
        rebuilt = tracker_for(graph)
        rebuilt.rebuild(label(n) for n in order)
        fed = [label(n) for n in order]
        assert incremental.labels() == rebuilt.labels()
        assert rebuilt.labels() == graph.maximal_elements(fed)

    @settings(max_examples=100, deadline=None)
    @given(random_dag_and_order())
    def test_redelivery_changes_nothing(self, case):
        parents, order = case
        graph = DependencyGraph()
        for n in sorted(parents):
            graph.add(label(n), {label(p) for p in parents[n]})
        tracker = tracker_for(graph)
        for n in order:
            tracker.note(label(n))
        before = tracker.labels()
        for n in reversed(order):  # replay everything backwards
            tracker.note(label(n))
        assert tracker.labels() == before


class TestProtocolIntegration:
    """Incremental vs rebuild over real stacks, every eligible protocol."""

    MEMBERS = ("a", "b", "c")

    @pytest.mark.parametrize("protocol", sorted(CHAOS_PROTOCOLS))
    def test_incremental_tracks_rebuild_through_chaos(self, protocol):
        cluster = ChaosCluster(
            protocol=protocol,
            members=self.MEMBERS,
            seed=5,
            auto_membership=False,  # crashes must not evict from the view
        )
        graph = DependencyGraph()
        index_of: dict = {}
        trackers = {
            member: FrontierTracker(
                graph.precedes, lambda l: index_of[l]
            )
            for member in self.MEMBERS
        }
        synced = {member: 0 for member in self.MEMBERS}
        # ``c`` activates late — its first checkpoint exercises exactly
        # the first-activation rebuild of ``delivered_frontier``.
        active = {"a", "b"}

        def feed(member):
            def hook(envelope):
                if member in active and envelope.msg_id in cluster.data_labels:
                    trackers[member].note(envelope.msg_id)
            return hook

        for member, stack in cluster.stacks.items():
            stack.on_deliver(feed(member))

        def send(member):
            sent = cluster.app_send(member)
            if sent is not None:
                graph.add(sent, cluster.dependencies[sent])
                index_of[sent] = len(index_of)
            return sent

        def checkpoint():
            for member in self.MEMBERS:
                if member not in active:
                    # Mirror lazy activation: rebuild on first query.
                    active.add(member)
                    synced[member] = -1
                stack = cluster.stacks[member]
                settled = stack._delivered_ids & cluster.data_labels
                if synced[member] != stack._settled_version:
                    # The settled set mutated outside delivery (restart
                    # wipe, stable-prefix skip) or the member was just
                    # activated: rebuild, exactly as the cluster does.
                    trackers[member].rebuild(settled)
                    synced[member] = stack._settled_version
                reference = FrontierTracker(
                    graph.precedes, lambda l: index_of[l]
                )
                reference.rebuild(settled)
                assert trackers[member].labels() == reference.labels(), (
                    f"{protocol}/{member}: incremental diverged from rebuild"
                )
                assert reference.labels() == graph.maximal_elements(settled)

        # Quiet operation: interleaved sends, fully drained.
        for _ in range(3):
            send("a")
            send("b")
            cluster.drain()
        checkpoint()

        # Concurrent sends land while ``c`` is still inactive; its first
        # checkpoint below rebuilds from everything at once.
        send("a")
        send("c")
        cluster.drain()
        checkpoint()

        # Crash ``b``, keep writing, restart it, and settle: the restart
        # wipes b's settled prefix (version bump → rebuild) and
        # anti-entropy may refill it via stable-prefix skips, which
        # never pass through on_deliver.
        cluster.crash("b")
        send("a")
        send("c")
        cluster.drain()
        checkpoint()
        cluster.restart("b")
        violations, _rounds = cluster.settle()
        assert violations == []
        checkpoint()

        # Post-recovery traffic goes back to the incremental path.
        send("b")
        send("a")
        cluster.drain()
        checkpoint()
