"""Stable-point barrier reads: coverage, value folds, cross-closure."""

from __future__ import annotations

from repro.shard import ShardedCluster, StablePointBarrier
from repro.shard.ledger import DATA_KINDS

from tests.shard.test_router import key_for, quiet_cluster


class TestBarrierReads:
    def test_read_covers_all_settled_writes(self):
        cluster = quiet_cluster()
        k0, k1 = key_for(cluster, 0), key_for(cluster, 1)
        cluster.router.session("a").put(k0, "1")
        cluster.router.session("b").put(k1, "2")
        cluster.drain()
        done = []
        StablePointBarrier(
            cluster, cluster.shard_ids, on_complete=done.append
        ).start()
        cluster.drain()
        (read,) = done
        assert read.value == {k0: "1", k1: "2"}
        assert read.labels == set(cluster.ledger.issue_order[:2])
        assert read.rounds == 0

    def test_later_write_wins_the_fold(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        session = cluster.router.session("s")
        session.put(key, "old")
        session.put(key, "new")
        session.read(shards=(0,))
        cluster.drain()
        assert session.reads[0].value[key] == "new"

    def test_single_shard_read_ignores_other_shards(self):
        cluster = quiet_cluster()
        k0, k1 = key_for(cluster, 0), key_for(cluster, 1)
        session = cluster.router.session("s")
        session.put(k0, "x")
        session.put(k1, "y")
        session.read(shards=(1,))
        cluster.drain()
        (read,) = session.reads
        assert read.value == {k1: "y"}
        assert read.shards == (1,)

    def test_empty_cluster_read_is_empty(self):
        cluster = quiet_cluster()
        done = []
        StablePointBarrier(
            cluster, cluster.shard_ids, on_complete=done.append
        ).start()
        cluster.drain()
        assert done[0].value == {}

    def test_barrier_records_land_in_cluster_ledger(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        session.read()
        cluster.drain()
        kinds = {cluster.ledger.ops[l].kind for l in cluster.ledger.issue_order}
        assert kinds == {"barrier"}
        assert cluster.barriers_started == 1
        assert len(cluster.ledger.barrier_reads) == 1


class TestClosureInvariant:
    def test_covered_cuts_are_closed_under_cross_deps(self):
        """A completed read's cut holds every covered write's whole past.

        Not just its direct ``cross_deps`` (all the barrier scanned when
        this test was named): every write anywhere in a
        covered write's transitive causal past (both edge kinds, through
        barrier labels and untouched shards) that lives on a touched
        shard is itself covered.
        """
        cluster = quiet_cluster(shards=3, seed=2)
        sessions = [cluster.router.session(f"s{i}") for i in range(3)]
        for index, session in enumerate(sessions):
            session.put(key_for(cluster, index, salt=index), f"a{index}")
            session.put(
                key_for(cluster, (index + 1) % 3, salt=index + 3),
                f"b{index}",
            )
        for index, session in enumerate(sessions):
            session.read(shards=(index, (index + 1) % 3))
            session.put(key_for(cluster, index, salt=index + 6), f"c{index}")
        for session in sessions:
            session.read()
        cluster.drain()
        for session in sessions:
            assert len(session.reads) == 2
            for read in session.reads:
                covered = read.covered
                assert set(covered) == set(read.shards)
                for shard in read.shards:
                    for label in covered[shard]:
                        for dep in cluster.graph.causal_past(label):
                            dep_shard = cluster.ledger.shard_of(dep)
                            if (
                                dep_shard in covered
                                and cluster.ledger.ops[dep].kind in DATA_KINDS
                            ):
                                assert dep in covered[dep_shard]
        assert cluster.check_invariants() == []


class TestAbort:
    def test_read_aborts_when_shard_unreachable(self):
        cluster = quiet_cluster()
        for member in cluster.groups[1].members:
            cluster.groups[1].crash(member)
        session = cluster.router.session("s")
        session.read()
        cluster.drain()
        assert session.reads == []
        assert session.reads_failed == 1
        assert cluster.reads_failed == 1
        assert session.idle
