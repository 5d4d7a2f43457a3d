"""A barrier read is a causal cut: closed, audited, and folded once.

The seed-17 two-shard campaign is the failing-before regression: PR 6's
closure check scanned each covered write's direct ``cross_deps``, and a
session that absorbs its own barrier label collapses its frontier onto
it, so the path ``d (shard 1) ≺ barrier (shard 0) ≺ w (shard 0)`` was
invisible to the scan — ``sess0``'s read returned ``sess2``'s later puts
and not its earlier one.  The ``snapshot-closure`` invariant is the audit
that was missing; the planted gaps prove it is not vacuous.
"""

from __future__ import annotations

import pytest

from repro.apps.kvstore import fold_ledger
from repro.shard import (
    BarrierRead,
    ShardedCluster,
    StablePointBarrier,
    sharded_campaign,
)

from tests.shard.test_router import key_for, quiet_cluster


def run_campaign(seed, shards=2):
    cluster = ShardedCluster(shards=shards, members_per_shard=3, seed=seed)
    result = cluster.run_campaign(sharded_campaign(
        cluster.shard_map,
        {s: g.members for s, g in cluster.groups.items()},
        seed=seed,
        ops_per_session=10,
    ))
    return cluster, result


def closure_violations(cluster):
    return [
        violation
        for violation in cluster.check_invariants()
        if violation.invariant == "snapshot-closure"
    ]


def reference_fold(cluster, read):
    ledger = cluster.ledger
    return fold_ledger(sorted(
        (
            ledger.ops[label]
            for mask in read.masks().values()
            for label in ledger.cut_labels(mask)
        ),
        key=lambda record: record.index,
    ))


class TestSeed17Regression:
    def test_reads_return_a_sessions_earlier_puts_with_its_later_ones(self):
        cluster, result = run_campaign(17)
        assert result.ok, [str(v) for v in result.violations]
        assert result.reads == 7
        puts = [r for r in cluster.ledger.ops.values() if r.kind == "put"]
        # Campaign values are unique, so a returned value names its put.
        index_of = {r.value["value"]: r.index for r in puts}
        for read in cluster.ledger.barrier_reads:
            observed = read.labels
            for later in puts:
                if later.label not in observed:
                    continue
                for earlier in puts:
                    if (
                        earlier.session == later.session
                        and earlier.index < later.index
                        and earlier.shard in read.shards
                    ):
                        returned = read.value.get(earlier.key)
                        assert (
                            returned is not None
                            and index_of[returned] >= earlier.index
                        ), (
                            f"{read.session}'s read at "
                            f"t={read.completed_at:.2f} returns "
                            f"{later.label} and not {earlier.label} "
                            f"({earlier.key}={earlier.value['value']})"
                        )


class TestClosureAuditIsNotVacuous:
    def test_planted_gap_is_flagged_with_its_path(self):
        cluster = quiet_cluster()
        k0, k1 = key_for(cluster, 0), key_for(cluster, 1)
        early = cluster.router.session("early")
        early.read(shards=(1,))  # fences shard 1 before anything is there
        cluster.drain()
        writer = cluster.router.session("w")
        writer.put(k1, "first")
        writer.put(k0, "second")  # cross_deps: the shard-1 put
        cluster.drain()
        late = cluster.router.session("late")
        late.read(shards=(0,))
        cluster.drain()
        assert cluster.check_invariants() == []
        first, second = (
            label for label in cluster.ledger.issue_order
            if cluster.ledger.ops[label].kind == "put"
        )
        # Shard 1's cut from before the writes, shard 0's from after: a
        # snapshot holding `second` and not the `first` it follows.
        cluster.ledger.barrier_reads.append(BarrierRead(
            session="planted",
            shards=(0, 1),
            value={k0: "second"},
            barrier_labels={
                0: late.reads[0].barrier_labels[0],
                1: early.reads[0].barrier_labels[1],
            },
            cuts={0: late.reads[0].cuts[0], 1: early.reads[0].cuts[1]},
            rounds=0,
            issued_at=0.0,
            completed_at=cluster.scheduler.now,
            ledger=cluster.ledger,
        ))
        (violation,) = closure_violations(cluster)
        assert "planted" in violation.detail
        assert f"covers {second} but not {first} on shard 1" in (
            violation.detail
        )
        assert f"({second} <- {first})" in violation.detail

    def test_reads_completed_without_the_closure_check_are_flagged(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            StablePointBarrier, "_check_closure", StablePointBarrier._complete
        )
        cluster, result = run_campaign(17)
        flagged = [
            v for v in result.violations if v.invariant == "snapshot-closure"
        ]
        assert flagged
        assert all("sess" in v.detail for v in flagged)


class TestAuditIsIndependentOfTheBarrier:
    def test_a_closure_gaps_that_reads_one_cut_is_caught(self, monkeypatch):
        """The barrier closes its cuts with `_closure_gaps`.  If that
        reads only the first shard's cut, the barrier returns snapshots
        that are not causally closed; the audit walks the covered
        labels' stamps itself, so the campaign reports them."""
        closure_gaps = StablePointBarrier._closure_gaps

        def first_cut_only(barrier):
            first = barrier.shards[0]
            cuts, labels = barrier._cut, barrier._barrier_labels
            barrier._cut = {first: cuts[first]}
            barrier._barrier_labels = {first: labels[first]}
            try:
                return closure_gaps(barrier)
            finally:
                barrier._cut, barrier._barrier_labels = cuts, labels

        monkeypatch.setattr(StablePointBarrier, "_closure_gaps", first_cut_only)
        cluster, result = run_campaign(0)
        flagged = [
            v for v in result.violations if v.invariant == "snapshot-closure"
        ]
        assert flagged
        assert all("which it causally follows" in v.detail for v in flagged)


class TestTheFoldedCutIsAudited:
    @pytest.mark.parametrize(
        "planted, session",
        [("older-cut", "r"), ("older-cut", "planted"), ("newer-cut", "r")],
    )
    def test_a_cut_other_than_the_barriers_past_is_flagged(
        self, planted, session
    ):
        """A read's value and its covered labels come from the cut the
        barrier computed; the audit decodes the barriers' past from the
        graph itself and flags a read whose cut holds other writes: an
        older cut under the newer barriers, judged against the session's
        clean base or, in another session, from scratch; a newer cut
        under the older barriers (the base is not below them)."""
        cluster = quiet_cluster()
        reader = cluster.router.session("r")
        reader.read(shards=(0,))
        cluster.drain()
        cluster.router.session("w").put(key_for(cluster, 0), "between")
        cluster.drain()
        reader.read(shards=(0,))
        cluster.drain()
        assert cluster.check_invariants() == []
        older, newer = reader.reads
        (between,) = newer.covered[0] - older.covered[0]
        labels_from, cuts_from = (
            (newer, older) if planted == "older-cut" else (older, newer)
        )
        cluster.ledger.barrier_reads.append(BarrierRead(
            session=session,
            shards=(0,),
            value={},
            barrier_labels=labels_from.barrier_labels,
            cuts=cuts_from.cuts,
            rounds=0,
            issued_at=0.0,
            completed_at=cluster.scheduler.now,
            ledger=cluster.ledger,
        ))
        (violation,) = cluster.check_invariants()
        assert violation.invariant == "snapshot-cut"
        assert violation.detail.endswith(f"causal past at {between}")


class TestOneFold:
    @pytest.mark.parametrize("seed", range(20))
    def test_value_is_the_issue_order_fold_of_the_cut(self, seed):
        cluster, _result = run_campaign(seed, shards=2 + seed % 2)
        assert cluster.ledger.barrier_reads
        assert closure_violations(cluster) == []
        for read in cluster.ledger.barrier_reads:
            assert read.value == reference_fold(cluster, read)
            assert read.labels == frozenset().union(*read.covered.values())

    def test_incomparable_cuts_fold_from_nothing(self):
        """A lagging contact's cut is not a superset of the last fold."""
        cluster = quiet_cluster(shards=1)
        group = cluster.groups[0]
        n0, n1, n2 = group.members
        ka, kb = key_for(cluster, 0), key_for(cluster, 0, salt=1)
        group.partition((n0,), (n1, n2))
        cluster.router.session("a").put(ka, "only-n0-has-this")
        cluster.drain()
        cluster.router.session("r1").read()
        cluster.drain()
        (first,) = cluster.router.session("r1").reads
        assert first.value == {ka: "only-n0-has-this"}
        # n0 dies with the only copy; the next contact never saw `ka`.
        group.crash(n0)
        cluster.router.session("b").put(kb, "n1-and-n2")
        cluster.drain()
        cluster.router.session("r2").read()
        cluster.drain()
        (second,) = cluster.router.session("r2").reads
        mask_1, mask_2 = first.masks()[0], second.masks()[0]
        assert mask_1 & mask_2 not in (mask_1, mask_2)  # incomparable
        assert second.value == {kb: "n1-and-n2"}
        assert second.value == reference_fold(cluster, second)
        # Once n0 is back and has replayed, one cut contains both.
        group.heal()
        group.restart(n0)
        for _ in range(10):
            if cluster.converged():
                break
            group.repair_round()
            cluster.drain()
        cluster.router.session("r3").read()
        cluster.drain()
        (third,) = cluster.router.session("r3").reads
        assert third.value == {ka: "only-n0-has-this", kb: "n1-and-n2"}
        assert cluster.check_invariants() == []

    def test_read_straddling_a_slot_move(self):
        cluster = quiet_cluster()
        key, other = key_for(cluster, 0), key_for(cluster, 1)
        writer = cluster.router.session("w")
        writer.put(key, "before")
        writer.put(other, "elsewhere")
        cluster.drain()
        reader = cluster.router.session("r")
        reader.read()  # leaves a pre-move fold behind on both shards
        cluster.drain()
        # The move's drain barrier, a read of both shards and a put to
        # the moving slot (parked on the freeze) all start together.
        cluster.rebalancer.move_slot(cluster.shard_map.slot_of(key), 1)
        reader.read()
        writer.put(key, "after")
        cluster.drain()
        reader.read()
        cluster.drain()
        assert cluster.rebalancer.moves[0].phase == "done"
        assert cluster.shard_map.shard_of(key) == 1
        before, during, after = reader.reads
        assert before.value == {key: "before", other: "elsewhere"}
        assert during.value[key] in ("before", "after")
        assert after.value == {key: "after", other: "elsewhere"}
        for read in reader.reads:
            assert read.value == reference_fold(cluster, read)
        assert cluster.check_invariants() == []
