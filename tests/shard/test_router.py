"""Session layer: frontier tracking, dependency stamping, slot freezes."""

from __future__ import annotations

from repro.shard import ShardedCluster


def quiet_cluster(shards: int = 2, seed: int = 0) -> ShardedCluster:
    return ShardedCluster(shards=shards, members_per_shard=3, seed=seed)


def key_for(cluster: ShardedCluster, shard: int, salt: int = 0) -> str:
    """The lexically first deterministic key routing to ``shard``."""
    index = salt * 10_000
    while True:
        key = f"k{index}"
        if cluster.shard_map.shard_of(key) == shard:
            return key
        index += 1


class TestPuts:
    def test_put_routes_to_owning_shard(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        key = key_for(cluster, 1)
        session.put(key, "v1")
        cluster.drain()
        (label,) = cluster.ledger.issue_order
        assert cluster.ledger.ops[label].shard == 1
        assert cluster.ledger.ops[label].key == key

    def test_same_shard_writes_chain_occurs_after(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        key = key_for(cluster, 0)
        session.put(key, "v1")
        session.put(key, "v2")
        cluster.drain()
        first, second = cluster.ledger.issue_order
        assert cluster.ledger.ops[second].deps == frozenset({first})
        assert session.frontier[0] == frozenset({second})

    def test_cross_shard_write_stamps_cross_deps(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        session.put(key_for(cluster, 0), "a")
        session.put(key_for(cluster, 1), "b")
        cluster.drain()
        first, second = cluster.ledger.issue_order
        record = cluster.ledger.ops[second]
        assert record.shard == 1
        assert record.deps == frozenset()  # no earlier shard-1 write
        assert record.cross_deps == frozenset({first})

    def test_independent_sessions_do_not_share_frontiers(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        cluster.router.session("a").put(key, "va")
        cluster.drain()
        cluster.router.session("b").put(key, "vb")
        cluster.drain()
        _, second = cluster.ledger.issue_order
        assert cluster.ledger.ops[second].deps == frozenset()

    def test_session_batches_record_issue_order(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        session.put(key_for(cluster, 0), "a")
        session.put(key_for(cluster, 1), "b")
        cluster.drain()
        assert cluster.ledger.session_batches()["s"] == [
            [cluster.ledger.issue_order[0]],
            [cluster.ledger.issue_order[1]],
        ]


class TestReads:
    def test_read_sees_own_writes(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        k0, k1 = key_for(cluster, 0), key_for(cluster, 1)
        session.put(k0, "x")
        session.put(k1, "y")
        session.read()
        cluster.drain()
        (read,) = session.reads
        assert read.value == {k0: "x", k1: "y"}

    def test_read_absorbs_foreign_past_into_frontier(self):
        cluster = quiet_cluster()
        writer = cluster.router.session("w")
        k0 = key_for(cluster, 0)
        writer.put(k0, "x")
        cluster.drain()
        reader = cluster.router.session("r")
        reader.read()
        cluster.drain()
        put_label = cluster.ledger.issue_order[0]
        # The reader's next shard-0 write must causally follow the put it
        # observed, even though another session issued it.
        reader.put(k0, "y")
        cluster.drain()
        record = cluster.ledger.ops[cluster.ledger.issue_order[-1]]
        assert any(
            dep == put_label or cluster.graph.precedes(put_label, dep)
            for dep in record.deps
        )

    def test_reads_are_fifo_with_writes(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        k0 = key_for(cluster, 0)
        seen = []
        session.put(k0, "before")
        session.read(callback=lambda read: seen.append(read.value[k0]))
        session.put(k0, "after")
        cluster.drain()
        assert seen == ["before"]
        assert session.idle


    def test_a_read_of_no_shards_is_refused_before_it_queues(self):
        import pytest

        cluster = quiet_cluster()
        session = cluster.router.session("s")
        with pytest.raises(ValueError, match="at least one shard"):
            session.read(shards=())
        assert session.idle
        labels = []
        session.put(key_for(cluster, 0), "v", on_issued=labels.append)
        cluster.drain()
        assert labels and labels[0] is not None


class TestGets:
    """``Session.get``: the third FIFO verb, served by a covering replica."""

    def test_get_waits_for_the_put_before_it_and_precedes_the_put_after(self):
        cluster = quiet_cluster(shards=1)
        session = cluster.router.session("s")
        served = []
        session.put("k", "v1")
        (first,) = cluster.ledger.issue_order
        session.get("k", served.append)
        session.put("k", "v2")
        # The put is still in flight: no replica covers {first}, so the
        # get waits and holds the second put back with it.
        assert served == []
        assert cluster.ledger.issue_order == [first]
        cluster.drain()
        ((value, label, member, shard),) = served
        assert (value, label, shard) == ("v1", first, 0)
        assert cluster.covers(0, member, {first})
        _, second = cluster.ledger.issue_order
        # Writes-follow-reads: the later put is stamped after what the
        # get observed, so it cannot have issued before the get was served.
        assert cluster.ledger.ops[second].deps == frozenset({first})
        assert session.idle

    def test_idle_session_get_is_served_synchronously(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        key = key_for(cluster, 1)
        session.put(key, "v")
        cluster.drain()
        served = []
        session.get(key, served.append)
        session.get("never-written", served.append)
        assert [(value, label) for value, label, _m, _s in served] == [
            ("v", cluster.ledger.issue_order[0]), (None, None),
        ]

    def test_get_behind_a_barrier_read_waits_for_it(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        key = key_for(cluster, 0)
        session.put(key, "v")
        cluster.drain()
        order = []
        session.read(callback=lambda read: order.append("read"))
        session.get(key, lambda served: order.append(served[0]))
        assert order == []
        cluster.drain()
        assert order == ["read", "v"]

    def test_budget_exhaustion_aborts_once_and_unblocks_the_queue(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        key = key_for(cluster, 0)
        session.put(key, "v")
        cluster.drain()
        for member in cluster.groups[0].members:
            cluster.groups[0].crash(member)
        served, issued = [], []
        session.get(key, served.append)
        session.put(key_for(cluster, 1), "w", on_issued=issued.append)
        assert served == [] and issued == []
        cluster.drain()  # 240 one-second retries, then the get is aborted
        assert served == [None]
        assert len(issued) == 1 and issued[0] is not None
        assert session.idle

    def test_waiting_get_holds_back_only_its_own_session(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        blocked = cluster.router.session("blocked")
        blocked.put(key, "v")
        waiting = []
        blocked.get(key, waiting.append)
        other = cluster.router.session("other")
        other.put(key, "w")
        served = []
        other.get(key_for(cluster, 1), served.append)
        assert waiting == []
        assert other.ops_issued == 1 and len(served) == 1
        cluster.drain()
        assert len(waiting) == 1


class TestSlotFreeze:
    def test_frozen_slot_blocks_then_resumes(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        key = key_for(cluster, 0)
        slot = cluster.shard_map.slot_of(key)
        cluster.router.freeze_slot(slot)
        session.put(key, "v")
        cluster.scheduler.run_until(5.0)
        assert session.ops_issued == 0
        assert not session.idle
        cluster.router.unfreeze_slot(slot)
        cluster.drain()
        assert session.ops_issued == 1
        assert session.idle

    def test_handoff_dep_injected_after_unfreeze(self):
        cluster = quiet_cluster()
        fence = cluster.router.session("fence")
        key = key_for(cluster, 0)
        fence.put(key, "pre")
        cluster.drain()
        fence_label = cluster.ledger.issue_order[0]
        slot = cluster.shard_map.slot_of(key)
        cluster.router.freeze_slot(slot)
        cluster.router.unfreeze_slot(slot, handoff=fence_label)
        other = cluster.router.session("other")
        other.put(key, "post")
        cluster.drain()
        record = cluster.ledger.ops[cluster.ledger.issue_order[-1]]
        assert fence_label in record.deps

    def test_unreachable_shard_exhausts_attempts(self):
        cluster = quiet_cluster()
        for member in cluster.groups[0].members:
            cluster.groups[0].crash(member)
        session = cluster.router.session("s")
        fired = []
        session.put(
            key_for(cluster, 0), "v",
            on_issued=lambda label: fired.append(
                (label, cluster.scheduler.now)
            ),
        )
        cluster.drain()  # 240 one-second retries, then the op is dropped
        assert session.ops_issued == 0
        assert session.ops_skipped == 1
        assert session.idle
        # The idle session's first attempt, at once, is one of the 240:
        # the last retry falls at t=239 and drops the put, once.
        assert fired == [(None, 239.0)]


class TestSessionTokens:
    def fill(self, cluster, session, count: int = 3):
        for index in range(count):
            shard = index % len(cluster.shard_ids)
            session.put(key_for(cluster, shard, salt=index), f"v{index}")
        cluster.drain()

    def test_round_trip_restores_frontier(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        self.fill(cluster, session)
        token = session.export_token()
        fresh = cluster.router.session("fresh")
        assert fresh.import_token(token) == frozenset()
        assert fresh.frontier == session.frontier

    def test_token_is_versioned_json(self):
        import json

        from repro.shard.router import TOKEN_VERSION

        cluster = quiet_cluster()
        session = cluster.router.session("s")
        self.fill(cluster, session)
        document = json.loads(session.export_token())
        assert document["v"] == TOKEN_VERSION
        assert document["session"] == "s"
        assert set(document["frontier"]) <= {"0", "1"}

    def test_export_is_deterministic(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        self.fill(cluster, session)
        assert session.export_token() == session.export_token()

    def test_token_is_cached_until_the_frontier_moves(self):
        """One encoding per frontier: a cycle's replies share the string."""
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        other = cluster.router.session("other")
        self.fill(cluster, session)
        token = session.export_token()
        assert session.export_token() is token

        # A put moves the frontier.
        session.put(key_for(cluster, 0), "next")
        cluster.drain()
        after_put = session.export_token()
        assert after_put != token and session.export_token() is after_put

        # Observing what the frontier already dominates keeps the cache...
        own = next(iter(session.frontier[0]))
        earlier = cluster.ledger.issue_order[0]
        session.observe(own)
        session.observe(earlier)
        assert session.export_token() is after_put
        # ...observing a foreign write drops it.
        other.put(key_for(cluster, 1), "foreign")
        cluster.drain()
        session.observe(cluster.ledger.issue_order[-1])
        after_observe = session.export_token()
        assert after_observe != after_put

        # So does importing a token that adds to the frontier...
        other.put(key_for(cluster, 0), "foreign again")
        cluster.drain()
        session.import_token(other.export_token())
        after_import = session.export_token()
        assert after_import != after_observe

        # ...and a barrier read, whose labels the session absorbs.
        session.read()
        cluster.drain()
        after_read = session.export_token()
        assert after_read != after_import
        assert session.export_token() is after_read

        # The cached string is what a fresh encoding of the frontier gives.
        fresh = cluster.router.session("s-copy")
        fresh.name = "s"
        fresh.frontier = dict(session.frontier)
        assert fresh.export_token() == after_read

    def test_import_chains_next_write_after_token_frontier(self):
        cluster = quiet_cluster()
        writer = cluster.router.session("writer")
        key = key_for(cluster, 0)
        writer.put(key, "first")
        cluster.drain()
        first = cluster.ledger.issue_order[0]
        heir = cluster.router.session("heir")
        heir.import_token(writer.export_token())
        heir.put(key, "second")
        cluster.drain()
        record = cluster.ledger.ops[cluster.ledger.issue_order[-1]]
        assert first in record.deps

    def test_import_brings_the_named_labels_foreign_past(self):
        """A token naming only ``w`` still carries ``w``'s causal past:
        ``d`` on shard 1, which ``w`` names in its ``cross_deps``.  The
        importer's next write to shard 1 must follow ``d`` in-group, or a
        member could deliver it before the write it causally follows."""
        import json

        from repro.shard.router import TOKEN_VERSION

        cluster = quiet_cluster()
        writer = cluster.router.session("writer")
        writer.put(key_for(cluster, 1), "d")
        writer.put(key_for(cluster, 0), "w")
        cluster.drain()
        (d,), (w,) = writer.frontier[1], writer.frontier[0]
        assert cluster.ledger.ops[w].cross_deps == {d}
        token = json.dumps({
            "v": TOKEN_VERSION,
            "session": "writer",
            "frontier": {"0": [[w.sender, w.seqno]]},
        })
        heir = cluster.router.session("heir")
        assert heir.import_token(token) == frozenset()
        heir.put(key_for(cluster, 1, salt=1), "after")
        cluster.drain()
        record = cluster.ledger.ops[cluster.ledger.issue_order[-1]]
        assert record.shard == 1 and d in record.deps

    def test_unknown_version_rejected(self):
        import json

        import pytest

        from repro.errors import ProtocolError

        cluster = quiet_cluster()
        session = cluster.router.session("s")
        self.fill(cluster, session)
        document = json.loads(session.export_token())
        document["v"] = 99
        with pytest.raises(ProtocolError, match="version"):
            cluster.router.session("t").import_token(json.dumps(document))

    def test_malformed_tokens_rejected(self):
        import pytest

        from repro.errors import ProtocolError

        session = quiet_cluster().router.session("s")
        for bad in ("{not json", '"a string"', '{"v":1}',
                    '{"v":1,"frontier":{"0":[["a"]]}}'):
            with pytest.raises(ProtocolError):
                session.import_token(bad)

    def test_unknown_shard_rejected(self):
        import pytest

        from repro.errors import ProtocolError

        cluster = quiet_cluster(shards=2)
        session = cluster.router.session("s")
        with pytest.raises(ProtocolError, match="unknown shard"):
            session.import_token(
                '{"v":1,"session":"s","frontier":{"7":[["s7n0",1]]}}'
            )

    def test_label_filed_under_the_wrong_shard_is_refused(self):
        """A forged or corrupted token; merged, the session's next put
        would name a foreign label in its ``Occurs-After`` and raise out
        of ``pump`` on every retry."""
        import pytest

        from repro.errors import ProtocolError

        cluster = quiet_cluster()
        writer = cluster.router.session("w")
        writer.put(key_for(cluster, 0), "on-0")
        writer.put(key_for(cluster, 1), "on-1")
        cluster.drain()
        on_0, on_1 = cluster.ledger.issue_order
        token = (
            '{"v":1,"session":"f","frontier":{'
            f'"0":[["{on_0.sender}",{on_0.seqno}],'
            f'["{on_1.sender}",{on_1.seqno}]]}}}}'
        )
        forged = cluster.router.session("f")
        with pytest.raises(
            ProtocolError, match=f"{on_1} under shard 0.*belongs to shard 1"
        ):
            forged.import_token(token)
        assert forged.frontier == {}  # the rightly filed label neither
        forged.put(key_for(cluster, 0), "still works")
        cluster.drain()
        assert cluster.check_invariants() == []

    def test_a_label_must_be_a_string_and_an_int(self):
        """JSON's ``0.0`` and ``true`` equal the seqnos 0 and 1; merged,
        they would be re-exported as they came in every reply token."""
        import pytest

        from repro.errors import ProtocolError

        cluster = quiet_cluster()
        writer = cluster.router.session("w")
        writer.put(key_for(cluster, 0), "v0")
        writer.put(key_for(cluster, 0, salt=1), "v1")
        cluster.drain()
        first, second = cluster.ledger.issue_order
        assert (first.seqno, second.seqno) == (0, 1)
        for pair in (
            f'["{first.sender}", 0.0]', f'["{second.sender}", true]',
            f'["{first.sender}", "0"]', "[7, 0]",
        ):
            session = cluster.router.session("s")
            with pytest.raises(ProtocolError, match="bad label"):
                session.import_token(
                    '{"v":1,"session":"s","frontier":{"0":[' + pair + "]}}"
                )
            assert session.frontier == {}

    def test_unknown_labels_dropped_and_reported(self):
        cluster = quiet_cluster()
        session = cluster.router.session("s")
        key = key_for(cluster, 0)
        session.put(key, "v")
        cluster.drain()
        known = cluster.ledger.issue_order[0]
        from repro.types import MessageId

        ghost = MessageId("never-issued", 42)
        token = (
            '{"v":1,"session":"s","frontier":{"0":'
            f'[["{known.sender}",{known.seqno}],'
            f'["{ghost.sender}",{ghost.seqno}]]}}}}'
        )
        fresh = cluster.router.session("fresh")
        dropped = fresh.import_token(token)
        assert dropped == frozenset({ghost})
        assert fresh.frontier[0] == frozenset({known})

    def test_import_merges_with_existing_frontier(self):
        cluster = quiet_cluster()
        key = key_for(cluster, 0)
        old = cluster.router.session("old")
        old.put(key, "v1")
        cluster.drain()
        token = old.export_token()
        merged = cluster.router.session("merged")
        merged.put(key, "v2")  # occurs-after v1? no — independent session
        cluster.drain()
        merged.import_token(token)
        # Both writes are concurrent maximal elements of the frontier.
        assert merged.frontier[0] == frozenset(cluster.ledger.issue_order[:2])
