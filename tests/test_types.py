"""Tests for core value types."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.shard.cluster import ShardedCluster
from repro.types import (
    NO_METADATA,
    DeliveryRecord,
    Envelope,
    Message,
    MessageId,
    MessageIdAllocator,
    freeze_ancestors,
    is_hashable,
)


class TestMessageId:
    def test_ordering_is_lexicographic(self):
        assert MessageId("a", 1) < MessageId("a", 2)
        assert MessageId("a", 9) < MessageId("b", 0)

    def test_string_form(self):
        assert str(MessageId("node", 7)) == "node:7"

    def test_hashable_and_equal(self):
        assert MessageId("a", 1) == MessageId("a", 1)
        assert len({MessageId("a", 1), MessageId("a", 1)}) == 1


class TestLabelContract:
    """A label is the tuple ``(sender, seqno)`` for hashing and order,
    and one value, never a collection, for everything else."""

    def test_hash_is_the_pairs_hash(self):
        # Set iteration order, and with it every determinism pin that
        # walks a label set, rests on this hash.
        for label in (MessageId("s1n0", 0), MessageId("a!rec", 12)):
            assert hash(label) == hash((label.sender, label.seqno))

    def test_order_is_lexicographic_on_sender_then_seqno(self):
        labels = [MessageId("b", 0), MessageId("a", 10), MessageId("a", 2)]
        assert sorted(labels) == [
            MessageId("a", 2), MessageId("a", 10), MessageId("b", 0)
        ]
        assert max(labels) == MessageId("b", 0)

    def test_repr_and_str(self):
        label = MessageId("s1n0", 3)
        assert repr(label) == "MessageId(sender='s1n0', seqno=3)"
        assert str(label) == "s1n0:3"
        assert f"{label}" == "s1n0:3"

    def test_accessors_and_immutability(self):
        label = MessageId("a", 4)
        assert (label.sender, label.seqno) == ("a", 4)
        with pytest.raises(AttributeError):
            label.seqno = 5  # type: ignore[misc]
        with pytest.raises(AttributeError):
            label.extra = 1  # type: ignore[attr-defined]

    def test_pickle_and_copy_round_trip(self):
        label = MessageId("s0n2", 7)
        for clone in (
            pickle.loads(pickle.dumps(label)),
            copy.copy(label),
            copy.deepcopy(label),
            copy.deepcopy({label: [label]}).popitem()[0],
        ):
            assert clone == label
            assert type(clone) is MessageId
            assert hash(clone) == hash(label)

    @pytest.mark.parametrize(
        "misuse",
        [frozenset, set, list, tuple, lambda label: [*label]],
        ids=["frozenset", "set", "list", "tuple", "star"],
    )
    def test_a_label_is_not_a_collection(self, misuse):
        with pytest.raises(TypeError):
            misuse(MessageId("s1n0", 0))

    def test_a_label_does_not_unpack(self):
        with pytest.raises(TypeError):
            sender, seqno = MessageId("s1n0", 0)

    def test_label_set_questions_refuse_a_bare_label(self):
        # A plain NamedTuple label answers these as if the label were the
        # set {sender, seqno}: frozenset({0, 's1n0'}), frozenset(), False.
        cluster = ShardedCluster(
            shards=2, members_per_shard=3, hop_events="off"
        )
        issued = []
        cluster.router.session("s").put("k", 1, on_issued=issued.append)
        cluster.drain()
        (label,) = issued
        shard = cluster.ledger.shard_of(label)
        member = next(iter(cluster.groups[shard].stacks))
        assert cluster.covers(shard, member, [label])
        with pytest.raises(TypeError):
            cluster.maximal(label)
        with pytest.raises(TypeError):
            cluster.project(label, shard)
        with pytest.raises(TypeError):
            cluster.covers(shard, member, label)


class TestAllocator:
    def test_sequential_allocation(self):
        allocator = MessageIdAllocator("x")
        assert allocator.next_id() == MessageId("x", 0)
        assert allocator.next_id() == MessageId("x", 1)

    def test_custom_start(self):
        allocator = MessageIdAllocator("x", start=10)
        assert allocator.next_id() == MessageId("x", 10)

    def test_sender_property(self):
        assert MessageIdAllocator("svc").sender == "svc"


class TestMessage:
    def test_sender_shortcut(self):
        message = Message(MessageId("a", 0), "op")
        assert message.sender == "a"

    def test_frozen(self):
        message = Message(MessageId("a", 0), "op")
        try:
            message.operation = "other"  # type: ignore[misc]
            assert False, "should be immutable"
        except AttributeError:
            pass


class TestEnvelope:
    def test_msg_id_shortcut(self):
        envelope = Envelope(Message(MessageId("a", 3), "op"))
        assert envelope.msg_id == MessageId("a", 3)

    def test_with_metadata_merges(self):
        envelope = Envelope(Message(MessageId("a", 0), "op"), {"x": 1})
        extended = envelope.with_metadata(y=2)
        assert extended.metadata == {"x": 1, "y": 2}
        assert envelope.metadata == {"x": 1}  # original untouched

    def test_with_metadata_overrides(self):
        envelope = Envelope(Message(MessageId("a", 0), "op"), {"x": 1})
        assert envelope.with_metadata(x=9).metadata["x"] == 9

    def test_default_metadata_empty(self):
        assert Envelope(Message(MessageId("a", 0), "op")).metadata == {}

    def test_default_metadata_is_one_read_only_mapping(self):
        first = Envelope(Message(MessageId("a", 0), "op"))
        second = Envelope(Message(MessageId("a", 1), "op"))
        assert first.metadata is second.metadata is NO_METADATA
        with pytest.raises(TypeError):
            first.metadata["x"] = 1  # type: ignore[index]

    def test_envelopes_pickle_and_copy(self):
        bare = Envelope(Message(MessageId("a", 0), "op", {"k": 1}))
        stamped = bare.with_metadata(occurs_after=frozenset())
        for envelope in (bare, stamped):
            for clone in (
                pickle.loads(pickle.dumps(envelope)), copy.deepcopy(envelope)
            ):
                assert clone == envelope
                assert type(clone.msg_id) is MessageId
        assert pickle.loads(pickle.dumps(bare)).metadata is NO_METADATA

    def test_occurs_after_is_a_field_that_pickles_and_survives_metadata(self):
        from repro.graph.predicates import OccursAfter

        predicate = OccursAfter.after([MessageId("a", 0), MessageId("b", 2)])
        stamped = Envelope(
            Message(MessageId("a", 1), "op"), occurs_after=predicate
        )
        assert stamped.metadata is NO_METADATA
        assert Envelope(Message(MessageId("a", 1), "op")).occurs_after is None
        both = stamped.with_metadata(epoch=3)
        assert both.occurs_after is predicate and both.metadata == {"epoch": 3}
        for envelope in (stamped, both):
            for clone in (
                pickle.loads(pickle.dumps(envelope)), copy.deepcopy(envelope)
            ):
                assert clone == envelope
                assert clone.occurs_after == predicate
        assert pickle.loads(pickle.dumps(stamped)).metadata is NO_METADATA

    def test_msg_id_and_sender_shortcuts_agree(self):
        envelope = Envelope(Message(MessageId("b", 9), "op"))
        assert envelope.msg_id is envelope.message.msg_id
        assert envelope.message.sender == "b"


class TestHelpers:
    def test_freeze_ancestors_none(self):
        assert freeze_ancestors(None) == frozenset()

    def test_freeze_ancestors_single(self):
        label = MessageId("a", 0)
        assert freeze_ancestors(label) == frozenset({label})

    def test_freeze_ancestors_iterable(self):
        labels = [MessageId("a", 0), MessageId("b", 1)]
        assert freeze_ancestors(labels) == frozenset(labels)

    def test_freeze_ancestors_generator(self):
        result = freeze_ancestors(MessageId("a", i) for i in range(3))
        assert len(result) == 3

    def test_freeze_ancestors_refuses_what_is_not_a_label(self):
        # A plain (sender, seqno) tuple iterates as two "labels".
        for spec in (("a", 1), ["a"], {MessageId("a", 0), ("b", 1)}):
            with pytest.raises(TypeError, match="MessageId"):
                freeze_ancestors(spec)

    def test_freeze_ancestors_returns_a_frozenset_as_itself(self):
        labels = frozenset({MessageId("a", 0), MessageId("b", 1)})
        assert freeze_ancestors(labels) is labels

    def test_is_hashable(self):
        assert is_hashable("text")
        assert is_hashable(MessageId("a", 0))
        assert not is_hashable([])

    def test_delivery_record_fields(self):
        record = DeliveryRecord("a", MessageId("b", 0), 4, 1.5)
        assert record.entity == "a"
        assert record.position == 4
        assert record.time == 1.5
