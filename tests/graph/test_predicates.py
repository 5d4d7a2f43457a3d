"""Tests for Occurs-After predicates."""

from __future__ import annotations

import pytest

from repro.graph.predicates import OccursAfter
from repro.types import MessageId


def mid(sender: str, seqno: int) -> MessageId:
    return MessageId(sender, seqno)


class TestConstruction:
    def test_null_predicate(self):
        predicate = OccursAfter.null()
        assert predicate.is_null
        assert len(predicate) == 0

    def test_after_none_is_null(self):
        assert OccursAfter.after(None).is_null

    def test_after_single_label(self):
        predicate = OccursAfter.after(mid("a", 0))
        assert predicate.ancestors == frozenset({mid("a", 0)})

    def test_after_iterable(self):
        labels = [mid("a", 0), mid("b", 1)]
        predicate = OccursAfter.after(labels)
        assert predicate.ancestors == frozenset(labels)

    def test_after_deduplicates(self):
        predicate = OccursAfter.after([mid("a", 0), mid("a", 0)])
        assert len(predicate) == 1

    def test_a_plain_pair_is_refused_not_read_as_two_labels(self):
        # It used to become OccursAfter(1 ∧ a): a predicate no delivery
        # can ever satisfy, so the message would be held back forever.
        with pytest.raises(TypeError, match="MessageId"):
            OccursAfter.after(("a", 1))
        with pytest.raises(TypeError, match="MessageId"):
            OccursAfter.after([mid("a", 0), ("b", 1)])


class TestSatisfaction:
    def test_null_always_satisfied(self):
        assert OccursAfter.null().satisfied_by(set())

    def test_satisfied_when_all_ancestors_delivered(self):
        predicate = OccursAfter.after([mid("a", 0), mid("b", 0)])
        delivered = {mid("a", 0), mid("b", 0), mid("c", 5)}
        assert predicate.satisfied_by(delivered)

    def test_and_dependency_blocks_on_any_missing(self):
        predicate = OccursAfter.after([mid("a", 0), mid("b", 0)])
        assert not predicate.satisfied_by({mid("a", 0)})

    def test_missing_reports_blockers(self):
        predicate = OccursAfter.after([mid("a", 0), mid("b", 0)])
        assert predicate.missing({mid("a", 0)}) == frozenset({mid("b", 0)})

    def test_missing_empty_when_satisfied(self):
        predicate = OccursAfter.after(mid("a", 0))
        assert predicate.missing({mid("a", 0)}) == frozenset()

    def test_predicates_are_value_objects(self):
        assert OccursAfter.after(mid("a", 0)) == OccursAfter.after(mid("a", 0))
        assert hash(OccursAfter.null()) == hash(OccursAfter.after(None))
