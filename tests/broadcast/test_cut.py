"""A cut answers what the plain set of its labels answers.

:class:`~repro.broadcast.cut.Cut` keeps a label set as a prefix per
origin plus the labels above it, in a canonical form.  Random prefixes
and above-sets — zero prefixes, labels below, at and past their origin's
prefix among them — are held to the ``frozenset`` of the same labels:
``in``, sorted iteration, ``len``, ``==``, ``<=``, ``>=`` and ``|``,
between two cuts (the O(origins + above) paths) and against plain sets
(the ``collections.abc.Set`` fallbacks).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.cut import Cut
from repro.types import MessageId

ORIGINS = ("a", "b", "c")
SEQNOS = 8
UNIVERSE = [MessageId(o, s) for o in ORIGINS for s in range(SEQNOS + 2)]
NOT_LABELS = ["a", ("a",), ("a", -1), ("a", "0"), ("a", 0, 1), None]

labels = st.builds(
    MessageId, st.sampled_from(ORIGINS), st.integers(0, SEQNOS - 1)
)
cuts = st.tuples(
    st.dictionaries(st.sampled_from(ORIGINS), st.integers(0, SEQNOS // 2)),
    st.sets(labels),
)


def build(case):
    """The cut and the reference set of the same labels."""
    prefix, above = case
    reference = frozenset(above).union(
        MessageId(origin, seqno)
        for origin, top in prefix.items()
        for seqno in range(top)
    )
    return Cut(prefix, above), reference


@settings(max_examples=400, deadline=None)
@given(cuts)
def test_a_cut_holds_its_labels(case):
    cut, reference = build(case)
    for label in UNIVERSE:
        assert (label in cut) == (label in reference), label
    for other in NOT_LABELS:
        assert other not in cut
    assert list(cut) == sorted(reference)
    assert len(cut) == len(reference)
    # The canonical form: no zero prefix, nothing at or below a prefix.
    assert all(top > 0 for top in cut.prefix.values())
    assert all(label[1] > cut.prefix.get(label[0], 0) for label in cut.above)


@settings(max_examples=400, deadline=None)
@given(cuts, cuts)
def test_two_cuts_compare_and_join_as_their_labels(first, second):
    x, rx = build(first)
    y, ry = build(second)
    assert (x == y) == (rx == ry)
    assert ((x.prefix, x.above) == (y.prefix, y.above)) == (rx == ry)
    assert (x != y) == (rx != ry)
    assert (x <= y) == (rx <= ry)
    assert (x >= y) == (rx >= ry)
    assert (x < y) == (rx < ry)
    assert (x > y) == (rx > ry)
    joined = x | y
    assert isinstance(joined, Cut)
    assert joined == rx | ry and frozenset(joined) == rx | ry


@settings(max_examples=400, deadline=None)
@given(cuts, st.sets(labels))
def test_a_cut_against_a_plain_set_falls_back_to_membership(case, plain):
    cut, reference = build(case)
    assert (cut == plain) == (reference == plain)
    assert (plain == cut) == (reference == plain)
    assert (cut <= plain) == (reference <= plain)
    assert (plain <= cut) == (plain <= reference)
    assert (cut >= plain) == (reference >= plain)
    assert (plain >= cut) == (plain >= reference)
    assert cut | plain == reference | plain == plain | cut
    assert cut & plain == reference & plain
    assert cut - plain == reference - plain
    assert isinstance(cut & plain, frozenset)
