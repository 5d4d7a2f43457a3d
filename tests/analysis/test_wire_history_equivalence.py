"""The topological checker ≡ the Warshall reference, verdict for verdict.

``repro.analysis.wire_history`` computes each op's causal past in one
topological pass and reads every bad pattern off it.  The reference
beside these tests (``wire_history_reference.py``) closes the same
relations with Warshall's algorithm and an explicit ``co`` pair list.
On random differentiated histories — up to five sessions over up to
three keys, barrier-read blocks, gets of any value ever written to
their key or of the initial one — and on every hand-built bad pattern,
both must report the same violations at each level: the same patterns,
as often, with the same detail strings.  A cycle's report names the
first four ops (by id) that lie on a cycle, in both.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.wire_history import (
    WireHistory,
    WireRecorder,
    check_wire_history,
    corrupt_lost_put,
    corrupt_reorder_session,
    corrupt_stale_read,
)
from tests.analysis import wire_history_reference as reference

LEVEL_SETS = (("CC",), ("CC", "CCv"), ("CC", "CCv", "CM"))


def history(**sessions) -> WireHistory:
    """history(a=[("put","x",1), ("get","x",1), ("read",{...})], ...)."""
    recorders = []
    for name, ops in sessions.items():
        recorder = WireRecorder(name)
        for op in ops:
            if op[0] == "put":
                recorder.put(op[1], op[2])
            elif op[0] == "get":
                recorder.get(op[1], op[2])
            else:
                recorder.read(op[1])
        recorders.append(recorder)
    return WireHistory.merge(recorders)


def assert_same_verdicts(h: WireHistory) -> None:
    for levels in LEVEL_SETS:
        found = Counter(
            (v.pattern, v.detail) for v in check_wire_history(h, levels)
        )
        expected = Counter(
            (v.pattern, v.detail)
            for v in reference.check_wire_history(h, levels)
        )
        assert found == expected, levels


@st.composite
def histories(draw) -> WireHistory:
    keys = ("x", "y", "z")[: draw(st.integers(1, 3))]
    key = st.sampled_from(keys)
    shape = draw(st.lists(
        st.lists(
            st.one_of(
                st.tuples(st.just("put"), key),
                st.tuples(st.just("get"), key),
                st.tuples(st.just("read"), st.sets(key, min_size=1)),
            ),
            max_size=6,
        ),
        min_size=1, max_size=5,
    ))
    written = {k: [None] for k in keys}
    for s, ops in enumerate(shape):
        for i, (kind, arg) in enumerate(ops):
            if kind == "put":
                written[arg].append(f"{s}.{i}")
    sessions = {}
    for s, ops in enumerate(shape):
        observed = []
        for i, (kind, arg) in enumerate(ops):
            if kind == "put":
                observed.append(("put", arg, f"{s}.{i}"))
            elif kind == "get":
                observed.append(("get", arg, draw(st.sampled_from(written[arg]))))
            else:
                observed.append(("read", {
                    k: draw(st.sampled_from(written[k])) for k in sorted(arg)
                }))
        sessions[f"s{s}"] = observed
    return history(**sessions)


@settings(max_examples=600, deadline=None)
@given(histories())
def test_random_histories_match_the_reference(h):
    assert_same_verdicts(h)


def _clean() -> WireHistory:
    return history(
        alice=[
            ("put", "x", "a1"), ("get", "x", "a1"),
            ("put", "x", "a2"), ("get", "x", "a2"),
            ("put", "y", "a3"), ("read", {"x": "a2", "y": "a3"}),
        ],
        bob=[("put", "z", "b1"), ("get", "x", "a2"), ("get", "z", "b1")],
    )


def _clean_with_later_writes() -> WireHistory:
    return history(
        alice=[
            ("put", "x", "a1"), ("get", "x", "a1"),
            ("put", "x", "a2"), ("get", "x", "a2"), ("put", "x", "a3"),
        ],
        bob=[("put", "y", "b1"), ("get", "y", "b1"), ("put", "y", "b2")],
    )


#: Every bad pattern ``test_wire_history.py`` builds by hand.
HAND_BUILT = {
    "thin-air-read": lambda: history(a=[("get", "x", "never-written")]),
    "write-co-init-read": lambda: history(
        a=[("put", "x", 1), ("get", "x", None)]),
    "write-co-read": lambda: history(
        a=[("put", "x", 1), ("put", "x", 2), ("get", "x", 1)]),
    "stale-before-a-later-write": lambda: history(a=[
        ("put", "x", 1), ("put", "x", 2), ("get", "x", 1), ("put", "x", 3),
    ]),
    "init-before-a-later-write": lambda: history(
        a=[("put", "x", 1), ("get", "x", None), ("put", "x", 2)]),
    "stale-across-sessions": lambda: history(
        a=[("put", "x", 1), ("put", "x", 2)],
        b=[("get", "x", 2), ("get", "x", 1)],
    ),
    "undifferentiated": lambda: history(
        a=[("put", "x", 1)], b=[("put", "x", 1)]),
    "cyclic-cf-two-writers": lambda: history(
        a=[("put", "x", 1)],
        b=[("put", "x", 2)],
        c=[("get", "x", 1), ("get", "x", 2)],
        d=[("get", "x", 2), ("get", "x", 1)],
    ),
    "cyclic-cf-causal-then-id": lambda: history(
        a=[("put", "x", 1), ("put", "x", 2)],
        b=[("put", "x", 3)],
        s=[("get", "x", 3), ("get", "x", 1)],
        t=[("get", "x", 2), ("get", "x", 3)],
    ),
    "cyclic-cf-below-a-later-write": lambda: history(
        a=[("put", "x", 1)],
        b=[("put", "x", 2)],
        c=[("get", "x", 1), ("get", "x", 2)],
        d=[("get", "x", 2), ("get", "x", 1), ("put", "x", 3)],
    ),
    "cm-fig-4-shape": lambda: history(
        a=[("put", "x", 1), ("put", "y", 1)],
        b=[("get", "y", 1), ("put", "x", 2)],
        c=[("get", "x", 2), ("get", "x", 1)],
    ),
    "write-hb-init-read": lambda: history(
        a=[("put", "y", 1), ("put", "x", 1)],
        b=[("put", "x", 2), ("get", "y", None), ("get", "z", 1)],
        c=[("get", "x", 1), ("get", "x", 2), ("put", "z", 1)],
    ),
    "write-hb-init-read-two-rounds": lambda: history(
        a=[("put", "z", 1), ("put", "y", 1), ("put", "x", "a")],
        c=[("get", "x", "a"), ("get", "x", "b"), ("put", "w", 1)],
        d=[("put", "y", 2)],
        e=[("put", "x", "b"), ("get", "y", 2), ("put", "u", 1)],
        b=[("get", "y", 2), ("get", "z", None), ("get", "w", 1),
           ("get", "u", 1)],
    ),
    "cyclic-co": lambda: history(
        a=[("get", "x", 2), ("put", "y", 1)],
        b=[("get", "y", 1), ("put", "x", 2)],
    ),
    "monotonic-reads": lambda: history(
        a=[("put", "x", "old"), ("put", "x", "new")],
        b=[("get", "x", "new"), ("get", "x", "old")],
    ),
    "read-your-writes": lambda: history(
        a=[("put", "x", "mine"), ("get", "x", None)]),
    "reordered-session": lambda: corrupt_reorder_session(_clean()),
    "stale-read": lambda: corrupt_stale_read(_clean()),
    "lost-put": lambda: corrupt_lost_put(_clean()),
    "stale-read-before-a-later-write": lambda: corrupt_stale_read(
        _clean_with_later_writes()),
    "lost-put-before-a-later-write": lambda: corrupt_lost_put(
        _clean_with_later_writes()),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_bad_patterns_match_the_reference(name):
    h = HAND_BUILT[name]()
    assert check_wire_history(h), "a hand-built bad pattern must convict"
    assert_same_verdicts(h)


def test_a_synthetic_history_is_clean_and_judged_fast():
    """Half puts over 8 sessions and 16 keys, read from lagging prefixes
    of one write order: clean at every level.  The reference takes
    seconds on it; a checker that went back to closures fails the bound."""
    h = reference.synthetic_history(2000)
    started = time.perf_counter()
    found = check_wire_history(h)
    took = time.perf_counter() - started
    assert found == []
    assert took < 1.5, f"2 000 ops judged in {took:.2f} s"
    small = reference.synthetic_history(300, seed=3)
    assert_same_verdicts(small)
