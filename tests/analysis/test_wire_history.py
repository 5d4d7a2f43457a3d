"""The black-box CC/CCv/CM checker: clean histories pass, bad ones don't.

Histories here are hand-built client observations — no simulator, no
server.  The mutation suite is the auditor's own acceptance test: a
checker that cannot convict a corrupted history proves nothing when it
acquits a real one.
"""

from __future__ import annotations

import pytest

from repro.analysis.wire_history import (
    WireHistory,
    WireRecorder,
    check_wire_history,
    corrupt_lost_put,
    corrupt_reorder_session,
    corrupt_stale_read,
)


def history(**sessions):
    """history(a=[("put","x",1), ("get","x",1)], b=[...])."""
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


def patterns(h, levels=("CC", "CCv", "CM")):
    return {v.pattern for v in check_wire_history(h, levels)}


class TestCleanHistories:
    def test_empty_and_trivial(self):
        assert check_wire_history(history()) == []
        assert check_wire_history(history(a=[("put", "x", 1)])) == []

    def test_read_your_writes(self):
        h = history(a=[
            ("put", "x", 1), ("get", "x", 1),
            ("put", "x", 2), ("get", "x", 2),
        ])
        assert check_wire_history(h) == []

    def test_cross_session_observation(self):
        h = history(
            a=[("put", "x", 1), ("put", "y", 2)],
            b=[("get", "y", 2), ("get", "x", 1)],
        )
        assert check_wire_history(h) == []

    def test_concurrent_writes_read_differently_is_cc(self):
        # a and b each read their own write first — fine under CC and CM
        # (no convergence requirement between the two orders is violated
        # because neither session reads both orders).
        h = history(
            a=[("put", "x", 1), ("get", "x", 1)],
            b=[("put", "x", 2), ("get", "x", 2)],
        )
        assert check_wire_history(h) == []

    def test_missing_key_read_is_fine(self):
        h = history(a=[("get", "nope", None), ("put", "x", 1)])
        assert check_wire_history(h) == []

    def test_barrier_read_block(self):
        h = history(a=[
            ("put", "x", 1), ("put", "y", 2),
            ("read", {"x": 1, "y": 2}),
        ])
        assert check_wire_history(h) == []


class TestBadPatterns:
    def test_thin_air_read(self):
        h = history(a=[("get", "x", "never-written")])
        assert patterns(h) == {"thin-air-read"}

    def test_write_co_init_read_is_lost_update(self):
        h = history(a=[("put", "x", 1), ("get", "x", None)])
        assert "write-co-init-read" in patterns(h)

    def test_write_co_read_is_stale_read(self):
        h = history(a=[
            ("put", "x", 1), ("put", "x", 2), ("get", "x", 1),
        ])
        assert "write-co-read" in patterns(h)

    def test_stale_read_before_a_later_write_of_the_key(self):
        # The overwrite (x=2) is not the key's last write: x=3 follows
        # the read, outside its causal past.
        h = history(a=[
            ("put", "x", 1), ("put", "x", 2), ("get", "x", 1),
            ("put", "x", 3),
        ])
        assert "write-co-read" in patterns(h, levels=("CC",))

    def test_initial_value_read_before_a_later_write_of_the_key(self):
        # The write in the read's past (x=1) is not the key's last.
        h = history(a=[
            ("put", "x", 1), ("get", "x", None), ("put", "x", 2),
        ])
        assert "write-co-init-read" in patterns(h, levels=("CC",))

    def test_stale_read_across_sessions(self):
        # b observes x=2 (which causally follows x=1) then reads x=1.
        h = history(
            a=[("put", "x", 1), ("put", "x", 2)],
            b=[("get", "x", 2), ("get", "x", 1)],
        )
        assert "write-co-read" in patterns(h)

    def test_undifferentiated_history_is_reported(self):
        h = history(a=[("put", "x", 1)], b=[("put", "x", 1)])
        assert "undifferentiated" in patterns(h)

    @pytest.mark.parametrize("sessions", [
        # Classic convergence anomaly: two sessions disagree on the
        # final order of concurrent writes they both observed.
        dict(
            a=[("put", "x", 1)],
            b=[("put", "x", 2)],
            c=[("get", "x", 1), ("get", "x", 2)],
            d=[("get", "x", 2), ("get", "x", 1)],
        ),
        # "Causal order first, then a total order on MessageId" does not
        # converge.  w1 -> w2, w3 concurrent with both, ids w1 > w3 > w2:
        # a member holding {w1, w3} serves w1 (the larger id); one holding
        # all three has causally maximal {w2, w3} and serves w3.  S reads
        # at the second member, then the first; T reads x=2 before w3
        # arrives, then x=3.
        dict(
            a=[("put", "x", 1), ("put", "x", 2)],
            b=[("put", "x", 3)],
            s=[("get", "x", 3), ("get", "x", 1)],
            t=[("get", "x", 2), ("get", "x", 3)],
        ),
        # Two writers, and the key is written again after the reads
        # that order them: neither `cf` edge is on the key's last write.
        dict(
            a=[("put", "x", 1)],
            b=[("put", "x", 2)],
            c=[("get", "x", 1), ("get", "x", 2)],
            d=[("get", "x", 2), ("get", "x", 1), ("put", "x", 3)],
        ),
    ], ids=["two-writers", "causal-then-id", "cf-below-a-later-write"])
    def test_cyclic_cf_needs_ccv(self, sessions):
        h = history(**sessions)
        assert patterns(h, levels=("CC",)) == set()
        assert patterns(h) == {"cyclic-cf"}

    def test_write_hb_init_read_needs_cm(self):
        # From arXiv:1611.00580 (Fig. 4 shape): o's session first reads
        # x=1, then y=1; the write of y=1 is po-after a second write of
        # x... build the standard CM-only anomaly:
        #   a: put x 1, put y 1
        #   b: get y 1, put x 2
        #   c: get x 2, get x 1
        # c's second read returns a value overwritten in hb_c (via b's
        # read of y folding a's po edge into hb), though not in co.
        h = history(
            a=[("put", "x", 1), ("put", "y", 1)],
            b=[("get", "y", 1), ("put", "x", 2)],
            c=[("get", "x", 2), ("get", "x", 1)],
        )
        assert "write-co-read" in patterns(h) or "cyclic-hb" in patterns(h)

    def test_write_hb_init_read_is_judged_over_the_causal_past(self):
        # y=1 ->po x=1 ->hb x=2 ->po b's get y: c read x=1 then x=2, so
        # every convergent order puts x=1 first.  c's put z=1, read by
        # b, brings c's reads into the causal past of b's final op.
        h = history(
            a=[("put", "y", 1), ("put", "x", 1)],
            b=[("put", "x", 2), ("get", "y", None), ("get", "z", 1)],
            c=[("get", "x", 1), ("get", "x", 2), ("put", "z", 1)],
        )
        assert patterns(h, levels=("CC",)) == set()
        assert patterns(h, levels=("CC", "CCv")) == set()
        assert patterns(h) == {"write-hb-init-read"}

    def test_write_hb_init_read_after_two_closure_rounds(self):
        # Round one orders x=a before x=b (c read both); only then does
        # e's get of y=2 have y=1 happened-before it, which orders y=1
        # before y=2, and z=1 ->po y=1 ->hb y=2 ->wr b's get z.
        h = history(
            a=[("put", "z", 1), ("put", "y", 1), ("put", "x", "a")],
            c=[("get", "x", "a"), ("get", "x", "b"), ("put", "w", 1)],
            d=[("put", "y", 2)],
            e=[("put", "x", "b"), ("get", "y", 2), ("put", "u", 1)],
            b=[("get", "y", 2), ("get", "z", None), ("get", "w", 1),
               ("get", "u", 1)],
        )
        assert patterns(h, levels=("CC", "CCv")) == set()
        assert patterns(h) == {"write-hb-init-read"}

    def test_cyclic_co(self):
        # a reads b's value before b wrote anything b could only write
        # after reading a's — needs hand-built po that contradicts wr.
        h = history(
            a=[("get", "x", 2), ("put", "y", 1)],
            b=[("get", "y", 1), ("put", "x", 2)],
        )
        assert patterns(h) == {"cyclic-co"}


class TestMonotonicSessionAnomalies:
    def test_monotonic_reads_violation_is_caught(self):
        # b sees the newer value then the older one.
        h = history(
            a=[("put", "x", "old"), ("put", "x", "new")],
            b=[("get", "x", "new"), ("get", "x", "old")],
        )
        assert patterns(h) & {"write-co-read", "cyclic-cf"}

    def test_read_your_writes_violation_is_caught(self):
        h = history(a=[("put", "x", "mine"), ("get", "x", None)])
        assert "write-co-init-read" in patterns(h)


class TestMutations:
    """Corrupt a *clean* captured history; the checker must convict."""

    def clean(self):
        h = history(
            alice=[
                ("put", "x", "a1"), ("get", "x", "a1"),
                ("put", "x", "a2"), ("get", "x", "a2"),
                ("put", "y", "a3"), ("read", {"x": "a2", "y": "a3"}),
            ],
            bob=[
                ("put", "z", "b1"),
                ("get", "x", "a2"),
                ("get", "z", "b1"),
            ],
        )
        assert check_wire_history(h) == []
        return h

    def test_reordered_session_is_flagged(self):
        mutated = corrupt_reorder_session(self.clean())
        assert patterns(mutated)

    def test_stale_read_is_flagged(self):
        mutated = corrupt_stale_read(self.clean())
        found = check_wire_history(mutated)
        assert any(v.pattern == "write-co-read" for v in found)

    def test_lost_put_is_flagged(self):
        mutated = corrupt_lost_put(self.clean())
        found = check_wire_history(mutated)
        assert any(
            v.pattern in ("write-co-init-read", "write-hb-init-read")
            for v in found
        )

    def clean_with_later_writes(self):
        """Each session writes its keys again after the reads that
        `corrupt_stale_read` and `corrupt_lost_put` rewrite, so the
        write a rewritten read must see is not its key's last."""
        h = history(
            alice=[
                ("put", "x", "a1"), ("get", "x", "a1"),
                ("put", "x", "a2"), ("get", "x", "a2"),
                ("put", "x", "a3"),
            ],
            bob=[("put", "y", "b1"), ("get", "y", "b1"), ("put", "y", "b2")],
        )
        assert check_wire_history(h) == []
        return h

    def test_stale_read_before_a_later_write_is_flagged(self):
        mutated = corrupt_stale_read(self.clean_with_later_writes())
        assert "write-co-read" in patterns(mutated, levels=("CC",))

    def test_lost_put_before_a_later_write_is_flagged(self):
        mutated = corrupt_lost_put(self.clean_with_later_writes())
        assert "write-co-init-read" in patterns(mutated, levels=("CC",))

    def test_violation_strings_are_informative(self):
        mutated = corrupt_stale_read(self.clean())
        text = str(check_wire_history(mutated)[0])
        assert "write-co-read" in text and "alice" in text


class TestLevels:
    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown consistency"):
            check_wire_history(history(), levels=("CCvv",))

    def test_level_tagging(self):
        h = history(
            a=[("put", "x", 1)],
            b=[("put", "x", 2)],
            c=[("get", "x", 1), ("get", "x", 2)],
            d=[("get", "x", 2), ("get", "x", 1)],
        )
        found = check_wire_history(h)
        assert [v.level for v in found] == ["CCv"]
