"""Unit tests for the invariant monitor, against hand-built fake stacks."""

from __future__ import annotations

from repro.analysis.invariants import InvariantMonitor, Violation
from repro.group.view_sync import InstallRecord, ViewChange
from repro.types import Envelope, Message, MessageId


def mid(sender: str, seqno: int) -> MessageId:
    return MessageId(sender, seqno)


def env(label: MessageId) -> Envelope:
    return Envelope(Message(label, "app", None))


class FakeView:
    def __init__(self, members, view_id: int = 0):
        self.members = tuple(members)
        self.view_id = view_id


class FakeGroup:
    def __init__(self, members):
        self.view = FakeView(members)


class FakeStack:
    """Just enough surface for the monitor's incarnation plumbing."""

    def __init__(
        self,
        delivered=(),
        skipped=(),
        archive=(),
        holdback=(),
        members=("a", "b"),
    ):
        self.incarnation_archive = [
            ([env(l) for l in labels], frozenset(skip))
            for labels, skip in archive
        ]
        self.incarnation = len(self.incarnation_archive)
        self._delivered_envelopes = [env(l) for l in delivered]
        self.skipped_stable = frozenset(skipped)
        self.holdback_envelopes = [env(l) for l in holdback]
        self.group = FakeGroup(members)


class FakeTracker:
    def __init__(self, applied_frontier):
        self.applied_frontier = applied_frontier


class FakeViewSync:
    def __init__(self, install_history):
        self.install_history = install_history


A0, A1, B0 = mid("a", 0), mid("a", 1), mid("b", 0)
DATA = {A0, A1, B0}


class TestDuplicateDeliveries:
    def test_duplicate_within_incarnation_flagged(self):
        monitor = InvariantMonitor(
            {"a": FakeStack(delivered=[A0, A0])}, data_labels=DATA
        )
        violations = monitor.check_duplicate_deliveries()
        assert [v.invariant for v in violations] == ["duplicate-delivery"]
        assert violations[0].member == "a"

    def test_redelivery_across_incarnations_allowed(self):
        # An amnesiac rejoiner may legitimately re-deliver wiped history.
        stack = FakeStack(
            delivered=[A0], archive=[([A0], frozenset())]
        )
        monitor = InvariantMonitor({"a": stack}, data_labels=DATA)
        assert monitor.check_duplicate_deliveries() == []


class TestCausalOrder:
    def test_missing_dependency_flagged(self):
        monitor = InvariantMonitor(
            {"m": FakeStack(delivered=[A1])},
            dependencies={A1: frozenset({A0})},
        )
        violations = monitor.check_causal_order()
        assert len(violations) == 1
        assert "without its dependency" in violations[0].detail

    def test_misordered_dependency_flagged(self):
        monitor = InvariantMonitor(
            {"m": FakeStack(delivered=[A1, A0])},
            dependencies={A1: frozenset({A0})},
            data_labels=DATA,
        )
        violations = monitor.check_causal_order()
        assert len(violations) == 1
        assert "before its dependency" in violations[0].detail

    def test_ordered_dependency_passes(self):
        monitor = InvariantMonitor(
            {"m": FakeStack(delivered=[A0, A1])},
            dependencies={A1: frozenset({A0})},
            data_labels=DATA,
        )
        assert monitor.check_causal_order() == []

    def test_skipped_dependency_counts_as_settled(self):
        monitor = InvariantMonitor(
            {"m": FakeStack(delivered=[A1], skipped={A0})},
            dependencies={A1: frozenset({A0})},
        )
        assert monitor.check_causal_order() == []

    def test_audience_restricts_enforcement(self):
        # RST: a dependency broadcast while `m` was out of the view is
        # never ordered with respect to `m`, so it is not enforced there.
        stacks = {"m": FakeStack(delivered=[A1])}
        deps = {A1: frozenset({A0})}
        lenient = InvariantMonitor(
            stacks, dependencies=deps, audience={A0: frozenset({"n"})}
        )
        assert lenient.check_causal_order() == []
        strict = InvariantMonitor(
            stacks, dependencies=deps, audience={A0: frozenset({"m", "n"})}
        )
        assert len(strict.check_causal_order()) == 1


class TestViewSynchrony:
    @staticmethod
    def record(snapshot, digest_union):
        return InstallRecord(
            view_id=1,
            change=ViewChange("leave", "c", old_view_id=0),
            snapshot=frozenset(snapshot),
            digest_union=frozenset(digest_union),
            incarnation=0,
            time=1.0,
        )

    def test_unsettled_digest_label_flagged(self):
        agent = FakeViewSync([self.record(snapshot={A0}, digest_union={A0, B0})])
        monitor = InvariantMonitor(
            {"a": FakeStack()}, data_labels=DATA, view_syncs={"a": agent}
        )
        violations = monitor.check_view_synchrony()
        assert [v.invariant for v in violations] == ["view-synchrony"]

    def test_covered_digest_passes(self):
        agent = FakeViewSync([self.record(snapshot={A0, B0}, digest_union={A0})])
        monitor = InvariantMonitor(
            {"a": FakeStack()}, data_labels=DATA, view_syncs={"a": agent}
        )
        assert monitor.check_view_synchrony() == []


class TestGcSafety:
    def test_compaction_beyond_a_members_settled_set_flagged(self):
        stacks = {
            "a": FakeStack(delivered=[A0, A1]),
            "b": FakeStack(delivered=[A0]),  # never settled a:1
        }
        monitor = InvariantMonitor(
            stacks,
            data_labels=DATA,
            trackers={"a": FakeTracker({"a": 2})},
        )
        violations = monitor.check_gc_safety()
        assert [v.invariant for v in violations] == ["gc-safety"]
        assert "never settled" in violations[0].detail

    def test_skip_counts_toward_gc_safety(self):
        stacks = {
            "a": FakeStack(delivered=[A0, A1]),
            "b": FakeStack(delivered=[A0], skipped={A1}),
        }
        monitor = InvariantMonitor(
            stacks,
            data_labels=DATA,
            trackers={"a": FakeTracker({"a": 2})},
        )
        assert monitor.check_gc_safety() == []


class TestConvergenceAndDrain:
    def test_member_missing_settled_labels_flagged(self):
        stacks = {
            "a": FakeStack(delivered=[A0, B0]),
            "b": FakeStack(delivered=[A0]),
        }
        monitor = InvariantMonitor(stacks, data_labels=DATA)
        violations = monitor.check_convergence()
        assert [(v.invariant, v.member) for v in violations] == [
            ("convergence", "b")
        ]

    def test_held_data_envelope_flagged(self):
        monitor = InvariantMonitor(
            {"a": FakeStack(holdback=[A0])}, data_labels=DATA
        )
        violations = monitor.check_holdback_drained()
        assert [v.invariant for v in violations] == ["holdback-drained"]

    def test_final_view_mismatch_flagged(self):
        monitor = InvariantMonitor(
            {"a": FakeStack(members=("a",))},
            data_labels=DATA,
            expected_members=("a", "b"),
        )
        violations = monitor.check_final_view()
        assert [v.invariant for v in violations] == ["final-view"]


class TestBattery:
    def test_check_all_clean_on_consistent_group(self):
        stacks = {
            "a": FakeStack(delivered=[A0, A1, B0], members=("a", "b")),
            "b": FakeStack(delivered=[A0, A1, B0], members=("a", "b")),
        }
        monitor = InvariantMonitor(
            stacks,
            dependencies={A1: frozenset({A0})},
            data_labels=DATA,
            expected_members=("a", "b"),
        )
        assert monitor.check_all() == []

    def test_violation_formats_with_member(self):
        text = str(Violation("causal-order", "m", "details"))
        assert "causal-order" in text and "'m'" in text
