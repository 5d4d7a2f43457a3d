"""The view-synchrony audit on the records a view change keeps: cuts.

An :class:`~repro.group.view_sync.InstallRecord` holds the member's
settled set and the FLUSH_OK digests' union as
:class:`~repro.broadcast.cut.Cut` values.  The monitor compares them as
cuts first and enumerates labels only when the snapshot misses some, so
a record that misses only non-data labels (a control stream's) is clean,
and one that misses data labels reports exactly those.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.analysis.invariants import InvariantMonitor
from repro.broadcast.cut import Cut
from repro.group.view_sync import InstallRecord, ViewChange
from repro.types import MessageId

A0, A1, B0, C0 = (
    MessageId("a", 0), MessageId("a", 1), MessageId("b", 0), MessageId("c", 0)
)
DATA = {A0, A1, B0}


def violations(snapshot: Cut, digest_union: Cut):
    record = InstallRecord(
        view_id=1,
        change=ViewChange("leave", "c", old_view_id=0),
        snapshot=snapshot,
        digest_union=digest_union,
        incarnation=0,
        time=1.0,
    )
    agent = SimpleNamespace(install_history=[record])
    monitor = InvariantMonitor({}, data_labels=DATA, view_syncs={"a": agent})
    return monitor.check_view_synchrony()


def test_a_covered_digest_cut_passes():
    assert violations(Cut({"a": 2, "b": 1}), Cut({"a": 2}, [B0])) == []


def test_a_cut_missing_only_a_non_data_label_passes():
    assert violations(Cut({"a": 2, "b": 1}), Cut({"a": 2, "b": 1, "c": 1})) == []


def test_a_cut_missing_data_labels_reports_exactly_those():
    (violation,) = violations(Cut({"a": 1}), Cut({"a": 2, "b": 1}, [C0]))
    assert violation.invariant == "view-synchrony"
    assert violation.detail == (
        f"view 1 installed without settling 2 digest label(s), e.g. {[A1, B0]}"
    )
