"""Chaos-over-the-wire campaigns in tier-1, plus auditor non-vacuousness.

Two small seeded campaigns run end to end (real server, real proxy,
resilient clients, black-box audit), and the captured *real* wire
history is then corrupted with the mutation helpers — the checker must
flag every planted anomaly, proving the campaign-level "zero
violations" verdicts are earned rather than vacuous.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.wire_history import (
    check_wire_history,
    corrupt_lost_put,
    corrupt_reorder_session,
    corrupt_stale_read,
)
from repro.chaos.wire import WIRE_CAMPAIGNS, run_wire_campaign


@pytest.fixture(scope="module")
def overload_result():
    """One seeded overload campaign, shared by every test below."""
    return asyncio.run(run_wire_campaign(
        "overload", 5, clients=3, ops_per_client=14,
    ))


class TestCampaignSmoke:
    def test_overload_campaign_is_clean(self, overload_result):
        result = overload_result
        assert result.ok, result.summary()
        assert result.ops == 42  # every op resolved
        assert result.failed_ops == 0
        assert result.hangs == 0
        assert not result.violations
        assert not result.cm_violations
        assert not result.server_violations
        # The campaign actually bit: the tiny queue shed, clients backed
        # off and replayed.
        assert result.counters.get("overloads", 0) >= 1
        assert result.counters.get("backoffs", 0) >= 1
        assert len(result.history) >= result.ops

    def test_faulted_campaign_is_clean(self):
        result = asyncio.run(run_wire_campaign(
            "truncations", 9, clients=3, ops_per_client=10,
        ))
        assert result.ok, result.summary()
        assert result.hangs == 0
        assert not result.violations

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown wire campaign"):
            asyncio.run(run_wire_campaign("meteors", 1))

    def test_campaign_kinds_are_documented(self):
        assert set(WIRE_CAMPAIGNS) == {
            "disconnects", "stalls", "truncations", "overload",
        }


class TestAuditorIsNotVacuous:
    """Corrupt the *real* captured history; the checker must convict."""

    def test_reordered_session_is_flagged(self, overload_result):
        corrupted = corrupt_reorder_session(overload_result.history)
        violations = check_wire_history(corrupted)
        assert violations
        assert any(v.level == "CC" for v in violations)

    def test_stale_read_is_flagged(self, overload_result):
        corrupted = corrupt_stale_read(overload_result.history)
        violations = check_wire_history(corrupted)
        assert any(
            v.pattern in ("write-co-read", "cyclic-co", "cyclic-cf")
            for v in violations
        )

    def test_lost_put_is_flagged(self, overload_result):
        corrupted = corrupt_lost_put(overload_result.history)
        violations = check_wire_history(corrupted)
        assert any(
            v.pattern in ("write-co-init-read", "write-hb-init-read")
            for v in violations
        )

    def test_pristine_history_stays_clean(self, overload_result):
        assert not check_wire_history(overload_result.history)
