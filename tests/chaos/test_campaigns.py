"""Campaign schema validation plus seeded end-to-end chaos properties.

The parametrized campaigns are the PR's headline regression: every
crash-eligible protocol survives seeded crash/partition/loss/churn
scripts with zero safety-invariant violations.  Each campaign is fully
deterministic given (protocol, seed), so a failure here reproduces
exactly under ``python -m repro chaos --protocol X --seed N --seeds 1``.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    CHAOS_PROTOCOLS,
    ChaosCampaign,
    ChaosCluster,
    ChaosEvent,
    random_campaign,
)
from repro.errors import ConfigurationError

MEMBERS = ("n0", "n1", "n2", "n3")


class TestCampaignSchema:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(1.0, "meteor", "n0")

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(-1.0, "send", "n0")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosCampaign("empty", (), duration=0.0)

    def test_random_campaign_is_deterministic(self):
        first = random_campaign(MEMBERS, seed=7)
        second = random_campaign(MEMBERS, seed=7)
        assert first == second
        assert first != random_campaign(MEMBERS, seed=8)

    def test_random_campaign_events_sorted_and_paired(self):
        campaign = random_campaign(MEMBERS, seed=3)
        times = [event.time for event in campaign.events]
        assert times == sorted(times)
        actions = [event.action for event in campaign.events]
        # Every disturbance comes with its recovery action.
        assert actions.count("crash") == actions.count("restart")
        assert actions.count("remove") == actions.count("rejoin")
        assert actions.count("partition") == actions.count("heal")
        assert actions.count("loss") % 2 == 0
        assert actions.count("dup") % 2 == 0

    def test_random_campaign_needs_two_members(self):
        with pytest.raises(ConfigurationError):
            random_campaign(("solo",), seed=1)

    def test_unknown_disturbance_rejected(self):
        with pytest.raises(ConfigurationError):
            random_campaign(MEMBERS, seed=1, disturbances=("gremlins",))


class TestClusterConstruction:
    def test_crash_ineligible_protocols_rejected(self):
        # asend: the token site is a single point of order — a documented
        # exclusion, not an oversight (docs/ROBUSTNESS.md).  The
        # sequencer used to be excluded too; epoch failover made it
        # eligible.
        with pytest.raises(ConfigurationError):
            ChaosCluster(protocol="asend", members=MEMBERS)

    def test_eligibility_derives_from_protocol_markers(self):
        # The matrix is defined at the protocol definition site, not in
        # the harness: every class advertising crash_eligible=True is
        # torturable, every opt-out is rejected with a dedicated error.
        from repro.broadcast import ASendTotalOrder, SequencerTotalOrder
        from repro.chaos.cluster import CHAOS_EXCLUDED
        from repro.group.replica_group import PROTOCOLS

        assert ASendTotalOrder.crash_eligible is False
        assert SequencerTotalOrder.crash_eligible is True
        assert set(CHAOS_PROTOCOLS) == {
            cls.protocol_name
            for cls in PROTOCOLS.values()
            if cls.crash_eligible
        }
        assert set(CHAOS_EXCLUDED) == {
            cls.protocol_name
            for cls in PROTOCOLS.values()
            if not cls.crash_eligible
        }
        assert "sequencer" in CHAOS_PROTOCOLS
        assert "asend" in CHAOS_EXCLUDED

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosCluster(protocol="carrier-pigeon", members=MEMBERS)

    def test_cluster_needs_two_members(self):
        with pytest.raises(ConfigurationError):
            ChaosCluster(protocol="cbcast", members=("solo",))


@pytest.mark.parametrize(
    "seed,protocol",
    [(seed, protocol) for seed in (1, 2) for protocol in sorted(CHAOS_PROTOCOLS)]
    # A restarted RST sender whose stamps forgot its pre-crash sends:
    # receivers delivered its new sends ahead of its old ones.
    + [(25, "rst"), (29, "rst")],
)
class TestSeededCampaigns:
    def test_campaign_has_zero_violations(self, protocol, seed):
        cluster = ChaosCluster(protocol=protocol, members=MEMBERS, seed=seed)
        campaign = random_campaign(MEMBERS, seed=seed)
        result = cluster.run_campaign(campaign)
        assert result.ok, "\n".join(
            [result.summary()] + [str(v) for v in result.violations]
        )
        # The campaign exercised something: data flowed and faults fired.
        assert result.data_messages > 0
        assert result.crashes + result.restarts > 0
