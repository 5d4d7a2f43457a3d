"""Chaos campaigns: crash-stop fault injection with always-on invariants.

The paper assumes a substrate that keeps delivering causally consistent
messages across member failures and regroupings; this package tests that
assumption end-to-end.  :class:`ChaosCluster` is a
:class:`~repro.group.replica_group.ReplicaGroup` (every ordering
protocol wired with its recovery, garbage-collection and view-sync
sidecars) plus per-send ground truth and the campaign runner;
:class:`ChaosCampaign` scripts timed crashes, restarts,
partitions, loss phases and membership churn; and the
:class:`~repro.analysis.invariants.InvariantMonitor` audits safety after
every run.  See ``docs/ROBUSTNESS.md`` for the fault model and the
campaign rules under which liveness is guaranteed.
"""

from repro.chaos.campaign import (
    DISTURBANCES,
    ChaosCampaign,
    ChaosEvent,
    random_campaign,
)
from repro.chaos.cluster import (
    CHAOS_PROTOCOLS,
    CampaignResult,
    ChaosCluster,
)

#: Lazily re-exported from :mod:`repro.chaos.wire` — importing it
#: eagerly here would close an import cycle (wire -> serve.server ->
#: shard -> chaos.campaign -> this package).
_WIRE_EXPORTS = (
    "WIRE_CAMPAIGNS",
    "WireCampaignResult",
    "run_wire_campaign",
    "run_wire_campaigns",
)


def __getattr__(name):
    if name in _WIRE_EXPORTS:
        from repro.chaos import wire

        return getattr(wire, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CHAOS_PROTOCOLS",
    "CampaignResult",
    "ChaosCampaign",
    "ChaosCluster",
    "ChaosEvent",
    "DISTURBANCES",
    "WIRE_CAMPAIGNS",
    "WireCampaignResult",
    "random_campaign",
    "run_wire_campaign",
    "run_wire_campaigns",
]
