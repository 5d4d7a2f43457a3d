"""Workload generators and drivers."""

from repro.workload.exploration import (
    ExplorationReport,
    explore_orderings,
    ordering_diversity_ratio,
)
from repro.workload.generators import (
    ScheduledRequest,
    WorkloadDriver,
    cycle_schedule,
    mixed_schedule,
    poisson_arrivals,
    sharded_schedule,
    uniform_arrivals,
)

__all__ = [
    "ExplorationReport",
    "ScheduledRequest",
    "WorkloadDriver",
    "cycle_schedule",
    "explore_orderings",
    "mixed_schedule",
    "ordering_diversity_ratio",
    "poisson_arrivals",
    "sharded_schedule",
    "uniform_arrivals",
]
