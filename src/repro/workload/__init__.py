"""Workload generators and drivers."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "exploration": (
        "ExplorationReport",
        "explore_orderings",
        "ordering_diversity_ratio",
    ),
    "generators": (
        "ScheduledRequest",
        "WorkloadDriver",
        "cycle_schedule",
        "mixed_schedule",
        "poisson_arrivals",
        "sharded_schedule",
        "uniform_arrivals",
    ),
})

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
