"""Simulated network substrate: latency models, faults, transport."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "faults": ("RELIABLE", "FaultPlan"),
    "latency": (
        "ConstantLatency",
        "LatencyModel",
        "LognormalLatency",
        "PerPairLatency",
        "UniformLatency",
    ),
    "network": ("Network",),
})

__all__ = [
    "RELIABLE",
    "ConstantLatency",
    "FaultPlan",
    "LatencyModel",
    "LognormalLatency",
    "Network",
    "PerPairLatency",
    "UniformLatency",
]
