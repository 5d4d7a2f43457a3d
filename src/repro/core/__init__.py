"""The paper's core model: activities, stable points, replicas, protocols."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "access_protocol": (
        "CausalSystem",
        "DataAccessSystem",
        "StablePointSystem",
        "TotalOrderSystem",
    ),
    "activity": ("CausalActivity",),
    "commutativity": ("CommutativitySpec", "counter_spec", "registry_spec"),
    "frontend": ("FrontEndManager",),
    "replica": ("Replica",),
    "stable_points": ("StablePoint", "StablePointDetector"),
    "state_transfer": (
        "Snapshot",
        "bootstrap_joiner",
        "install_snapshot",
        "replayable_envelopes",
        "take_snapshot",
    ),
    "state_machine": ("StateMachine", "counter_machine", "registry_machine"),
})

__all__ = [
    "CausalActivity",
    "CausalSystem",
    "CommutativitySpec",
    "DataAccessSystem",
    "FrontEndManager",
    "Replica",
    "Snapshot",
    "StablePoint",
    "StablePointDetector",
    "StablePointSystem",
    "StateMachine",
    "TotalOrderSystem",
    "bootstrap_joiner",
    "counter_machine",
    "counter_spec",
    "install_snapshot",
    "registry_machine",
    "registry_spec",
    "replayable_envelopes",
    "take_snapshot",
]
