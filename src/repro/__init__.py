"""repro — Causal Broadcasting and Consistency of Distributed Shared Data.

A full reproduction of Ravindran & Shah (ICDCS 1994).  The library builds,
from the bottom up:

* a deterministic discrete-event simulator and network (:mod:`repro.sim`,
  :mod:`repro.net`),
* logical clocks and message dependency graphs (:mod:`repro.clocks`,
  :mod:`repro.graph`),
* a family of broadcast protocols sharing one chassis
  (:mod:`repro.broadcast`): unordered, FIFO, vector-clock causal (CBCAST),
  the paper's explicit-graph causal ``OSend``, the paper's epoch-batched
  total-order ``ASend``, plus sequencer and Lamport total-order baselines,
* the paper's core model (:mod:`repro.core`): commutativity specs, causal
  activities, stable points, front-end managers, replicas and assembled
  data-access systems,
* consistency checkers and metrics (:mod:`repro.analysis`), workload
  generators (:mod:`repro.workload`) and the example applications from the
  paper's motivation (:mod:`repro.apps`).

The package re-exports the main names of each layer lazily
(:mod:`repro.lazy`): importing it loads none of its subpackages, and
each name loads the module that defines it on first use.

Quickstart::

    from repro import StablePointSystem, counter_machine, counter_spec

    system = StablePointSystem(
        ["a", "b", "c"], counter_machine, counter_spec(), seed=42
    )
    system.request("a", "inc")
    system.request("b", "dec")
    system.request("a", "rd")      # non-commutative: a sync point
    system.run()
    assert len(set(system.states().values())) == 1
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "broadcast": (
        "ASendTotalOrder",
        "BroadcastProtocol",
        "CbcastBroadcast",
        "FifoBroadcast",
        "LamportTotalOrder",
        "OSendBroadcast",
        "RecoveryAgent",
        "RstBroadcast",
        "SequencerTotalOrder",
        "UnorderedBroadcast",
        "make_group",
        "protect_group",
    ),
    "clocks": ("LamportClock", "MatrixClock", "Timestamp", "VectorClock"),
    "core": (
        "CausalActivity",
        "CausalSystem",
        "CommutativitySpec",
        "DataAccessSystem",
        "FrontEndManager",
        "Replica",
        "StablePoint",
        "StablePointDetector",
        "StablePointSystem",
        "StateMachine",
        "TotalOrderSystem",
        "counter_machine",
        "counter_spec",
        "registry_machine",
        "registry_spec",
    ),
    "errors": (
        "CausalityViolationError",
        "ConfigurationError",
        "DependencyError",
        "InconsistencyDetected",
        "MembershipError",
        "ProtocolError",
        "ReproError",
        "SimulationError",
    ),
    "graph": ("DependencyGraph", "OccursAfter"),
    "group": ("GroupMembership", "GroupView", "HeartbeatFailureDetector"),
    "net": (
        "ConstantLatency",
        "FaultPlan",
        "LognormalLatency",
        "Network",
        "PerPairLatency",
        "UniformLatency",
    ),
    "sim": ("RngRegistry", "Scheduler", "TraceRecorder"),
    "types": ("Envelope", "EntityId", "Message", "MessageId"),
})

__version__ = "1.0.0"

__all__ = [
    "ASendTotalOrder",
    "BroadcastProtocol",
    "CausalActivity",
    "CausalSystem",
    "CausalityViolationError",
    "CbcastBroadcast",
    "CommutativitySpec",
    "ConfigurationError",
    "ConstantLatency",
    "DataAccessSystem",
    "DependencyError",
    "DependencyGraph",
    "Envelope",
    "EntityId",
    "FaultPlan",
    "FifoBroadcast",
    "FrontEndManager",
    "GroupMembership",
    "GroupView",
    "HeartbeatFailureDetector",
    "InconsistencyDetected",
    "LamportClock",
    "LamportTotalOrder",
    "LognormalLatency",
    "MatrixClock",
    "MembershipError",
    "Message",
    "MessageId",
    "Network",
    "OSendBroadcast",
    "OccursAfter",
    "RecoveryAgent",
    "RstBroadcast",
    "PerPairLatency",
    "ProtocolError",
    "Replica",
    "ReproError",
    "RngRegistry",
    "Scheduler",
    "SequencerTotalOrder",
    "SimulationError",
    "StablePoint",
    "StablePointDetector",
    "StablePointSystem",
    "StateMachine",
    "Timestamp",
    "TotalOrderSystem",
    "TraceRecorder",
    "UniformLatency",
    "UnorderedBroadcast",
    "VectorClock",
    "counter_machine",
    "counter_spec",
    "make_group",
    "protect_group",
    "registry_machine",
    "registry_spec",
]
