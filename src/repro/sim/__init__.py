"""Deterministic discrete-event simulation engine.

The paper's experiments ran on a LAN of workstations; we substitute a
seeded discrete-event simulator so that every interleaving is exactly
reproducible (see DESIGN.md, "Substitutions").  The engine is deliberately
small:

* :class:`~repro.sim.scheduler.Scheduler` — the event loop,
* :class:`~repro.sim.rng.RngRegistry` — independent named random streams,
* :class:`~repro.sim.trace.TraceRecorder` — structured event traces,
* :class:`~repro.sim.node.SimNode` — base class for protocol endpoints.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "node": ("SimNode",),
    "rng": ("RngRegistry",),
    "scheduler": ("EventHandle", "Scheduler"),
    "trace": ("TraceEvent", "TraceRecorder"),
})

__all__ = [
    "EventHandle",
    "RngRegistry",
    "Scheduler",
    "SimNode",
    "TraceEvent",
    "TraceRecorder",
]
