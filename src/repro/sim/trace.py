"""Structured trace recording for simulation runs.

Every interesting occurrence — a send, a network hop, a delivery, a stable
point — is recorded as a :class:`TraceEvent`.  The analysis layer
(:mod:`repro.analysis`) consumes traces to verify causal delivery, measure
latency and locate synchronization points, mirroring the paper's idea that
the message dependency graph is "extractable by observing execution
behaviour" (Section 3.2).

Per-hop events (``"receive"`` and ``"hold"``) are recorded once per
network arrival, which dominates tracing cost in large runs.  Producers
on that path test :attr:`TraceRecorder.enabled` before building an
event, so a disabled recorder costs one attribute read a hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Mapping, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence.

    ``kind`` is a short category string; the library uses (at least):
    ``"send"``, ``"transmit"``, ``"receive"``, ``"deliver"``, ``"hold"``,
    ``"stable_point"``, ``"discard"``.  ``details`` carries event-specific
    fields (message id, entity, queue sizes, ...).
    """

    time: float
    kind: str
    details: Mapping[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.details.get(key, default)


class TraceRecorder:
    """Append-only event log with simple filtering helpers.

    Parameters
    ----------
    enabled:
        Master switch; a disabled recorder drops everything.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[TraceEvent] = []
        self._subscribers: List[Callable[[TraceEvent], None]] = []

    def record(self, time: float, kind: str, **details: Any) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        event = TraceEvent(time, kind, details)
        self._events.append(event)
        for subscriber in self._subscribers:
            subscriber(event)

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Invoke ``callback`` for every future event."""
        self._subscribers.append(callback)

    # -- querying ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        """The full event list (a copy, safe to mutate)."""
        return list(self._events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events with the given ``kind``, in time order."""
        return [e for e in self._events if e.kind == kind]

    def where(self, predicate: Callable[[TraceEvent], bool]) -> List[TraceEvent]:
        """All events satisfying ``predicate``, in time order."""
        return [e for e in self._events if predicate(e)]

    def first(
        self, kind: str, predicate: Optional[Callable[[TraceEvent], bool]] = None
    ) -> Optional[TraceEvent]:
        """The earliest event of ``kind`` (optionally filtered), or None."""
        for event in self._events:
            if event.kind != kind:
                continue
            if predicate is None or predicate(event):
                return event
        return None

    def clear(self) -> None:
        self._events.clear()
