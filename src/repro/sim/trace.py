"""Structured trace recording for simulation runs.

Every interesting occurrence — a send, a network hop, a delivery, a stable
point — is recorded as a :class:`TraceEvent`.  The analysis layer
(:mod:`repro.analysis`) consumes traces to verify causal delivery, measure
latency and locate synchronization points, mirroring the paper's idea that
the message dependency graph is "extractable by observing execution
behaviour" (Section 3.2).

Per-hop events (``"receive"`` and ``"hold"``) are recorded once per
network arrival, which dominates tracing cost in large runs.  They are
therefore *opt-out*: ``hop_events`` selects full recording (the default,
used by the analysis layer) or none at all — benchmarks time protocol
work, not trace appends.  Producers call :meth:`TraceRecorder.wants`
before building an event so a suppressed hop costs one predicate check
and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Mapping, Optional

#: Event kinds emitted once per network arrival (the hot path).
HOP_KINDS = frozenset({"receive", "hold"})

#: Valid ``hop_events`` modes.
HOP_MODES = ("full", "off")


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
    hop_events:
        ``"full"`` records every per-hop event, ``"off"`` drops hop
        events entirely.  Non-hop kinds (``"send"``, ``"deliver"``, ...)
        are always recorded while enabled.
    """

    def __init__(self, enabled: bool = True, hop_events: str = "full") -> None:
        if hop_events not in HOP_MODES:
            raise ValueError(
                f"hop_events must be one of {HOP_MODES}, got {hop_events!r}"
            )
        self.enabled = enabled
        self.hop_events = hop_events
        self._dropped = HOP_KINDS if hop_events == "off" else frozenset()
        self._events: List[TraceEvent] = []
        self._subscribers: List[Callable[[TraceEvent], None]] = []

    def wants(self, kind: str) -> bool:
        """Whether an event of ``kind`` would be kept.

        Producers on hot paths call this before assembling event details,
        so suppressed hops cost nothing.
        """
        return self.enabled and kind not in self._dropped

    def record(self, time: float, kind: str, **details: Any) -> None:
        """Record one event (no-op when disabled).

        Hop-kind events passed directly to ``record`` (without a prior
        ``wants`` gate) are filtered here as well, so legacy callers keep
        working under ``hop_events="off"``; such callers should migrate to
        the ``wants`` gate to also skip building ``details``.
        """
        if not self.enabled or kind in self._dropped:
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
