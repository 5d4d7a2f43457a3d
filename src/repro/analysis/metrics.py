"""Metrics extracted from simulation traces.

The experiments report three families of numbers:

* **delivery latency** — time from broadcast ("send" trace event) to
  delivery at each member ("deliver" event); the paper's asynchronism
  claims translate to lower latency for causally ordered traffic than for
  totally ordered traffic,
* **hold-back pressure** — envelopes parked awaiting their predicate,
* **message cost** — network hops per application operation (total order
  pays for ack/order traffic; stable points do not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.trace import TraceRecorder
from repro.types import EntityId, MessageId


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    minimum: float
    median: float
    p95: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "SummaryStats":
        if not values:
            return cls(0, math.nan, math.nan, math.nan, math.nan, math.nan)
        ordered = sorted(values)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            minimum=ordered[0],
            median=_quantile(ordered, 0.5),
            p95=_quantile(ordered, 0.95),
            maximum=ordered[-1],
        )


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of a pre-sorted sample."""
    if not ordered:
        return math.nan
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return ordered[low]
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


# ---------------------------------------------------------------------------
# Latency
# ---------------------------------------------------------------------------


def _first_sends(trace: TraceRecorder) -> Dict[MessageId, float]:
    """Each label's earliest ``send`` time."""
    send_times: Dict[MessageId, float] = {}
    for event in trace.of_kind("send"):
        send_times.setdefault(event.get("msg_id"), event.time)
    return send_times


def delivery_latencies(
    trace: TraceRecorder,
) -> Dict[Tuple[MessageId, EntityId], float]:
    """Latency of each (message, member) delivery, from the trace.

    Uses the *earliest* ``send`` event per label (re-broadcasts, e.g. by a
    sequencer, do not reset the clock) and the ``deliver`` event per
    member.
    """
    send_times = _first_sends(trace)
    latencies: Dict[Tuple[MessageId, EntityId], float] = {}
    for event in trace.of_kind("deliver"):
        msg_id = event.get("msg_id")
        entity = event.get("entity")
        sent = send_times.get(msg_id)
        if sent is not None:
            latencies[(msg_id, entity)] = event.time - sent
    return latencies


def latency_summary(
    trace: TraceRecorder, operations: Optional[set] = None
) -> SummaryStats:
    """Summary of delivery latencies, optionally restricted to operations.

    ``operations`` filters by the ``operation`` field of deliver events —
    used to exclude control traffic (acks, order bindings) from
    application-latency comparisons.
    """
    send_times = _first_sends(trace)
    samples: List[float] = []
    for event in trace.of_kind("deliver"):
        if operations is not None and event.get("operation") not in operations:
            continue
        sent = send_times.get(event.get("msg_id"))
        if sent is not None:
            samples.append(event.time - sent)
    return SummaryStats.of(samples)


# ---------------------------------------------------------------------------
# Hold-back pressure
# ---------------------------------------------------------------------------


def holdback_summary(trace: TraceRecorder) -> SummaryStats:
    """Summary of hold-back queue sizes sampled at each enqueue.

    A replica group's network has a disabled recorder that keeps no
    events, so over one this summary is empty.
    """
    sizes = [float(e.get("queue", 0)) for e in trace.of_kind("hold")]
    return SummaryStats.of(sizes)


def hold_durations(trace: TraceRecorder) -> SummaryStats:
    """How long messages sat in hold-back queues before delivery.

    Matches ``hold`` events to ``deliver`` events per (entity, message).
    A replica group's network keeps no events, so over one no message
    contributes a duration.
    """
    held_at: Dict[Tuple[EntityId, MessageId], float] = {}
    durations: List[float] = []
    for event in trace:
        key = (event.get("entity"), event.get("msg_id"))
        if event.kind == "hold":
            held_at.setdefault(key, event.time)
        elif event.kind == "deliver":
            start = held_at.pop(key, None)
            if start is not None:
                durations.append(event.time - start)
    return SummaryStats.of(durations)


# ---------------------------------------------------------------------------
# Message cost
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MessageCost:
    """Network cost attribution for one run."""

    app_broadcasts: int
    control_broadcasts: int
    hops_sent: int
    hops_delivered: int

    @property
    def control_overhead_ratio(self) -> float:
        """Control broadcasts per application broadcast."""
        if self.app_broadcasts == 0:
            return 0.0
        return self.control_broadcasts / self.app_broadcasts


CONTROL_OPERATIONS = {"__ack__", "__order__", "__nack__", "__digest__"}


def message_cost(trace: TraceRecorder, network: object) -> MessageCost:
    """Split broadcast counts into application vs control traffic."""
    app = 0
    control = 0
    for event in trace.of_kind("send"):
        if event.get("operation") in CONTROL_OPERATIONS:
            control += 1
        else:
            app += 1
    return MessageCost(
        app_broadcasts=app,
        control_broadcasts=control,
        hops_sent=getattr(network, "hops_sent", 0),
        hops_delivered=getattr(network, "hops_delivered", 0),
    )
