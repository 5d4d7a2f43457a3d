"""Order statistics the reports are built from."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is only reported with at least this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of an ascending sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def pooled(samples: Sequence[Sequence[float]]) -> List[float]:
    """Every segment's samples as one ascending list."""
    return sorted(value for segment in samples for value in segment)


def by_wave(per_segment: Sequence[Sequence[float]]) -> List[float]:
    """The median across segments of each wave's value, wave by wave.

    Wave ``j`` is the same fixed work at the same server age in every
    segment.  The median per wave, not per segment, drops a burst that
    slows one wave without dropping the rest of its segment, and is not
    moved when bursts hit different waves of two segments.
    """
    return [statistics.median(column) for column in zip(*per_segment)]


def highest_supported(count: int) -> Optional[float]:
    """The highest quantile with SAMPLES_BEYOND samples above it."""
    if count <= SAMPLES_BEYOND:
        return None
    return 1.0 - SAMPLES_BEYOND / count


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def largest_relative_gap(values: Sequence[float]) -> float:
    """Largest gap between any two values, relative to the smaller."""
    low, high = min(values), max(values)
    return (high - low) / low if low else 0.0


def latency_summary(ordered: Sequence[float]) -> Dict[str, float]:
    """p50, p99 and the highest percentile the sample supports."""
    summary = {
        "samples": len(ordered),
        "p50_ms": percentile(ordered, 0.50),
        "p99_ms": percentile(ordered, 0.99),
    }
    top = highest_supported(len(ordered))
    if top is not None:
        summary["top_quantile"] = top
        summary["top_ms"] = percentile(ordered, top)
    return summary
