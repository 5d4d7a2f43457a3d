"""Per-server counters and latency quantiles for the serving layer.

Deliberately dependency-free: counters are plain ints, latencies go into
a bounded ring (newest :data:`RESERVOIR` samples win), and quantiles are
computed on demand by sorting the ring — exact over the retained window,
cheap at serving scale.  ``snapshot()`` is the single source for the
wire ``stats`` reply, ``repro serve --stats``, the load generator's
report, and the benchmark JSON, so every surface shows the same numbers.

``counters`` is a live dict: the server's hot paths add to it directly,
once per dispatch turn or batch cycle where they can (``bump`` is for
the rare paths), and latencies arrive a turn's or a cycle's worth at a
time (:meth:`ServeMetrics.record_latencies`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence

#: Latency samples retained per kind (newest win).
RESERVOIR = 4096


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile (0..1) of ``samples`` by nearest-rank, or None.

    Nearest-rank on the sorted sample: exact for the retained window,
    and monotone in ``q`` — good enough for serving dashboards without
    inventing an interpolation scheme.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class ServeMetrics:
    """Counters + latency reservoirs for one server (or one load run).

    ``gauges`` (if given) is sampled by every :meth:`snapshot` and merged
    into it — sizes that are walked on demand, never maintained per op
    (the server passes its cluster's dependency-graph gauges).
    """

    def __init__(
        self, gauges: Optional[Callable[[], Dict[str, int]]] = None
    ) -> None:
        self._gauges = gauges
        self.counters: Dict[str, int] = {
            "connections_opened": 0,
            "connections_closed": 0,
            "frames_in": 0,
            "frames_out": 0,
            # One write carries every reply a turn or a cycle earned a
            # connection: frames_out / wire_writes is the packing factor.
            "wire_writes": 0,
            "ops": 0,
            "puts": 0,
            "puts_dropped": 0,
            "puts_deduped": 0,
            "sheds": 0,
            "deadline_drops": 0,
            "gets": 0,
            "gets_direct": 0,
            "gets_cycle": 0,
            "reads": 0,
            "reads_failed": 0,
            "errors": 0,
            "batches": 0,
            "batched_ops": 0,
            "admission_waits": 0,
            "tokens_imported": 0,
            "token_labels_dropped": 0,
        }
        #: op kind -> service-time ring, in milliseconds.
        self._latency: Dict[str, Deque[float]] = {}
        #: batch-size ring (ops per flush cycle).
        self._batch_sizes: Deque[int] = deque(maxlen=RESERVOIR)
        #: live gauges, maintained by the server.
        self.inflight = 0
        self.queue_depth = 0

    # -- recording ---------------------------------------------------------

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def record_latency(self, kind: str, millis: float) -> None:
        self.record_latencies(kind, (millis,))

    def record_latencies(self, kind: str, samples: Iterable[float]) -> None:
        """Add a turn's or a cycle's samples of one kind at once."""
        ring = self._latency.get(kind)
        if ring is None:
            ring = self._latency[kind] = deque(maxlen=RESERVOIR)
        ring.extend(samples)

    def record_batch(self, size: int) -> None:
        self.bump("batches")
        self.bump("batched_ops", size)
        self._batch_sizes.append(size)

    # -- reporting ---------------------------------------------------------

    def _sampled_gauges(self) -> Dict[str, int]:
        return self._gauges() if self._gauges is not None else {}

    def latency_quantiles(self, kind: str = "op") -> Dict[str, Optional[float]]:
        samples = list(self._latency.get(kind, ()))
        return {
            "p50_ms": percentile(samples, 0.50),
            "p99_ms": percentile(samples, 0.99),
            "max_ms": max(samples) if samples else None,
            "samples": len(samples),
        }

    def snapshot(self) -> Dict[str, object]:
        """One JSON-compatible dict with every counter, gauge and quantile."""
        sizes = list(self._batch_sizes)
        return {
            **self.counters,
            "inflight": self.inflight,
            "queue_depth": self.queue_depth,
            **self._sampled_gauges(),
            "batch_mean": (sum(sizes) / len(sizes)) if sizes else None,
            "batch_max": max(sizes) if sizes else None,
            "latency": {
                kind: self.latency_quantiles(kind)
                for kind in sorted(self._latency)
            },
        }

    def render(self) -> str:
        """Human-readable multi-line summary (``repro serve --stats``)."""
        snap = self.snapshot()
        lines: List[str] = ["serve metrics:"]
        for key in sorted(self.counters):
            lines.append(f"  {key:<22} {self.counters[key]}")
        lines.append(f"  {'inflight':<22} {snap['inflight']}")
        lines.append(f"  {'queue_depth':<22} {snap['queue_depth']}")
        for key in sorted(self._sampled_gauges()):
            lines.append(f"  {key:<22} {snap[key]}")
        if snap["batch_mean"] is not None:
            lines.append(
                f"  {'batch size':<22} mean={snap['batch_mean']:.1f} "
                f"max={snap['batch_max']}"
            )
        for kind, quantiles in snap["latency"].items():
            if quantiles["samples"]:
                lines.append(
                    f"  {kind + ' latency':<22} "
                    f"p50={quantiles['p50_ms']:.2f}ms "
                    f"p99={quantiles['p99_ms']:.2f}ms "
                    f"(n={quantiles['samples']})"
                )
        return "\n".join(lines)
