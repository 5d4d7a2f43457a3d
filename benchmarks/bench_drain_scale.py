"""DRAIN-SCALE benchmark — indexed wakeup engine vs naive rescan drain.

Sweeps hold-back depth × group size over the worst-case queue shape: a
causal chain received in reverse order, so every envelope is parked and
each delivery unblocks exactly one successor.  The naive drain rescans
the whole queue per pass (O(depth²) predicate evaluations); the indexed
engine pays one evaluation per unblocking event (O(depth)).

Two scenarios:

* ``osend-chain`` — explicit Occurs-After ancestors (event-keyed wakes),
* ``cbcast-chain`` — vector-clock stamps (threshold-keyed wakes), where
  group size also scales the per-evaluation clock-comparison cost.

The package has only the indexed engine; the naive receiver is built
with ``naive(cls)`` from ``tests/broadcast/naive_drain.py``, the test
suite's reference for the engine's delivery order.

Run as a script (or via ``make bench-quick``) to write
``BENCH_drain_scale.json``; ``make perf-guard`` replays the indexed
cases and compares against the committed baseline.  Ops/sec numbers are
machine-relative — only the naive/indexed *speedup* is portable.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro.broadcast.cbcast import CbcastBroadcast
from repro.broadcast.osend import OSendBroadcast
from repro.graph.predicates import OccursAfter
from repro.group.membership import GroupMembership
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder
from repro.types import Envelope, Message, MessageId

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT))  # the rescan reference lives under tests/
from tests.broadcast.naive_drain import naive  # noqa: E402

DEPTHS = (100, 250, 500, 1000)
MEMBER_COUNTS = (3, 8)
REPEATS = 3
REPORT_PATH = ROOT / "BENCH_drain_scale.json"

SENDER = "sender"


def _members(count: int) -> List[str]:
    return ["receiver", SENDER] + [f"peer{i}" for i in range(count - 2)]


def osend_chain(depth: int, members: List[str]) -> List[Envelope]:
    """A reverse-ordered causal chain of explicit ancestors."""
    labels = [MessageId(SENDER, i) for i in range(depth)]
    envelopes = [
        Envelope(
            Message(labels[i], "op", None),
            occurs_after=OccursAfter.after([labels[i - 1]] if i else None),
        )
        for i in range(depth)
    ]
    return list(reversed(envelopes))


def cbcast_chain(depth: int, members: List[str]) -> List[Envelope]:
    """The same chain carried by vector-clock stamps."""
    membership = GroupMembership(members)
    sender = CbcastBroadcast(SENDER, membership)
    envelopes = []
    for i in range(depth):
        message = Message(MessageId(SENDER, i), "op", None)
        envelopes.append(sender._stamp(message))
        # The sender "delivers" its own message so successive stamps chain.
        sender._clock = envelopes[-1].metadata["vclock"]
    return list(reversed(envelopes))


SCENARIOS: Dict[str, tuple] = {
    "osend-chain": (OSendBroadcast, osend_chain),
    "cbcast-chain": (CbcastBroadcast, cbcast_chain),
}


def run_case(
    scenario: str, members_count: int, depth: int, engine: str
) -> float:
    """One timed injection into an ``engine`` ("indexed" or "naive")
    receiver; returns deliveries per second."""
    protocol_cls, build = SCENARIOS[scenario]
    members = _members(members_count)
    envelopes = build(depth, members)
    scheduler = Scheduler()
    net = Network(
        scheduler, rng=RngRegistry(0), trace=TraceRecorder(enabled=False)
    )
    membership = GroupMembership(members)
    if engine == "naive":
        protocol_cls = naive(protocol_cls)
    receiver = protocol_cls("receiver", membership)
    net.register(receiver)
    start = time.perf_counter()
    for envelope in envelopes:
        receiver.on_receive(SENDER, envelope)
    elapsed = time.perf_counter() - start
    if receiver.delivered_count != depth:
        raise AssertionError(
            f"{scenario} x{members_count} depth={depth} ({engine}): "
            f"delivered {receiver.delivered_count}/{depth}"
        )
    return depth / elapsed


def best_of(repeats: int, case: Callable[[], float]) -> float:
    return max(case() for _ in range(repeats))


def run_sweep(
    depths=DEPTHS, member_counts=MEMBER_COUNTS, repeats=REPEATS
) -> dict:
    results = []
    for scenario in SCENARIOS:
        for members_count in member_counts:
            for depth in depths:
                naive = best_of(
                    repeats,
                    lambda: run_case(scenario, members_count, depth, "naive"),
                )
                indexed = best_of(
                    repeats,
                    lambda: run_case(scenario, members_count, depth, "indexed"),
                )
                results.append(
                    {
                        "scenario": scenario,
                        "members": members_count,
                        "depth": depth,
                        "naive_ops_per_sec": round(naive, 1),
                        "indexed_ops_per_sec": round(indexed, 1),
                        "speedup": round(indexed / naive, 2),
                    }
                )
    return {
        "benchmark": "drain_scale",
        "unit": "deliveries/sec (higher is better)",
        "config": {
            "depths": list(depths),
            "member_counts": list(member_counts),
            "repeats": repeats,
        },
        "results": results,
    }


def write_report(path: Path = REPORT_PATH) -> dict:
    report = run_sweep()
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- pytest entry points (not tier-1: benchmarks/ is outside testpaths) ------


def test_indexed_drain_speedup_at_depth():
    """Acceptance: >= 5x over the naive drain at hold-back depth >= 500."""
    for scenario in SCENARIOS:
        naive = best_of(2, lambda: run_case(scenario, 3, 500, "naive"))
        indexed = best_of(2, lambda: run_case(scenario, 3, 500, "indexed"))
        assert indexed / naive >= 5.0, (
            f"{scenario}: only {indexed / naive:.1f}x at depth 500"
        )


def test_both_modes_deliver_everything():
    for scenario in SCENARIOS:
        for mode in ("indexed", "naive"):
            run_case(scenario, 3, 100, mode)  # raises on shortfall


def main() -> int:
    report = write_report()
    print(f"wrote {REPORT_PATH}")
    for row in report["results"]:
        print(
            f"  {row['scenario']:<13} members={row['members']} "
            f"depth={row['depth']:>5}: {row['naive_ops_per_sec']:>12.1f} -> "
            f"{row['indexed_ops_per_sec']:>12.1f} ops/s "
            f"({row['speedup']}x)"
        )
    worst_deep = min(
        row["speedup"] for row in report["results"] if row["depth"] >= 500
    )
    print(f"worst speedup at depth >= 500: {worst_deep}x")
    return 0 if worst_deep >= 5.0 else 1


if __name__ == "__main__":
    sys.exit(main())
