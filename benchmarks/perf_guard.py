"""``make perf-guard`` — fail on benchmark throughput regressions.

Replays the drain-scale sweep's indexed-engine cases and the
shard-scale sweep and compares throughput against the committed
baselines (``BENCH_drain_scale.json``, ``BENCH_shard_scale.json``), case
by case.  The naive rescan is not timed: it is the reference the
engine's speedup is measured against, not a guarded engine.  A case
regresses when current throughput falls more than the tolerance below
baseline (default 25%; override with ``PERF_GUARD_TOLERANCE=0.4``
etc.).  The shard guard additionally enforces the portable acceptance
ratio (>= 3x throughput from 1 to 8 shards at 0% cross-shard traffic).
The serving path over real sockets is guarded by the repo benchmark
instead (``python3 bench/run.py``, declared in ``BENCHMARK.json``).

Exit codes: 0 all cases within tolerance, 1 a case regressed (or the
shard baseline is missing), 2 no drain baseline to compare against.

The committed baselines are machine-relative: after intentional changes
(or on a different machine class), regenerate them with
``python benchmarks/bench_drain_scale.py`` /
``python benchmarks/bench_shard_scale.py`` and commit the new JSON.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import product

import bench_shard_scale
from bench_drain_scale import (
    DEPTHS,
    MEMBER_COUNTS,
    REPORT_PATH,
    SCENARIOS,
    best_of,
    run_case,
)

DEFAULT_TOLERANCE = 0.25
RETRY_REPEATS = 5

#: Portable floor for shards=1 -> shards=8 scaling at 0% cross traffic.
MIN_SHARD_SCALING = 3.0


def guard_shard_scale(tolerance: float) -> int:
    """Shard-scale section; returns the number of confirmed failures."""
    path = bench_shard_scale.REPORT_PATH
    if not path.exists():
        print(f"no baseline at {path}; run bench_shard_scale.py first")
        return 1
    baseline_by_case = {
        (row["shards"], row["cross_fraction"]): row
        for row in json.loads(path.read_text())["results"]
    }
    current = bench_shard_scale.run_sweep(repeats=2)
    failures = []
    for row in current["results"]:
        key = (row["shards"], row["cross_fraction"])
        base = baseline_by_case.get(key)
        if base is None:
            continue  # baseline predates this case; nothing to guard
        floor = base["ops_per_sec"] * (1.0 - tolerance)
        ok = row["ops_per_sec"] >= floor
        print(
            f"  shards={row['shards']} cross={row['cross_fraction']:.0%}: "
            f"{row['ops_per_sec']:>10.1f} vs baseline "
            f"{base['ops_per_sec']:>10.1f} ({'ok' if ok else 'REGRESSED'})"
        )
        if not ok:
            failures.append(key)
    confirmed = []
    for shards, cross_fraction in failures:
        floor = baseline_by_case[(shards, cross_fraction)][
            "ops_per_sec"
        ] * (1.0 - tolerance)
        retried = best_of(
            RETRY_REPEATS,
            lambda: bench_shard_scale.run_case(shards, cross_fraction),
        )
        print(
            f"  retry shards={shards} cross={cross_fraction:.0%}: "
            f"{retried:.1f} vs floor {floor:.1f} "
            f"({'ok' if retried >= floor else 'REGRESSED'})"
        )
        if retried < floor:
            confirmed.append((shards, cross_fraction))
    scaling = [
        row["scaling_vs_one_shard"]
        for row in current["results"]
        if row["cross_fraction"] == 0.0 and row["shards"] == 8
    ]
    if scaling and scaling[0] < MIN_SHARD_SCALING:
        print(
            f"  shard scaling 1 -> 8 at 0% cross: {scaling[0]}x "
            f"(< {MIN_SHARD_SCALING}x acceptance)"
        )
        confirmed.append(("scaling", 0.0))
    return len(confirmed)


def main() -> int:
    tolerance = float(os.environ.get("PERF_GUARD_TOLERANCE", DEFAULT_TOLERANCE))
    if not REPORT_PATH.exists():
        print(f"no baseline at {REPORT_PATH}; run bench_drain_scale.py first")
        return 2
    baseline = json.loads(REPORT_PATH.read_text())
    baseline_by_case = {
        (row["scenario"], row["members"], row["depth"]): row
        for row in baseline["results"]
    }
    failures = []
    for scenario, members, depth in product(SCENARIOS, MEMBER_COUNTS, DEPTHS):
        base = baseline_by_case.get((scenario, members, depth))
        if base is None:
            continue  # baseline predates this case; nothing to guard
        indexed = best_of(
            2, lambda: run_case(scenario, members, depth, "indexed")
        )
        floor = base["indexed_ops_per_sec"] * (1.0 - tolerance)
        ok = indexed >= floor
        print(
            f"  {scenario:<13} members={members} "
            f"depth={depth:>5}: {indexed:>12.1f} "
            f"vs baseline {base['indexed_ops_per_sec']:>12.1f} "
            f"({'ok' if ok else 'REGRESSED'})"
        )
        if not ok:
            failures.append((scenario, members, depth))
    if failures:
        # One timer tick of scheduler noise shouldn't fail the build:
        # re-measure suspects with more repeats before judging.
        confirmed = []
        for scenario, members, depth in failures:
            floor = baseline_by_case[(scenario, members, depth)][
                "indexed_ops_per_sec"
            ] * (1.0 - tolerance)
            retried = best_of(
                RETRY_REPEATS,
                lambda: run_case(scenario, members, depth, "indexed"),
            )
            print(
                f"  retry {scenario} members={members} depth={depth}: "
                f"{retried:.1f} vs floor {floor:.1f} "
                f"({'ok' if retried >= floor else 'REGRESSED'})"
            )
            if retried < floor:
                confirmed.append((scenario, members, depth))
        failures = confirmed
    shard_failures = guard_shard_scale(tolerance)
    if failures or shard_failures:
        print(
            f"perf-guard: {len(failures) + shard_failures} "
            f"case(s) regressed more than {tolerance:.0%} vs the committed "
            f"baselines"
        )
        return 1
    print(f"perf-guard: all cases within {tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
