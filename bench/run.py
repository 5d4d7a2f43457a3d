#!/usr/bin/env python3
"""The repository's benchmark: four fixed-work wire workloads.

    python bench/run.py                      every workload, full length
    python bench/run.py --trace              ... plus the traced run
    python bench/run.py --selfcheck          three full sets -> noise bounds
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
                                             one workload (the driver's form)

Every form prints each metric by name with its unit, refuses to print a
workload's metrics unless its outputs were checked correct, and writes
``bench/out/result-<workload>.json``.  With ``--workload`` the last line
of standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
if not os.path.isfile(os.path.join(SRC_DIR, "repro", "cli.py")):
    sys.exit(f"bench: the program under test is missing ({SRC_DIR}/repro)")
sys.path.insert(0, SRC_DIR)

import host  # noqa: E402
from child import SegmentFailed  # noqa: E402
import summary  # noqa: E402
import wireload  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from traced import OUT_DIR, TracedResult, traced_run  # noqa: E402
from verify import Verdict, verification_pass  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


#: ISSUE 12's demotion threshold, and the builder contract's bound cap.
DEMOTE_ABOVE = 0.35
BOUND_CAP = 0.25


class WorkloadFailed(Exception):
    """The workload's outputs were wrong; it reports no metrics."""


# -- running -----------------------------------------------------------------


def verify(workload: Workload, seed: int) -> Verdict:
    try:
        verdict = asyncio.run(verification_pass(workload, seed))
    except SegmentFailed as exc:
        raise WorkloadFailed(f"{workload.name}: {exc}") from exc
    if not verdict.ok:
        raise WorkloadFailed(
            f"{workload.name}: verification pass failed:\n  "
            + "\n  ".join(verdict.problems)
        )
    print(
        f"[{workload.name}] verification pass green: {verdict.attempted} ops, "
        f"{verdict.history_ops}-op history clean at CC and CCv, planted "
        f"stale read flagged, drain audit clean "
        f"({verdict.drain_audit_s:.2f} s)"
    )
    return verdict


def run_segment(workload: Workload, seed: int) -> wireload.SegmentResult:
    try:
        segment = asyncio.run(wireload.run_segment(workload, seed))
    except SegmentFailed as exc:
        raise WorkloadFailed(f"{workload.name}: {exc}") from exc
    if segment.wrong:
        raise WorkloadFailed(
            f"{workload.name}: {segment.wrong} wrong answers, e.g. "
            f"{segment.failures[:3]}"
        )
    if not all(wave.completed for wave in segment.waves):
        raise WorkloadFailed(
            f"{workload.name}: a whole wave failed: {segment.failures[:3]}"
        )
    print(
        f"[{workload.name}] segment seed={seed}: "
        f"{segment.ops_per_s:8.1f} ops/s  "
        f"cpu {segment.server_cpu_ms_per_op:.4f} ms/op  "
        f"rss {segment.peak_rss_kb / 1024:6.1f} MB  "
        f"setup {segment.setup_s:.3f} s  "
        f"failed {segment.failed}/{segment.attempted}  "
        f"weather {segment.weather:.2f}"
    )
    return segment


def segment_count(workload: Workload, seconds: Optional[float]) -> int:
    """Whole fixed-work segments that fill ``seconds`` (default: all)."""
    if seconds is None:
        return workload.segments
    return max(1, int(seconds / workload.nominal_segment_s + 0.5))


# -- reducing ----------------------------------------------------------------


def scaled_waves(
    segments: Sequence[wireload.SegmentResult],
    value: Callable[[wireload.Wave], float],
) -> List[List[float]]:
    """``value`` of every wave, per segment, at the reference host speed."""
    return [
        [value(wave) / segment.wave_weather(wave) for wave in segment.waves]
        for segment in segments
    ]


def end_to_end(
    verdict: Verdict, segments: Sequence[wireload.SegmentResult]
) -> Dict[str, object]:
    """The end-to-end metrics plus what the artefact keeps beside them."""
    factors = [s.weather for s in segments]
    per_segment = {
        "setup_s": [s.setup_s for s in segments],
        "ops_per_s": [s.ops_per_s for s in segments],
        "server_cpu_ms_per_op": [s.server_cpu_ms_per_op for s in segments],
        "server_rss_mb": [s.peak_rss_kb / 1024.0 for s in segments],
        "spin_ms": [f * host.SPIN_REFERENCE_MS for f in factors],
        "weather": factors,
        "timed_s": [s.timed_s for s in segments],
        "seed": [s.seed for s in segments],
    }
    raw_latency = summary.latency_summary(
        summary.pooled([s.latencies_ms for s in segments])
    )
    latency = summary.latency_summary(summary.pooled([
        [ms / factor for ms in wave.latencies_ms]
        for s in segments for wave in s.waves
        for factor in [s.wave_weather(wave)]
    ]))
    raw = {
        "setup_s": statistics.median([verdict.setup_s] + per_segment["setup_s"]),
        "ops_per_s": statistics.median(per_segment["ops_per_s"]),
        "p50_ms": raw_latency["p50_ms"],
        "server_cpu_ms_per_op":
            statistics.median(per_segment["server_cpu_ms_per_op"]),
        "server_rss_mb": statistics.median(per_segment["server_rss_mb"]),
    }
    values = {
        "setup_s": statistics.median(
            [s.setup_s / s.spawn_weather for s in segments]
        ),
        "ops_per_s": 1.0 / statistics.fmean(summary.by_wave(
            scaled_waves(segments, lambda w: w.wall_s / w.completed)
        )),
        "p50_ms": statistics.median(summary.by_wave(
            scaled_waves(segments, lambda w: statistics.median(w.latencies_ms))
        )),
        "server_cpu_ms_per_op": statistics.fmean(summary.by_wave(scaled_waves(
            segments, lambda w: w.server_cpu_s * 1000.0 / w.completed
        ))),
        "server_rss_mb": raw["server_rss_mb"],
    }
    return {
        "metrics": values,
        "raw": raw,
        "attempted": sum(s.attempted for s in segments),
        "failed": sum(s.failed for s in segments),
        "latency": latency,
        "segments": per_segment,
        "quartiles": {
            name: summary.quartiles(per_segment[name])
            for name in ("ops_per_s", "server_cpu_ms_per_op", "server_rss_mb")
        },
    }


def print_end_to_end(name: str, report: Dict[str, object]) -> None:
    latency = report["latency"]
    print(f"[{name}] end to end ({report['attempted']} ops attempted, "
          f"{report['failed']} failed; {latency['samples']} latency samples "
          f"pooled over {len(report['segments']['seed'])} segments):")
    for metric, value in report["metrics"].items():
        unit, better, bound = END_TO_END[metric]
        print(f"    {metric:<24} {value:12.4f} {unit:<4} "
              f"({better} is better, bound {bound:.2f})")
    print(f"    {'p99_ms':<24} {latency['p99_ms']:12.4f} ms   "
          f"(ungated: demoted to the per-layer list)")
    if "top_ms" in latency:
        print(f"    p{latency['top_quantile'] * 100:.3f}_ms".ljust(29)
              + f"{latency['top_ms']:12.4f} ms   (highest percentile with "
              f"{summary.SAMPLES_BEYOND} samples beyond it; ungated)")


def print_traced(name: str, traced: TracedResult) -> None:
    print(f"[{name}] per layer (traced run; replay at "
          f"{traced.sessions_per_cycle} session(s) per cycle, batch mean "
          f"{traced.replay_batch_mean:.1f}):")
    for metric, value in traced.metrics.items():
        unit, _better = PER_LAYER[metric]
        print(f"    {metric:<44} {value:14.4f} {unit}")
    total = traced.server_cpu_ms_per_op
    print(f"[{name}] budget, ms per op (sums to server_cpu_ms_per_op = "
          f"{total:.4f}):")
    for layer, value in traced.budget.items():
        print(f"    {layer:<28} {value:9.4f}  {100 * value / total:5.1f} %")
    print(f"    {'sum':<28} {sum(traced.budget.values()):9.4f}")
    for text, holds in traced.predictions:
        print(f"[{name}] prediction {'holds' if holds else 'FAILS'}: {text}")
    print(f"[{name}] spans written to {os.path.relpath(traced.trace_path)}")


def write_artefact(name: str, document: Dict[str, object]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    document = {"workload": name, "host": host.fingerprint(), **document}
    with open(os.path.join(OUT_DIR, f"result-{name}.json"), "w") as handle:
        json.dump(document, handle, indent=1)


def traced_document(traced: TracedResult) -> Dict[str, object]:
    return {
        "per_layer": traced.metrics,
        "budget_ms_per_op": traced.budget,
        "server_cpu_ms_per_op": traced.server_cpu_ms_per_op,
        "predictions": [
            {"text": text, "holds": holds}
            for text, holds in traced.predictions
        ],
    }


# -- the three forms ---------------------------------------------------------


def run_one(
    name: str, seed: int, seconds: Optional[float], trace: bool
) -> int:
    """The driver's form: one workload, result as the last line."""
    workload = WORKLOADS[name]
    try:
        verdict = verify(workload, seed)
        if trace:
            traced = traced_run(workload, seed, verdict)
            if traced.wrong:
                raise WorkloadFailed(f"{name}: {traced.wrong} wrong answers")
            print_traced(name, traced)
            write_artefact(name, traced_document(traced))
            attempted, failed = traced.attempted, traced.failed
            declared = {k: v[0] for k, v in PER_LAYER.items()}
            values = traced.metrics
        else:
            segments = [
                run_segment(workload, seed + i)
                for i in range(segment_count(workload, seconds))
            ]
            report = end_to_end(verdict, segments)
            print_end_to_end(name, report)
            write_artefact(name, report)
            attempted, failed = report["attempted"], report["failed"]
            declared = {k: v[0] for k, v in END_TO_END.items()}
            values = report["metrics"]
    except (WorkloadFailed, SegmentFailed) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in declared.items()
        },
    }))
    return 0


def run_set(
    seed: int, seconds: Optional[float], trace: bool
) -> Dict[str, Dict[str, object]]:
    """Every workload, segments interleaved round-robin.

    Interleaving makes each workload sample the whole invocation window
    instead of one 30-second slice of host weather.
    """
    reports: Dict[str, Dict[str, object]] = {}
    verdicts: Dict[str, Verdict] = {}
    for name, workload in WORKLOADS.items():
        try:
            verdicts[name] = verify(workload, seed)
        except WorkloadFailed as exc:
            print(f"bench: {exc}", file=sys.stderr)
    segments: Dict[str, List[wireload.SegmentResult]] = {
        name: [] for name in verdicts
    }
    most = max(segment_count(w, seconds) for w in WORKLOADS.values())
    for index in range(most):
        for name in list(segments):
            workload = WORKLOADS[name]
            if index >= segment_count(workload, seconds):
                continue
            try:
                segments[name].append(run_segment(workload, seed + index))
            except WorkloadFailed as exc:
                print(f"bench: {exc}", file=sys.stderr)
                del segments[name]
    for name, done in segments.items():
        report = end_to_end(verdicts[name], done)
        print_end_to_end(name, report)
        if trace:
            try:
                traced = traced_run(WORKLOADS[name], seed, verdicts[name])
            except SegmentFailed as exc:
                print(f"bench: {name}: traced run failed: {exc}",
                      file=sys.stderr)
                continue
            print_traced(name, traced)
            report.update(traced_document(traced))
        write_artefact(name, report)
        reports[name] = report
    return reports


def selfcheck(seed: int, seconds: Optional[float]) -> int:
    """Three full sets of identical code -> each metric's noise bound."""
    sets = [run_set(seed, seconds, trace=False) for _ in range(3)]
    if any(len(reports) != len(WORKLOADS) for reports in sets):
        print("bench: selfcheck needs every workload green", file=sys.stderr)
        return 1
    print("\nselfcheck: three sets of the same code "
          f"({json.dumps(host.fingerprint())})")
    print(f"{'workload':<14} {'metric':<22} "
          f"{'set 1':>12} {'set 2':>12} {'set 3':>12} {'gap':>7}")
    needed: Dict[str, float] = {metric: 0.0 for metric in END_TO_END}
    for name in WORKLOADS:
        for metric in END_TO_END:
            values = [reports[name]["metrics"][metric] for reports in sets]
            gap = summary.largest_relative_gap(values)
            needed[metric] = max(needed[metric], gap)
            print(f"{name:<14} {metric:<22} "
                  + " ".join(f"{v:12.4f}" for v in values)
                  + f" {gap:7.3f}")
    print(f"\nneeded = 2 x largest gap between two sets; a metric other "
          f"than setup_s needing over {DEMOTE_ABOVE} on any workload is "
          f"demoted to the per-layer list; declared bounds stop at the "
          f"builder contract's cap of {BOUND_CAP}")
    status = 0
    for metric, (_unit, _better, bound) in END_TO_END.items():
        need = 2 * needed[metric]
        if need <= bound:
            verdict = "ok"
        elif need > DEMOTE_ABOVE and metric != "setup_s":
            verdict, status = "DEMOTE", 1
        elif bound < BOUND_CAP:
            verdict, status = "RAISE the declared bound", 1
        else:
            verdict = "over the cap; stays at it"
        print(f"    {metric:<24} declared {bound:.2f}  needs {need:.3f}  "
              f"{verdict}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed load per workload; turned into a whole number of "
             "fixed-work segments (default: each workload's full count)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also (with --workload: instead) make the traced run",
    )
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    host.pin_generator()
    started = time.perf_counter()
    if args.selfcheck:
        status = selfcheck(args.seed, args.seconds)
    elif args.workload is not None:
        return run_one(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    else:
        reports = run_set(args.seed, args.seconds, bool(args.trace))
        status = 0 if len(reports) == len(WORKLOADS) else 1
    print(f"bench: done in {time.perf_counter() - started:.0f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
