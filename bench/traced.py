"""The traced run: per-layer metrics and the budget that sums to the total.

Two parts, both from files under ``bench/`` only.

1. *Outside the wire* — one more segment against the child server, with
   the public ``stats`` verb read before and after (the server's own
   batch and latency counters), and ``wire.decode_frame`` /
   ``wire.encode_frame_body`` timed on a sample of that segment's own
   request and reply documents.
2. *Direct drive* — the same op sequence replayed in-process
   (:mod:`replay`), once bare and once under spans; the ratio of the two
   is the tracing overhead, and span self times are divided by it.

The budget row is ``codec + layers + serve.server.residual``, where the
residual is *defined* as the server's CPU per op minus everything else —
asyncio, sockets, dispatch, reply building: whatever the server does
above the layers the replay drives — so the row sums to
``server_cpu_ms_per_op`` by construction.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.serve import wire

import host
import replay
import wireload
from child import SegmentFailed
from metrics import PER_LAYER
from spans import Tracer
from summary import percentile
from verify import Verdict
from workloads import Op, Workload

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: (op, reply) pairs sampled from the traced segment for codec timing.
CODEC_SAMPLES = 2000
#: Timing passes over the sample; the fastest pass is reported.
CODEC_PASSES = 3


def request_document(op: Op, rid: int) -> Dict[str, object]:
    """The frame ``ServeClient.submit`` sends for ``op``."""
    kind, key, value, _expect = op
    document: Dict[str, object] = {"t": kind}
    if kind != "read":
        document["key"] = key
    if kind == "put":
        document["value"] = value
    document["rid"] = rid
    document["ttl"] = wireload.REQUEST_TIMEOUT
    return document


def codec_costs(samples: List[Tuple[Op, dict]]) -> Dict[str, float]:
    """Server-side codec cost on the workload's own documents."""
    requests = [
        wire.encode_frame_body(request_document(op, rid))
        for rid, (op, _reply) in enumerate(samples)
    ]
    replies = [reply for _op, reply in samples]
    decode_ns = encode_ns = None
    bytes_out = 0
    for _ in range(CODEC_PASSES):
        started = time.perf_counter_ns()
        for body in requests:
            wire.decode_frame(body)
        elapsed = time.perf_counter_ns() - started
        decode_ns = elapsed if decode_ns is None else min(decode_ns, elapsed)
        started = time.perf_counter_ns()
        bytes_out = 0
        for reply in replies:
            bytes_out += len(wire.encode_frame_body(reply))
        elapsed = time.perf_counter_ns() - started
        encode_ns = elapsed if encode_ns is None else min(encode_ns, elapsed)
    count = len(samples)
    return {
        "decode_us": decode_ns / count / 1000.0,
        "encode_us": encode_ns / count / 1000.0,
        # The 4-byte length prefix rides on every frame.
        "bytes_in": sum(len(body) for body in requests) / count + 4,
        "bytes_out": bytes_out / count + 4,
    }


def budget_row(
    server_cpu_ms_per_op: float,
    codec_ms_per_op: float,
    layer_ms_per_op: Dict[str, float],
) -> Dict[str, float]:
    """codec + layers + residual; sums to ``server_cpu_ms_per_op``."""
    row = {"serve.wire": codec_ms_per_op}
    row.update(layer_ms_per_op)
    row["serve.server.residual"] = server_cpu_ms_per_op - sum(row.values())
    return row


def drive_ms(row: Dict[str, float]) -> float:
    return sum(row.get(layer, 0.0) for layer in replay.DRIVE_LAYERS)


@dataclass
class TracedResult:
    metrics: Dict[str, float]
    budget: Dict[str, float]
    server_cpu_ms_per_op: float
    attempted: int
    failed: int
    wrong: int
    trace_path: str
    replay_batch_mean: float
    sessions_per_cycle: int
    predictions: List[Tuple[str, bool]] = field(default_factory=list)


def traced_run(workload: Workload, seed: int, verdict: Verdict) -> TracedResult:
    connections = host.connections()
    sample_every = max(
        1, workload.ops_per_segment(connections) // CODEC_SAMPLES
    )
    segment = asyncio.run(wireload.run_segment(
        workload, seed, with_stats=True, sample_every=sample_every,
    ))
    if not segment.completed:
        raise SegmentFailed(f"every op failed: {segment.failures}")
    before, after = segment.stats_before, segment.stats_after
    codec = codec_costs(segment.samples)

    def delta(counter: str) -> int:
        return int(after.get(counter, 0)) - int(before.get(counter, 0))

    batches = delta("batches")
    batch_mean = delta("batched_ops") / batches if batches else 0.0
    gets = delta("gets")
    # Cycle composition for the replay: whole sessions per cycle, from
    # what the server just reported, then held fixed.
    planned = replay.planned_batch_mean(workload, seed)
    sessions_per_cycle = min(
        connections, max(1, int(batch_mean / planned + 0.5))
    )

    bare = replay.replay(workload, seed, sessions_per_cycle)
    tracer = Tracer()
    traced = replay.replay(workload, seed, sessions_per_cycle, tracer)
    if traced.counts != bare.counts:
        raise RuntimeError(
            f"replay is not repeatable: {bare.counts} vs {traced.counts}"
        )
    overhead = traced.wall_ns / bare.wall_ns
    ops = traced.ops
    by_name = tracer.self_times()

    def count(name: str) -> int:
        return by_name.get(name, (0, 0, 0))[0]

    def total_ns(name: str) -> float:
        return by_name.get(name, (0, 0, 0))[1] / overhead

    def self_ns(name: str) -> float:
        return by_name.get(name, (0, 0, 0))[2] / overhead

    layer_ns: Dict[str, float] = {}
    for name, (_count, _total, own) in by_name.items():
        if name != replay.ROOT:
            layer = replay.layer_of(name)
            layer_ns[layer] = layer_ns.get(layer, 0.0) + own / overhead
    layer_ms_per_op = {
        layer: ns / ops / 1e6 for layer, ns in sorted(layer_ns.items())
    }
    cpu_ms = segment.server_cpu_ms_per_op
    row = budget_row(
        cpu_ms, (codec["decode_us"] + codec["encode_us"]) / 1000.0,
        layer_ms_per_op,
    )

    def per(numerator: float, denominator: int) -> float:
        return numerator / denominator if denominator else 0.0

    def layer_us_per_op(layer: str) -> float:
        return layer_ms_per_op.get(layer, 0.0) * 1000.0

    counts = traced.counts
    rss = segment.rss_kb
    metrics = {
        "p99_ms": percentile(sorted(segment.latencies_ms), 0.99)
            / segment.weather,
        "serve.wire.decode_us_per_frame": codec["decode_us"],
        "serve.wire.encode_us_per_frame": codec["encode_us"],
        "serve.wire.bytes_in_per_op": codec["bytes_in"],
        "serve.wire.bytes_out_per_op": codec["bytes_out"],
        "serve.server.batch_mean": batch_mean,
        "serve.server.direct_get_share": per(delta("gets_direct"), gets),
        "serve.server.service_p50_ms":
            after["latency"]["op"]["p50_ms"],
        "serve.server.residual_ms_per_op": row["serve.server.residual"],
        "shard.router.put_us_per_op":
            per(self_ns("shard.router.put"), ops) / 1000.0,
        "shard.router.read_us_per_read":
            per(self_ns("shard.router.read"), traced.reads) / 1000.0,
        "shard.cluster.shard_send_us_per_op":
            per(self_ns("shard.cluster.shard_send"), ops) / 1000.0,
        "shard.cluster.maximal_us_per_op":
            per(self_ns("shard.cluster.maximal"), ops) / 1000.0,
        "shard.cluster.project_us_per_op":
            per(self_ns("shard.cluster.project"), ops) / 1000.0,
        "shard.cluster.covers_us_per_get":
            per(self_ns("shard.cluster.covers"), traced.gets) / 1000.0,
        "shard.cluster.member_read_us_per_get":
            per(self_ns("shard.cluster.member_read"), traced.gets) / 1000.0,
        "shard.cluster.drain_ms_per_cycle":
            per(total_ns("shard.cluster.drain"), traced.cycles) / 1e6,
        "shard.frontier.note_us_per_delivery":
            per(self_ns("shard.frontier.note"), counts["deliveries"]) / 1000.0,
        "shard.barrier.read_ms_per_read": per(
            total_ns("shard.barrier.start")
            + total_ns("shard.barrier.delivered"),
            traced.reads,
        ) / 1e6,
        "shard.barrier.aborts": counts["barrier_aborts"],
        "sim.scheduler.events_per_op": counts["events"] / ops,
        "sim.scheduler.self_us_per_op": layer_us_per_op("sim.scheduler"),
        "net.network.sends_per_op": counts["sends"] / ops,
        "net.network.self_us_per_op": layer_us_per_op("net.network"),
        "broadcast.base.receives_per_op":
            count("broadcast.base.on_receive") / ops,
        "broadcast.base.deliveries_per_op": counts["deliveries"] / ops,
        "broadcast.base.on_receive_self_us_per_op":
            layer_us_per_op("broadcast.base"),
        "broadcast.base.holdback_peak": counts["holdback_peak"],
        "graph.depgraph.add_us_per_op": layer_us_per_op("graph.depgraph"),
        "graph.depgraph.nodes_end": counts["graph_nodes_end"],
        "broadcast.gc.intercepts_per_op":
            count("broadcast.gc.intercept") / ops,
        "broadcast.gc.self_us_per_op": layer_us_per_op("broadcast.gc"),
        "broadcast.recovery.intercepts_per_op":
            count("broadcast.recovery.intercept") / ops,
        "broadcast.recovery.self_us_per_op":
            layer_us_per_op("broadcast.recovery"),
        "broadcast.recovery.anti_entropy_rounds":
            count("broadcast.recovery.anti_entropy_round"),
        "group.view_sync.self_us_per_op": layer_us_per_op("group.view_sync"),
        "group.view_sync.installs": counts["view_installs"],
        # GC is read off the bare replay: the traced one carries the
        # span lists on its heap.
        "python.gc.pause_share": bare.gc_ns / bare.wall_ns,
        "python.gc.gen2_collections": bare.gc_gen2,
        "python.gc.max_pause_ms": bare.gc_max_ns / 1e6,
        "mem.rss_kb_per_op": per(
            rss[-1] - rss[0],
            segment.attempted * (len(rss) - 1) // len(rss),
        ),
        "analysis.session_guarantees.audit_s": verdict.drain_audit_s,
        "analysis.wire_history.audit_s": verdict.wire_audit_s,
        "host.spin_ms": segment.weather * host.SPIN_REFERENCE_MS,
        "host.loadgen_cpu_share": segment.loadgen_cpu_s / segment.timed_s,
        "host.ops_per_s_raw": segment.ops_per_s,
        "host.cpu_ms_per_op_raw": cpu_ms,
        "trace.overhead_ratio": overhead,
        "budget.drive_share": drive_ms(row) / cpu_ms,
    }
    missing = set(PER_LAYER) ^ set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step: {sorted(missing)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
    tracer.dump(trace_path, {
        "workload": workload.name, "seed": seed,
        "sessions_per_cycle": sessions_per_cycle,
        "ops": ops, "cycles": traced.cycles,
        "overhead_ratio": overhead, "counts": counts,
    })
    result = TracedResult(
        metrics=metrics, budget=row, server_cpu_ms_per_op=cpu_ms,
        attempted=segment.attempted, failed=segment.failed,
        wrong=segment.wrong + traced.wrong, trace_path=trace_path,
        replay_batch_mean=traced.batch_mean,
        sessions_per_cycle=sessions_per_cycle,
    )
    result.predictions = predictions(workload.name, result)
    return result


def predictions(name: str, result: TracedResult) -> List[Tuple[str, bool]]:
    """What ISSUE 12 predicted for this workload, and whether it holds."""
    row, metrics = result.budget, result.metrics
    drive = drive_ms(row)
    above = row["serve.wire"] + row["serve.server.residual"]
    barrier = row.get("shard.barrier", 0.0)
    out: List[Tuple[str, bool]] = []
    if name == "put_pipelined":
        rest = max(
            value for layer, value in row.items()
            if layer not in replay.DRIVE_LAYERS
        )
        out.append((
            f"simulator drive is the largest budget share "
            f"({drive:.4f} ms/op vs next {rest:.4f})", drive > rest,
        ))
        out.append((
            f"serve.server.batch_mean >= 16 "
            f"({metrics['serve.server.batch_mean']:.1f})",
            metrics["serve.server.batch_mean"] >= 16,
        ))
    if name == "get_heavy":
        out.append((
            f"simulator drive ({drive:.4f} ms/op) is smaller than codec + "
            f"residual ({above:.4f})", drive < above,
        ))
    if name == "serial_crash":
        out.append((
            f"serve.server.batch_mean <= 2 "
            f"({metrics['serve.server.batch_mean']:.2f})",
            metrics["serve.server.batch_mean"] <= 2,
        ))
    if name in ("barrier_mix", "serial_crash"):
        out.append((f"shard.barrier is non-zero ({barrier:.4f} ms/op)",
                    barrier > 0))
    else:
        out.append((f"shard.barrier is zero ({barrier:.4f} ms/op)",
                    barrier == 0))
    return out
