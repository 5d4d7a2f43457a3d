"""Every metric the benchmark reports: name, unit, direction, bound.

``BENCHMARK.json`` at the repository root repeats these declarations
(a harness test keeps the two in step).  Layer = module name.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> (unit, better, bound).  The bound is the share of the parent
#: commit's median by which a change may worsen the metric: above the
#: largest spread seen between runs of identical code (README, "Noise"),
#: capped at the contract's 0.25.  Every time-based metric is scaled to
#: the reference host speed (``host.weather``); memory is not.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "p50_ms": ("ms", "lower", 0.25),
    "server_cpu_ms_per_op": ("ms", "lower", 0.25),
    "server_rss_mb": ("MB", "lower", 0.18),
}

#: name -> (unit, better).  From the traced run; no bounds.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # Demoted from the end-to-end list: its ten-run spread reached 0.24
    # on get_heavy, at the contract's 0.25 cap (README, "Noise").
    "p99_ms": ("ms", "lower"),
    "serve.wire.decode_us_per_frame": ("us", "lower"),
    "serve.wire.encode_us_per_frame": ("us", "lower"),
    "serve.wire.bytes_in_per_op": ("B", "lower"),
    "serve.wire.bytes_out_per_op": ("B", "lower"),
    "serve.server.batch_mean": ("count", "higher"),
    "serve.server.direct_get_share": ("share", "higher"),
    "serve.server.service_p50_ms": ("ms", "lower"),
    "serve.server.residual_ms_per_op": ("ms", "lower"),
    "shard.router.put_us_per_op": ("us", "lower"),
    "shard.router.read_us_per_read": ("us", "lower"),
    "shard.cluster.shard_send_us_per_op": ("us", "lower"),
    "shard.cluster.maximal_us_per_op": ("us", "lower"),
    "shard.cluster.project_us_per_op": ("us", "lower"),
    "shard.cluster.covers_us_per_get": ("us", "lower"),
    "shard.cluster.member_read_us_per_get": ("us", "lower"),
    "shard.cluster.drain_ms_per_cycle": ("ms", "lower"),
    "shard.frontier.note_us_per_delivery": ("us", "lower"),
    "shard.barrier.read_ms_per_read": ("ms", "lower"),
    "shard.barrier.aborts": ("count", "lower"),
    "sim.scheduler.events_per_op": ("count", "lower"),
    "sim.scheduler.self_us_per_op": ("us", "lower"),
    "net.network.sends_per_op": ("count", "lower"),
    "net.network.self_us_per_op": ("us", "lower"),
    "broadcast.base.receives_per_op": ("count", "lower"),
    "broadcast.base.deliveries_per_op": ("count", "lower"),
    "broadcast.base.on_receive_self_us_per_op": ("us", "lower"),
    "broadcast.base.holdback_peak": ("count", "lower"),
    "graph.depgraph.add_us_per_op": ("us", "lower"),
    "graph.depgraph.nodes_end": ("count", "lower"),
    "broadcast.gc.intercepts_per_op": ("count", "lower"),
    "broadcast.gc.self_us_per_op": ("us", "lower"),
    "broadcast.recovery.intercepts_per_op": ("count", "lower"),
    "broadcast.recovery.self_us_per_op": ("us", "lower"),
    "broadcast.recovery.anti_entropy_rounds": ("count", "lower"),
    "group.view_sync.self_us_per_op": ("us", "lower"),
    "group.view_sync.installs": ("count", "lower"),
    "python.gc.pause_share": ("share", "lower"),
    "python.gc.gen2_collections": ("count", "lower"),
    "python.gc.max_pause_ms": ("ms", "lower"),
    "mem.rss_kb_per_op": ("kB", "lower"),
    "analysis.session_guarantees.audit_s": ("s", "lower"),
    "analysis.wire_history.audit_s": ("s", "lower"),
    "host.spin_ms": ("ms", "lower"),
    "host.loadgen_cpu_share": ("share", "lower"),
    "host.ops_per_s_raw": ("1/s", "higher"),
    "host.cpu_ms_per_op_raw": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "budget.drive_share": ("share", "lower"),
}
