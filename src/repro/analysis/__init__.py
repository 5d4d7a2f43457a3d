"""Consistency checkers and simulation metrics."""

from repro.analysis.causal_check import (
    CausalViolation,
    sequences_respect_fifo,
    verify_against_clocks,
    verify_against_graph,
)
from repro.analysis.convergence import (
    Disagreement,
    divergence_between_sync_points,
    same_message_sets_between_sync_points,
    split_by_sync_points,
    stable_points_agree,
    states_agree,
)
from repro.analysis.metrics import (
    MessageCost,
    SummaryStats,
    delivery_latencies,
    hold_durations,
    holdback_summary,
    latency_summary,
    message_cost,
)
from repro.analysis.invariants import InvariantMonitor, Violation
from repro.analysis.incidental import (
    OrderingComparison,
    compare_orderings,
    incidental_pairs,
    semantic_pairs,
)
from repro.analysis.reporting import format_table, print_table
from repro.analysis.timeline import (
    TimelineOptions,
    delivery_matrix,
    render_timeline,
)
from repro.analysis.session_guarantees import (
    GuaranteeViolation,
    SessionOp,
    check_all_session_guarantees,
    check_monotonic_reads,
    check_monotonic_writes,
    check_read_your_writes,
    check_writes_follow_reads,
    sessions_from_frontend_run,
)
from repro.analysis.serializability import (
    SerializabilityReport,
    check_one_copy_serializability,
    check_sequence_legal,
)
from repro.analysis.wire_history import (
    WireHistory,
    WireOp,
    WireRecorder,
    WireViolation,
    check_wire_history,
)

__all__ = [
    "CausalViolation",
    "Disagreement",
    "GuaranteeViolation",
    "InvariantMonitor",
    "Violation",
    "MessageCost",
    "OrderingComparison",
    "SerializabilityReport",
    "SessionOp",
    "SummaryStats",
    "TimelineOptions",
    "WireHistory",
    "WireOp",
    "WireRecorder",
    "WireViolation",
    "check_all_session_guarantees",
    "check_wire_history",
    "check_monotonic_reads",
    "check_monotonic_writes",
    "check_read_your_writes",
    "check_writes_follow_reads",
    "check_one_copy_serializability",
    "check_sequence_legal",
    "compare_orderings",
    "delivery_latencies",
    "delivery_matrix",
    "divergence_between_sync_points",
    "format_table",
    "hold_durations",
    "incidental_pairs",
    "holdback_summary",
    "latency_summary",
    "message_cost",
    "print_table",
    "render_timeline",
    "same_message_sets_between_sync_points",
    "semantic_pairs",
    "sequences_respect_fifo",
    "sessions_from_frontend_run",
    "split_by_sync_points",
    "stable_points_agree",
    "states_agree",
    "verify_against_clocks",
    "verify_against_graph",
]
